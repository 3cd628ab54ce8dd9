// Differential-fuzzing harness tests (ctest -L fuzz): short deterministic campaigns over
// all three oracles must come back clean, campaign JSON must be byte-identical at any
// thread-pool size, the case text form must round-trip losslessly, the greedy minimizer
// must descend to the predicate's boundary, and every checked-in corpus case must replay
// green (each one is a permanent regression test for a bug class the fuzzer can catch).

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <string>
#include <vector>

#include "src/common/thread_pool.h"
#include "src/fuzz/fuzz.h"
#include "src/fuzz/minimize.h"
#include "src/fuzz/oracles.h"
#include "tests/test_util.h"

namespace neuroc {
namespace {

using testutil::GlobalThreadsGuard;

TEST(FuzzCaseTest, TextFormRoundTripsLosslessly) {
  for (FuzzOracle oracle : kAllFuzzOracles) {
    for (uint64_t seed : {1u, 2u, 3u, 17u}) {
      const FuzzCase c = GenerateFuzzCase(oracle, SubSeed(seed, 42));
      const std::string text = c.ToText();
      StatusOr<FuzzCase> parsed = ParseFuzzCase(text);
      ASSERT_TRUE(parsed.ok()) << text << "\n" << parsed.status().ToString();
      EXPECT_EQ(parsed->ToText(), text);
    }
  }
}

TEST(FuzzCaseTest, ExplicitInputSurvivesTextRoundTrip) {
  FuzzCase c = GenerateKernelCase(SubSeed(5, 0));
  c.in_dim = 4;
  c.explicit_input = {-128, 0, 63, 127};
  StatusOr<FuzzCase> parsed = ParseFuzzCase(c.ToText());
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->explicit_input, c.explicit_input);
  EXPECT_EQ(parsed->ToText(), c.ToText());
}

TEST(FuzzCaseTest, ParserRejectsMalformedCases) {
  EXPECT_FALSE(ParseFuzzCase("oracle kernel\nbogus_key 3\n").ok());
  EXPECT_FALSE(ParseFuzzCase("oracle kernel\nin_dim 5000\nout_dim 4\n").ok());
  // Serde dimension chain (2 layers) inconsistent with one per-layer encoding.
  EXPECT_FALSE(
      ParseFuzzCase("oracle serde\ndims 8,4,2\nlayer_encodings csc\n").ok());
}

TEST(FuzzCaseTest, SubSeedIsDeterministicAndSpreads) {
  EXPECT_EQ(SubSeed(1, 0), SubSeed(1, 0));
  std::vector<uint64_t> seeds;
  for (uint64_t i = 0; i < 64; ++i) {
    seeds.push_back(SubSeed(1, i));
  }
  std::sort(seeds.begin(), seeds.end());
  EXPECT_EQ(std::unique(seeds.begin(), seeds.end()), seeds.end());
  EXPECT_NE(SubSeed(1, 0), SubSeed(2, 0));
}

TEST(FuzzCampaignTest, SmokeCampaignsComeBackClean) {
  struct Budget {
    FuzzOracle oracle;
    int cases;
  };
  for (const Budget& b : {Budget{FuzzOracle::kKernel, 12}, Budget{FuzzOracle::kIsa, 512},
                          Budget{FuzzOracle::kSerde, 16}}) {
    FuzzConfig cfg;
    cfg.oracle = b.oracle;
    cfg.seed = 1;
    cfg.cases = b.cases;
    const FuzzCampaignResult r = RunFuzzCampaign(cfg);
    EXPECT_EQ(r.failed, 0u) << FuzzOracleName(b.oracle) << ": "
                            << (r.failures.empty() ? "" : r.failures[0].detail);
    EXPECT_EQ(r.passed + r.skipped, static_cast<uint64_t>(b.cases));
    // Kernel/serde skips are rare (models that exceed the device); a majority of cases
    // must actually run or the campaign is not testing anything.
    EXPECT_GT(r.passed, static_cast<uint64_t>(b.cases) / 2);
  }
}

TEST(FuzzCampaignTest, JsonReportIsByteIdenticalAcrossThreadCounts) {
  GlobalThreadsGuard guard;
  auto report = [](FuzzOracle oracle, int cases) {
    FuzzConfig cfg;
    cfg.oracle = oracle;
    cfg.seed = 9;
    cfg.cases = cases;
    return FuzzCampaignJson(RunFuzzCampaign(cfg));
  };
  ThreadPool::SetGlobalThreads(1);
  const std::string kernel1 = report(FuzzOracle::kKernel, 10);
  const std::string isa1 = report(FuzzOracle::kIsa, 256);
  const std::string serde1 = report(FuzzOracle::kSerde, 12);
  for (unsigned threads : {2u, 4u}) {
    ThreadPool::SetGlobalThreads(threads);
    EXPECT_EQ(report(FuzzOracle::kKernel, 10), kernel1) << threads << " threads";
    EXPECT_EQ(report(FuzzOracle::kIsa, 256), isa1) << threads << " threads";
    EXPECT_EQ(report(FuzzOracle::kSerde, 12), serde1) << threads << " threads";
  }
}

TEST(MinimizeTest, GreedyDescentReachesPredicateBoundary) {
  // Mock predicate: a case "fails" iff it still has at least 3 output neurons. The
  // minimizer must walk out_dim down to exactly 3 — the smallest case that still fails —
  // and shrink the rest of the structure (density, scale, relu) to its floors.
  FuzzCase c = GenerateKernelCase(SubSeed(11, 0));
  c.in_dim = 64;
  c.out_dim = 48;
  ASSERT_GE(c.out_dim, 3u);
  MinimizeStats stats;
  const FuzzCase min = MinimizeFuzzCase(
      c, [](const FuzzCase& v) { return v.out_dim >= 3; }, 256, &stats);
  EXPECT_EQ(min.out_dim, 3u);
  EXPECT_GT(stats.reductions, 0);
  EXPECT_GE(stats.attempts, stats.reductions);
  EXPECT_FALSE(min.relu);
  EXPECT_FALSE(min.has_scale);
}

TEST(MinimizeTest, IsaShrinkDropsSecondHalfword) {
  FuzzCase c;
  c.oracle = FuzzOracle::kIsa;
  c.hw1 = 0xF123;
  c.hw2 = 0xFABC;
  const FuzzCase min =
      MinimizeFuzzCase(c, [](const FuzzCase& v) { return v.hw1 == 0xF123; });
  EXPECT_EQ(min.hw1, 0xF123);
  EXPECT_EQ(min.hw2, 0u);
}

TEST(MinimizeTest, CandidatesAreAlwaysValidCases) {
  for (FuzzOracle oracle : kAllFuzzOracles) {
    const FuzzCase c = GenerateFuzzCase(oracle, SubSeed(13, 7));
    for (const FuzzCase& cand : ShrinkCandidates(c)) {
      StatusOr<FuzzCase> parsed = ParseFuzzCase(cand.ToText());
      EXPECT_TRUE(parsed.ok()) << cand.ToText();
    }
  }
}

TEST(FuzzCorpusTest, EveryCheckedInCaseReplaysGreen) {
  // NEUROC_CORPUS_DIR is tests/corpus in the source tree (set by tests/CMakeLists.txt).
  // Each file is the minimized repro of a bug class the fuzzer caught during development
  // or a hand-authored edge case; a kFail here is a regression in the exact code path the
  // case was minimized to.
  const std::filesystem::path dir = NEUROC_CORPUS_DIR;
  ASSERT_TRUE(std::filesystem::is_directory(dir)) << dir;
  size_t replayed = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() != ".fuzzcase") {
      continue;
    }
    StatusOr<FuzzCase> c = LoadFuzzCase(entry.path().string());
    ASSERT_TRUE(c.ok()) << entry.path() << ": " << c.status().ToString();
    const CaseResult r = RunFuzzCase(*c);
    EXPECT_NE(r.verdict, FuzzVerdict::kFail)
        << entry.path().filename() << ": " << r.detail;
    ++replayed;
  }
  EXPECT_GE(replayed, 10u);
}

}  // namespace
}  // namespace neuroc
