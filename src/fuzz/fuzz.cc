#include "src/fuzz/fuzz.h"

#include <cinttypes>
#include <cstdio>

#include "src/common/check.h"
#include "src/common/rng.h"
#include "src/common/thread_pool.h"
#include "src/obs/json_writer.h"
#include "src/obs/registry.h"

namespace neuroc {

namespace {

// Campaign grain: kernel/serde cases deploy a model (milliseconds each), ISA cases are
// microseconds — chunk the cheap ones so pool bookkeeping doesn't dominate.
size_t GrainFor(FuzzOracle oracle) {
  switch (oracle) {
    case FuzzOracle::kKernel: return 2;
    case FuzzOracle::kIsa: return 64;
    case FuzzOracle::kSerde: return 4;
    case FuzzOracle::kFrame: return 64;
  }
  return 8;
}

std::string HexSeed(uint64_t seed) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "0x%016" PRIx64, seed);
  return buf;
}

}  // namespace

FuzzCampaignResult RunFuzzCampaign(const FuzzConfig& config) {
  NEUROC_CHECK(config.cases >= 0);
  FuzzCampaignResult result;
  result.config = config;

  const size_t total = static_cast<size_t>(config.cases);
  std::vector<CaseResult> records(total);

  // Parallel phase: each case owns slot records[t]; generation and execution derive all
  // randomness from (seed, t), so chunk boundaries and thread count cannot leak in.
  ParallelFor(0, total, GrainFor(config.oracle), [&](size_t t0, size_t t1) {
    for (size_t t = t0; t < t1; ++t) {
      records[t] = RunFuzzCase(GenerateFuzzCase(config.oracle, SubSeed(config.seed, t)));
    }
  });

  // Sequential phase, in case order: counting, minimization, corpus emission.
  for (size_t t = 0; t < total; ++t) {
    switch (records[t].verdict) {
      case FuzzVerdict::kPass: ++result.passed; continue;
      case FuzzVerdict::kSkip: ++result.skipped; continue;
      case FuzzVerdict::kFail: break;
    }
    ++result.failed;
    FuzzFailure f;
    f.index = t;
    f.case_seed = SubSeed(config.seed, t);
    f.detail = records[t].detail;
    f.original = GenerateFuzzCase(config.oracle, f.case_seed);
    f.minimized = f.original;
    f.minimized_detail = f.detail;
    if (config.minimize) {
      const auto still_fails = [](const FuzzCase& cand) {
        return RunFuzzCase(cand).verdict == FuzzVerdict::kFail;
      };
      f.minimized = MinimizeFuzzCase(f.original, still_fails, config.max_minimize_attempts,
                                     &f.minimize_stats);
      if (f.minimize_stats.reductions > 0) {
        f.minimized_detail = RunFuzzCase(f.minimized).detail;
      }
    }
    if (!config.corpus_dir.empty()) {
      f.corpus_file = config.corpus_dir + "/" + FuzzOracleName(config.oracle) + "_s" +
                      std::to_string(config.seed) + "_i" + std::to_string(t) + ".fuzzcase";
      std::string body = "# " + f.minimized_detail + "\n" + f.minimized.ToText();
      if (!WriteStringToFile(f.corpus_file, body)) {
        f.corpus_file.clear();
      }
    }
    result.failures.push_back(std::move(f));
  }
  MetricsRegistry& reg = MetricsRegistry::Global();
  reg.GetCounter("fuzz.cases").Add(result.passed + result.skipped + result.failed);
  reg.GetCounter("fuzz.failures").Add(result.failed);
  return result;
}

std::string FuzzReproCommand(const FuzzFailure& failure) {
  if (!failure.corpus_file.empty()) {
    return "neuroc fuzz --replay " + failure.corpus_file;
  }
  return std::string("neuroc fuzz --oracle ") + FuzzOracleName(failure.original.oracle) +
         " --case-seed " + HexSeed(failure.case_seed);
}

std::string FuzzCampaignJson(const FuzzCampaignResult& result) {
  const FuzzConfig& cfg = result.config;
  JsonWriter w;
  w.BeginObject();
  w.Key("fuzz").BeginObject();
  w.Key("oracle").Value(FuzzOracleName(cfg.oracle));
  w.Key("seed").Value(cfg.seed);
  w.Key("cases").Value(cfg.cases);
  w.Key("minimize").Value(cfg.minimize);
  w.EndObject();
  w.Key("counts").BeginObject();
  w.Key("passed").Value(result.passed);
  w.Key("skipped").Value(result.skipped);
  w.Key("failed").Value(result.failed);
  w.EndObject();
  w.Key("failures").BeginArray();
  for (const FuzzFailure& f : result.failures) {
    w.BeginObject();
    w.Key("index").Value(f.index);
    w.Key("case_seed").Value(HexSeed(f.case_seed));
    w.Key("detail").Value(f.detail);
    w.Key("case").Value(f.original.ToText());
    w.Key("minimized_case").Value(f.minimized.ToText());
    w.Key("minimized_detail").Value(f.minimized_detail);
    w.Key("minimize_attempts").Value(f.minimize_stats.attempts);
    w.Key("minimize_reductions").Value(f.minimize_stats.reductions);
    w.Key("corpus_file").Value(f.corpus_file);
    w.Key("repro").Value(FuzzReproCommand(f));
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  return w.str();
}

}  // namespace neuroc
