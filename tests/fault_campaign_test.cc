// Fault-injection campaign tests: integrity coverage (every single-bit flip in the model
// image and kernel code is CRC-detectable), deterministic campaign output across thread
// counts, and full recovery-ladder coverage (snapshot retry, scrub, redeploy, dual-run)
// of detected faults.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "src/common/crc32.h"
#include "src/common/thread_pool.h"
#include "src/core/synthetic.h"
#include "src/runtime/deployed_model.h"
#include "src/runtime/fault_campaign.h"
#include "src/sim/fault_injector.h"
#include "tests/test_util.h"

namespace neuroc {
namespace {

using testutil::GlobalThreadsGuard;

NeuroCModel TinyModel(uint64_t seed, EncodingKind encoding = EncodingKind::kCsc) {
  testutil::TestModelSpec spec;
  spec.dims = {32, 12};
  spec.density = 0.25;
  spec.encoding = encoding;
  spec.final_relu = true;
  return testutil::MakeTestModel(seed, spec);
}

TEST(IntegrityTest, EverySingleBitFlipInModelImageIsDetected) {
  // Exhaustively flip every bit of the packed model image in simulated flash: the CRC
  // layer must flag each one. The whole-image digest covers alignment padding between
  // named sections, so there is no undetectable gap.
  NeuroCModel model = TinyModel(1);
  DeployedModel deployed = DeployedModel::Deploy(model);
  ASSERT_TRUE(deployed.VerifyIntegrity().ok());
  MemoryMap& mem = deployed.machine().memory();
  const uint32_t base = deployed.image_base();
  const uint32_t size = static_cast<uint32_t>(deployed.image().flash.size());
  ASSERT_GT(size, 0u);
  uint32_t detected = 0;
  for (uint32_t off = 0; off < size; ++off) {
    uint8_t byte = 0;
    mem.HostRead(base + off, {&byte, 1});
    for (int bit = 0; bit < 8; ++bit) {
      const uint8_t flipped = static_cast<uint8_t>(byte ^ (1u << bit));
      mem.HostWrite(base + off, {&flipped, 1});
      if (!deployed.CorruptedSections().empty()) {
        ++detected;
      }
      mem.HostWrite(base + off, {&byte, 1});
    }
  }
  EXPECT_EQ(detected, size * 8u);  // 100% single-bit coverage
  EXPECT_TRUE(deployed.VerifyIntegrity().ok());  // restoration left the image pristine
}

TEST(IntegrityTest, EverySingleBitFlipInKernelCodeIsDetected) {
  NeuroCModel model = TinyModel(2);
  DeployedModel deployed = DeployedModel::Deploy(model);
  MemoryMap& mem = deployed.machine().memory();
  const uint32_t base = deployed.machine().config().flash_base;
  const uint32_t size = static_cast<uint32_t>(deployed.kernel_program().bytes.size());
  ASSERT_GT(size, 0u);
  uint32_t detected = 0;
  for (uint32_t off = 0; off < size; ++off) {
    uint8_t byte = 0;
    mem.HostRead(base + off, {&byte, 1});
    for (int bit = 0; bit < 8; ++bit) {
      const uint8_t flipped = static_cast<uint8_t>(byte ^ (1u << bit));
      mem.HostWrite(base + off, {&flipped, 1});
      const std::vector<std::string> bad = deployed.CorruptedSections();
      if (!bad.empty() && bad[0] == "kernel_code") {
        ++detected;
      }
      mem.HostWrite(base + off, {&byte, 1});
    }
  }
  EXPECT_EQ(detected, size * 8u);
  EXPECT_TRUE(deployed.VerifyIntegrity().ok());
}

TEST(IntegrityTest, SectionDigestsNameTheCorruptedRegion) {
  NeuroCModel model = TinyModel(3);
  DeployedModel deployed = DeployedModel::Deploy(model);
  MemoryMap& mem = deployed.machine().memory();
  // Corrupt a descriptor byte: both the whole-image digest and the descriptor section
  // must flag it, and VerifyIntegrity's message must name the section.
  uint8_t byte = 0;
  mem.HostRead(deployed.image_base(), {&byte, 1});
  const uint8_t flipped = static_cast<uint8_t>(byte ^ 0x10);
  mem.HostWrite(deployed.image_base(), {&flipped, 1});
  const std::vector<std::string> bad = deployed.CorruptedSections();
  EXPECT_NE(std::find(bad.begin(), bad.end(), "image"), bad.end());
  EXPECT_NE(std::find(bad.begin(), bad.end(), "descriptors"), bad.end());
  Status integrity = deployed.VerifyIntegrity();
  ASSERT_FALSE(integrity.ok());
  EXPECT_EQ(integrity.code(), ErrorCode::kIntegrityFailure);
  EXPECT_NE(integrity.ToString().find("descriptors"), std::string::npos);
  // Scrub restores pristine state.
  deployed.Scrub();
  EXPECT_TRUE(deployed.VerifyIntegrity().ok());
}

TEST(FaultInjectorTest, SeededInjectionIsDeterministic) {
  NeuroCModel model = TinyModel(4);
  DeployedModel a = DeployedModel::Deploy(model);
  DeployedModel b = DeployedModel::Deploy(model);
  for (uint64_t seed = 0; seed < 16; ++seed) {
    Rng ra(seed), rb(seed);
    const InjectedFault fa = InjectFault(a.machine().memory(), a.image_base(),
                                         static_cast<uint32_t>(a.image().flash.size()),
                                         FaultModel::kSingleBitFlip, 1, ra);
    const InjectedFault fb = InjectFault(b.machine().memory(), b.image_base(),
                                         static_cast<uint32_t>(b.image().flash.size()),
                                         FaultModel::kSingleBitFlip, 1, rb);
    EXPECT_EQ(fa.addr, fb.addr);
    EXPECT_EQ(fa.mask, fb.mask);
    EXPECT_EQ(fa.after, fb.after);
    a.Scrub();
    b.Scrub();
  }
}

FaultCampaignConfig SmallCampaign() {
  FaultCampaignConfig cfg;
  cfg.trials_per_encoding = 24;
  cfg.seed = 7;
  cfg.in_dim = 32;
  cfg.hidden_dim = 16;
  cfg.out_dim = 8;
  return cfg;
}

TEST(FaultCampaignTest, OutcomesPartitionTrialsAndDetectedFaultsRecover) {
  const FaultCampaignConfig cfg = SmallCampaign();
  const FaultCampaignResult result = RunFaultCampaign(cfg);
  ASSERT_EQ(result.encodings.size(), std::size(kAllEncodingKinds));
  uint64_t trials = 0;
  for (const EncodingCampaignResult& enc : result.encodings) {
    EXPECT_GT(enc.golden_instructions, 0u);
    EXPECT_GT(enc.program_bytes, 0u);
    ASSERT_EQ(enc.regions.size(), cfg.regions.size());
    // Region counters roll up to the encoding totals, outcomes partition the trials.
    RegionStats sum;
    for (const RegionStats& r : enc.regions) {
      sum.Add(r);
      EXPECT_EQ(r.correct + r.sdc + r.detected + r.budget_exceeded +
                    r.deadline_exceeded + r.dual_run_caught,
                r.trials);
    }
    EXPECT_EQ(sum.trials, enc.totals.trials);
    EXPECT_EQ(sum.sdc, enc.totals.sdc);
    EXPECT_EQ(enc.totals.trials, static_cast<uint64_t>(cfg.trials_per_encoding));
    trials += enc.totals.trials;
  }
  EXPECT_EQ(trials, result.totals.trials);
  // With the ladder on, every detected trial must recover: the pristine snapshot (and as
  // a last resort a fresh deployment) is always available.
  EXPECT_EQ(result.totals.recovered,
            result.totals.detected + result.totals.budget_exceeded +
                result.totals.deadline_exceeded + result.totals.dual_run_caught);
  EXPECT_EQ(result.totals.unrecovered, 0u);
  EXPECT_EQ(result.totals.permanent_failure, 0u);
  // Recoveries are attributed to exactly one rung.
  EXPECT_EQ(result.totals.recovered_snapshot + result.totals.recovered_scrub +
                result.totals.recovered_redeploy,
            result.totals.recovered);
}

TEST(FaultCampaignTest, JsonIsByteIdenticalAcrossRunsAndThreadCounts) {
  GlobalThreadsGuard guard;
  const FaultCampaignConfig cfg = SmallCampaign();
  ThreadPool::SetGlobalThreads(1);
  const std::string json1 = FaultCampaignJson(RunFaultCampaign(cfg));
  ThreadPool::SetGlobalThreads(4);
  const std::string json4 = FaultCampaignJson(RunFaultCampaign(cfg));
  const std::string json4_again = FaultCampaignJson(RunFaultCampaign(cfg));
  EXPECT_EQ(json1, json4);
  EXPECT_EQ(json4, json4_again);
  EXPECT_NE(json1.find("\"seed\": 7"), std::string::npos);
}

TEST(FaultCampaignTest, MidInferenceTriggerAndStuckAtFaultsClassifyCleanly) {
  FaultCampaignConfig cfg = SmallCampaign();
  cfg.trials_per_encoding = 12;
  cfg.trigger = FaultTrigger::kMidInference;
  cfg.fault_model = FaultModel::kStuckAtOne;
  cfg.encodings = {EncodingKind::kCsc, EncodingKind::kDelta};
  const FaultCampaignResult result = RunFaultCampaign(cfg);
  ASSERT_EQ(result.encodings.size(), 2u);
  EXPECT_EQ(result.totals.trials, 24u);
  EXPECT_EQ(result.totals.correct + result.totals.sdc + result.totals.detected +
                result.totals.budget_exceeded + result.totals.deadline_exceeded +
                result.totals.dual_run_caught,
            result.totals.trials);
  EXPECT_EQ(result.totals.unrecovered, 0u);
}

TEST(FaultCampaignTest, DualRunConvertsSramSdcIntoDetectedAndRecovers) {
  // Mid-inference SRAM faults with redundant execution: every wrong output stems from
  // state the second (pristine-RAM) run does not share, so nothing can stay silent —
  // former SDC classifies as dual_run_caught and the ladder recovers it. (Pre-inference
  // SRAM faults are mostly masked: the inference rewrites its buffers before reading.)
  FaultCampaignConfig cfg = SmallCampaign();
  cfg.trials_per_encoding = 48;
  cfg.trigger = FaultTrigger::kMidInference;
  cfg.regions = {CampaignRegion::kSram};
  cfg.encodings = {EncodingKind::kCsc, EncodingKind::kUnrolled};
  cfg.policy.dual_run = true;
  const FaultCampaignResult result = RunFaultCampaign(cfg);
  EXPECT_EQ(result.totals.sdc, 0u);
  EXPECT_GT(result.totals.dual_run_caught, 0u);
  EXPECT_EQ(result.totals.unrecovered, 0u);

  // The same campaign without dual-run leaves a nonzero silent-corruption rate — the
  // measured improvement the redundancy pays for.
  cfg.policy.dual_run = false;
  const FaultCampaignResult baseline = RunFaultCampaign(cfg);
  EXPECT_GT(baseline.totals.sdc, 0u);
}

TEST(FaultCampaignTest, FullLadderJsonIsByteIdenticalAcrossThreadCounts) {
  // The thread-invariance contract must survive the complete ladder: watchdog, dual-run,
  // and the redeploy rung (which swaps deployments mid-chunk) all enabled at once.
  GlobalThreadsGuard guard;
  FaultCampaignConfig cfg = SmallCampaign();
  cfg.trigger = FaultTrigger::kMidInference;
  cfg.policy.dual_run = true;
  cfg.encodings = {EncodingKind::kCsc, EncodingKind::kBlock, EncodingKind::kUnrolled};
  ThreadPool::SetGlobalThreads(1);
  const std::string json1 = FaultCampaignJson(RunFaultCampaign(cfg));
  ThreadPool::SetGlobalThreads(4);
  const std::string json4 = FaultCampaignJson(RunFaultCampaign(cfg));
  EXPECT_EQ(json1, json4);
  EXPECT_NE(json1.find("\"dual_run\": true"), std::string::npos);
  EXPECT_NE(json1.find("mean_detect_latency_cycles"), std::string::npos);
}

TEST(FaultCampaignTest, JsonDigestsArePinned) {
  // Reports of the default campaign (seed 11, 20 trials x 5 encodings) pinned by CRC-32.
  // The digests were taken when mid-inference strikes still came from a step-interpreter
  // CpuProbe and every flash change dropped the whole decode cache; running trials on the
  // block path with the instruction alarm and range-precise invalidation must not move a
  // single byte of any report.
  struct Case {
    FaultTrigger trigger;
    bool dual_run;
    uint32_t crc;
  };
  const Case cases[] = {
      {FaultTrigger::kPreInference, false, 0x5f78777au},
      {FaultTrigger::kPreInference, true, 0xa1fd6ca3u},
      {FaultTrigger::kMidInference, false, 0x42ee6393u},
      {FaultTrigger::kMidInference, true, 0xae01010cu},
  };
  for (const Case& c : cases) {
    FaultCampaignConfig cfg;
    cfg.seed = 11;
    cfg.trials_per_encoding = 20;
    cfg.trigger = c.trigger;
    cfg.policy.dual_run = c.dual_run;
    const std::string json = FaultCampaignJson(RunFaultCampaign(cfg));
    EXPECT_EQ(Crc32(std::span<const uint8_t>(
                  reinterpret_cast<const uint8_t*>(json.data()), json.size())),
              c.crc)
        << "trigger=" << FaultTriggerName(c.trigger) << " dual_run=" << c.dual_run;
  }
}

TEST(FaultCampaignTest, RecoveryReportOnCleanDeploymentDoesNotFault) {
  NeuroCModel model = TinyModel(5);
  DeployedModel deployed = DeployedModel::Deploy(model);
  std::vector<int8_t> input(32, 3);
  RecoveryReport rec = deployed.PredictWithRecovery(input);
  EXPECT_FALSE(rec.faulted);
  EXPECT_TRUE(rec.corrupted_sections.empty());
  std::vector<int8_t> host;
  model.Forward(input, host);
  EXPECT_EQ(deployed.LastOutput(), host);
  EXPECT_EQ(rec.prediction,
            static_cast<int>(std::max_element(host.begin(), host.end()) - host.begin()));
}

}  // namespace
}  // namespace neuroc
