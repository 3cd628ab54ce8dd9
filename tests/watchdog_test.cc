// Watchdog supervisor: runaway guest execution must be stopped with a structured
// kDeadlineExceeded fault — distinguishable from guest faults, with PC provenance — at
// exactly the same retired instruction on every decode path, including when the cycle
// budget lands inside or exactly on a compiled-block boundary. The recovery ladder must
// then bring a watchdog-stricken deployment back to correct predictions, skipping the
// RAM-only snapshot rung exactly when the CRCs already blame flash.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "src/core/synthetic.h"
#include "src/isa/assembler.h"
#include "src/obs/registry.h"
#include "src/runtime/deployed_model.h"
#include "src/runtime/recovery.h"
#include "src/sim/fault_injector.h"
#include "src/sim/machine.h"
#include "tests/test_util.h"

namespace neuroc {
namespace {

constexpr uint32_t kFlash = 0x08000000;

using testutil::ConfigurePath;
using testutil::kAllPaths;
using testutil::Path;

NeuroCModel SmallModel(uint64_t seed, EncodingKind kind = EncodingKind::kBlock) {
  testutil::TestModelSpec spec;
  spec.dims = {48, 20, 10};
  spec.density = 0.2;
  spec.encoding = kind;
  return testutil::MakeTestModel(seed, spec);
}

uint64_t RecoveryCount(const char* name) {
  return MetricsRegistry::Global().GetCounter(name).value();
}

// CpuProbe that remembers the first retired instruction address — a guaranteed-hot
// kernel address to patch an infinite loop over.
struct FirstPcProbe : CpuProbe {
  void OnRetire(uint32_t addr, Op, uint32_t) override {
    if (first == 0) first = addr;
  }
  uint32_t first = 0;
};

TEST(WatchdogTest, ArmedWatchdogIsInvisibleOnTheFaultFreePath) {
  DeployedModel plain = DeployedModel::Deploy(SmallModel(31));
  DeployedModel armed = DeployedModel::Deploy(SmallModel(31));
  ASSERT_TRUE(armed.ArmWatchdog(8.0).ok());
  EXPECT_GT(armed.watchdog_budget(), 0u);

  Rng rng(2);
  for (int rep = 0; rep < 3; ++rep) {
    const std::vector<int8_t> input = MakeRandomInput(plain.input_dim(), rng);
    EXPECT_EQ(plain.Predict(input), armed.Predict(input));
    EXPECT_EQ(plain.report().cycles_per_inference, armed.report().cycles_per_inference);
    EXPECT_EQ(plain.LastOutput(), armed.LastOutput());
  }
  // Identical simulated state after identical work: the supervisor costs zero cycles.
  EXPECT_EQ(plain.machine().cpu().cycles(), armed.machine().cpu().cycles());
  EXPECT_EQ(plain.machine().cpu().instructions(), armed.machine().cpu().instructions());
}

TEST(WatchdogTest, InfiniteLoopIsCaughtClassifiedAndRecovered) {
  DeployedModel dm = DeployedModel::Deploy(SmallModel(32));
  ASSERT_TRUE(dm.ArmWatchdog(8.0).ok());

  Rng rng(3);
  const std::vector<int8_t> input = MakeRandomInput(dm.input_dim(), rng);
  const int golden = dm.Predict(input);
  dm.Scrub();

  // Find a kernel address on the execution path, then patch `b .` (0xE7FE) over it —
  // the canonical seized-firmware failure a hardware watchdog exists for.
  FirstPcProbe probe;
  dm.machine().cpu().set_probe(&probe);
  dm.Predict(input);
  dm.machine().cpu().set_probe(nullptr);
  ASSERT_NE(probe.first, 0u);
  dm.Scrub();
  const uint8_t spin[2] = {0xFE, 0xE7};
  dm.machine().memory().HostWrite(probe.first, spin);

  StatusOr<int> pred = dm.TryPredict(input);
  ASSERT_FALSE(pred.ok());
  EXPECT_EQ(pred.status().code(), ErrorCode::kDeadlineExceeded);
  ASSERT_NE(pred.status().fault(), nullptr);
  const FaultReport& fault = *pred.status().fault();
  EXPECT_EQ(fault.code, ErrorCode::kDeadlineExceeded);
  EXPECT_EQ(fault.pc, probe.first);  // PC provenance: stuck exactly on the patched spin
  EXPECT_GT(fault.cycles, 0u);

  // Scrub restores pristine flash; the supervised deployment predicts correctly again.
  dm.Scrub();
  StatusOr<int> retry = dm.TryPredict(input);
  ASSERT_TRUE(retry.ok());
  EXPECT_EQ(*retry, golden);
}

TEST(WatchdogTest, RecoveryLadderResolvesWatchdogFaultViaScrubRung) {
  RecoveryPolicy policy;  // defaults: full ladder, watchdog armed
  StatusOr<GuardedModel> guarded =
      GuardedModel::Create(SmallModel(33), MachineConfig{}, policy);
  ASSERT_TRUE(guarded.ok());
  GuardedModel& gm = *guarded;

  Rng rng(4);
  const std::vector<int8_t> input = MakeRandomInput(gm.deployed().input_dim(), rng);
  const GuardedResult clean = gm.Predict(input);
  ASSERT_TRUE(clean.ok);
  ASSERT_EQ(clean.resolved_by, RecoveryRung::kNone);

  FirstPcProbe probe;
  gm.deployed().machine().cpu().set_probe(&probe);
  gm.deployed().Predict(input);
  gm.deployed().machine().cpu().set_probe(nullptr);
  gm.deployed().Scrub();
  const uint8_t spin[2] = {0xFE, 0xE7};
  gm.deployed().machine().memory().HostWrite(probe.first, spin);

  const uint64_t snapshot_retries = RecoveryCount("recovery.snapshot_retry");
  const uint64_t scrub_retries = RecoveryCount("recovery.scrub_retry");
  const GuardedResult gr = gm.Predict(input);
  EXPECT_TRUE(gr.ok);
  EXPECT_EQ(gr.prediction, clean.prediction);
  EXPECT_TRUE(gr.faulted);
  EXPECT_EQ(gr.first_fault.code, ErrorCode::kDeadlineExceeded);
  EXPECT_EQ(gr.corrupted_sections, std::vector<std::string>{"kernel_code"});
  // Flash damage: the RAM-only snapshot rung cannot fix it, so with the CRCs already
  // naming kernel_code it is skipped and the scrub rung's retry is the only one.
  EXPECT_EQ(gr.resolved_by, RecoveryRung::kScrubRetry);
  EXPECT_GT(gr.detection_cycles, 0u);
  EXPECT_EQ(gr.retries, 1);
  EXPECT_EQ(RecoveryCount("recovery.snapshot_retry"), snapshot_retries);
  EXPECT_EQ(RecoveryCount("recovery.scrub_retry"), scrub_retries + 1);
}

// The other half of the rule: an SRAM-only upset leaves the CRCs clean, so the RAM-only
// rung still runs and is the one that resolves it. Dual-run turns the strikes that change
// the output into detections; every detected one must resolve at kSnapshotRetry.
TEST(WatchdogTest, SramOnlyCorruptionResolvesAtSnapshotRung) {
  RecoveryPolicy policy;
  policy.dual_run = true;
  StatusOr<GuardedModel> guarded =
      GuardedModel::Create(SmallModel(34), MachineConfig{}, policy);
  ASSERT_TRUE(guarded.ok());
  GuardedModel& gm = *guarded;
  DeployedModel& dm = gm.deployed();

  Rng rng(5);
  const std::vector<int8_t> input = MakeRandomInput(dm.input_dim(), rng);
  const uint64_t before = dm.machine().cpu().instructions();
  const int golden = dm.Predict(input);
  const uint64_t instructions = dm.machine().cpu().instructions() - before;

  int detected = 0;
  for (uint64_t k = 0; k < 32; ++k) {
    dm.Scrub();
    TriggeredInjector injector(1 + k * instructions / 32, dm.machine().config().ram_base,
                               dm.image().ram_bytes_used, FaultModel::kMultiBitFlip, 4,
                               Rng(100 + k));
    injector.Arm(dm.machine().cpu());
    const uint64_t snapshot_retries = RecoveryCount("recovery.snapshot_retry");
    const uint64_t scrub_retries = RecoveryCount("recovery.scrub_retry");
    const GuardedResult gr = gm.Predict(input);
    dm.machine().cpu().ClearInstructionAlarm();
    ASSERT_TRUE(injector.fired());
    if (!gr.faulted && !gr.sdc_detected) {
      continue;
    }
    ++detected;
    SCOPED_TRACE("strike " + std::to_string(k));
    EXPECT_TRUE(gr.corrupted_sections.empty());
    EXPECT_TRUE(gr.ok);
    EXPECT_EQ(gr.prediction, golden);
    EXPECT_EQ(gr.resolved_by, RecoveryRung::kSnapshotRetry);
    EXPECT_EQ(gr.retries, 1);
    EXPECT_EQ(RecoveryCount("recovery.snapshot_retry"), snapshot_retries + 1);
    EXPECT_EQ(RecoveryCount("recovery.scrub_retry"), scrub_retries);
  }
  EXPECT_GT(detected, 0);
}

// The budget boundary sweep: a compiled spin block whose cost would cross the deadline
// must fall back to stepping and fault on exactly the same retired instruction as the
// interpreter — for every consecutive budget value around multiple block periods,
// including budgets landing exactly on a block boundary.
TEST(WatchdogTest, DeadlineFiresIdenticallyAcrossPathsForEveryBudget) {
  const std::string spin =
      "loop:\n"
      "  adds r0, r0, #1\n"
      "  adds r1, r1, #1\n"
      "  adds r2, r2, #1\n"
      "  b loop\n";
  const AssembledProgram program = Assemble(spin, kFlash);

  struct Outcome {
    ErrorCode code;
    uint64_t cycles;
    uint64_t instructions;
    uint32_t pc;
  };
  for (uint64_t budget = 1; budget <= 64; ++budget) {
    Outcome outcomes[std::size(kAllPaths)];
    int i = 0;
    for (const Path path : kAllPaths) {
      Machine m;
      ConfigurePath(m.cpu(), path);
      m.LoadBytes(kFlash, program.bytes);
      const StatusOr<uint64_t> r = m.TryCallFunction(kFlash, {}, budget);
      ASSERT_FALSE(r.ok());
      const FaultReport& f = m.last_fault();
      outcomes[i++] = {f.code, f.cycles, f.instructions, f.pc};
    }
    for (size_t p = 1; p < std::size(kAllPaths); ++p) {
      EXPECT_EQ(outcomes[0].code, outcomes[p].code) << "budget=" << budget;
      EXPECT_EQ(outcomes[0].cycles, outcomes[p].cycles) << "budget=" << budget;
      EXPECT_EQ(outcomes[0].instructions, outcomes[p].instructions)
          << "budget=" << budget;
      EXPECT_EQ(outcomes[0].pc, outcomes[p].pc) << "budget=" << budget;
    }
    EXPECT_EQ(outcomes[0].code, ErrorCode::kDeadlineExceeded);
    // The deadline is a strict bound: the guest never runs past budget by more than the
    // cost of the instruction that crossed it.
    EXPECT_GT(outcomes[0].cycles, budget);
  }
}

// A generous budget must not perturb a terminating call in any way.
TEST(WatchdogTest, GenerousBudgetIsObservationallyFree) {
  const std::string count =
      "movs r0, #0\n"
      "movs r1, #50\n"
      "loop:\n"
      "  adds r0, r0, #1\n"
      "  subs r1, r1, #1\n"
      "  bne loop\n"
      "bx lr\n";
  const AssembledProgram program = Assemble(count, kFlash);
  for (const Path path : kAllPaths) {
    Machine plain, budgeted;
    ConfigurePath(plain.cpu(), path);
    ConfigurePath(budgeted.cpu(), path);
    plain.LoadBytes(kFlash, program.bytes);
    budgeted.LoadBytes(kFlash, program.bytes);
    const StatusOr<uint64_t> a = plain.TryCallFunction(kFlash, {});
    const StatusOr<uint64_t> b = budgeted.TryCallFunction(kFlash, {}, 1u << 20);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    EXPECT_EQ(*a, *b);
    EXPECT_EQ(plain.ReturnValue(), budgeted.ReturnValue());
    EXPECT_EQ(plain.cpu().instructions(), budgeted.cpu().instructions());
  }
}

}  // namespace
}  // namespace neuroc
