// Machine snapshot/restore: capturing the full architectural state (CPU registers,
// flags, counters, flash, SRAM, memory stats, heatmaps) must be bit-exact on resume
// on both decode paths and all five weight encodings, and the
// snapshot-based DeployedModel::Scrub must leave a fault-stricken machine byte-identical
// to its fresh deployment — registers and counters included. GuardedModel::Fork, which
// starts a fresh machine from the pristine snapshot, must be indistinguishable from a
// fresh Create and share no machine state with its source or its siblings.

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "src/core/synthetic.h"
#include "src/runtime/deployed_model.h"
#include "src/runtime/recovery.h"
#include "src/sim/fault_injector.h"
#include "src/sim/machine.h"
#include "tests/test_util.h"

namespace neuroc {
namespace {

using testutil::ConfigurePath;
using testutil::kAllPaths;
using testutil::Path;

NeuroCModel SmallModel(uint64_t seed, EncodingKind kind) {
  testutil::TestModelSpec spec;
  spec.dims = {48, 20, 10};
  spec.density = 0.2;
  spec.encoding = kind;
  return testutil::MakeTestModel(seed, spec);
}

using testutil::ExpectSnapshotsEqual;

class SnapshotTest : public ::testing::TestWithParam<EncodingKind> {};

// Snapshot mid-history, run an inference, restore, run the same inference again: every
// architectural quantity — including cycle counters and heatmaps — must replay exactly,
// on each decode path. The replayed cycle count must also agree across paths.
TEST_P(SnapshotTest, RestoreReplaysInferenceBitIdenticallyOnEveryPath) {
  const EncodingKind kind = GetParam();
  uint64_t replay_cycles[std::size(kAllPaths)] = {};
  int path_index = 0;
  for (const Path path : kAllPaths) {
    DeployedModel dm = DeployedModel::Deploy(SmallModel(11, kind));
    ConfigurePath(dm.machine().cpu(), path);
    dm.machine().memory().EnableHeatmap(64);

    Rng rng(3);
    const std::vector<int8_t> warm = MakeRandomInput(dm.input_dim(), rng);
    const std::vector<int8_t> input = MakeRandomInput(dm.input_dim(), rng);
    dm.Predict(warm);  // non-trivial history before the capture

    const MachineSnapshot snap = dm.machine().Snapshot();
    const int first = dm.Predict(input);
    const std::vector<int8_t> out_first = dm.LastOutput();
    const MachineSnapshot after_first = dm.machine().Snapshot();

    dm.machine().Restore(snap);
    ExpectSnapshotsEqual(snap, dm.machine().Snapshot());  // restore is itself exact

    const int second = dm.Predict(input);
    EXPECT_EQ(first, second);
    EXPECT_EQ(out_first, dm.LastOutput());
    ExpectSnapshotsEqual(after_first, dm.machine().Snapshot());

    replay_cycles[path_index++] = after_first.cpu.cycles;
  }
  EXPECT_EQ(replay_cycles[0], replay_cycles[1]);
}

// The cheap retry path: kRamAndRegisters skips the flash rewrite but must still replay
// identically as long as flash was not touched — the contract dual-run's second pass and
// the snapshot-retry recovery rung rely on.
TEST_P(SnapshotTest, RamAndRegistersScopeReplaysWhenFlashIsPristine) {
  DeployedModel dm = DeployedModel::Deploy(SmallModel(12, GetParam()));
  Rng rng(4);
  const std::vector<int8_t> input = MakeRandomInput(dm.input_dim(), rng);

  const MachineSnapshot snap = dm.machine().Snapshot();
  const int first = dm.Predict(input);
  const MachineSnapshot after_first = dm.machine().Snapshot();

  for (int replay = 0; replay < 3; ++replay) {
    dm.machine().Restore(snap, RestoreScope::kRamAndRegisters);
    EXPECT_EQ(first, dm.Predict(input));
    ExpectSnapshotsEqual(after_first, dm.machine().Snapshot());
  }
}

// Scrub after a mid-inference SRAM strike: the machine must come back byte-identical to
// the deploy-time pristine snapshot — not just the memory image, but the registers and
// cycle/instruction counters the old ad-hoc rewrite scrub left dirty.
TEST_P(SnapshotTest, ScrubAfterMidInferenceSramFaultRestoresPristineExactly) {
  const EncodingKind kind = GetParam();
  DeployedModel dm = DeployedModel::Deploy(SmallModel(13, kind));
  const MachineSnapshot& pristine = dm.pristine_snapshot();

  Rng rng(5);
  const std::vector<int8_t> input = MakeRandomInput(dm.input_dim(), rng);
  // Strike activation SRAM a few hundred instructions into the inference. Whether the
  // corrupted value ends up masked, silently wrong or faulting is irrelevant here — only
  // the post-scrub state matters.
  TriggeredInjector injector(/*trigger_instructions=*/300, dm.machine().config().ram_base,
                             dm.machine().config().ram_size, FaultModel::kSingleBitFlip,
                             1, Rng(99));
  injector.Arm(dm.machine().cpu());
  (void)dm.TryPredict(input);
  dm.machine().cpu().ClearInstructionAlarm();
  EXPECT_TRUE(injector.fired());

  dm.Scrub();
  ExpectSnapshotsEqual(pristine, dm.machine().Snapshot());
  // And the scrubbed machine behaves like a fresh deployment.
  DeployedModel fresh = DeployedModel::Deploy(SmallModel(13, kind));
  EXPECT_EQ(dm.Predict(input), fresh.Predict(input));
  EXPECT_EQ(dm.report().cycles_per_inference, fresh.report().cycles_per_inference);
}

// Same guarantee when the strike corrupts flash (kernel code or image): Scrub's full
// restore rewrites flash from the snapshot and invalidates the derived caches.
TEST_P(SnapshotTest, ScrubAfterFlashCorruptionRestoresPristineExactly) {
  DeployedModel dm = DeployedModel::Deploy(SmallModel(14, GetParam()));
  const MachineSnapshot& pristine = dm.pristine_snapshot();

  Rng rng(6);
  const std::vector<int8_t> input = MakeRandomInput(dm.input_dim(), rng);
  Rng inject_rng(7);
  InjectFault(dm.machine().memory(), dm.image_base(),
              static_cast<uint32_t>(dm.image().flash.size()),
              FaultModel::kSingleBitFlip, 1, inject_rng);
  EXPECT_FALSE(dm.CorruptedSections().empty());
  (void)dm.TryPredict(input);

  dm.Scrub();
  EXPECT_TRUE(dm.CorruptedSections().empty());
  ExpectSnapshotsEqual(pristine, dm.machine().Snapshot());
}

// A fork is a fresh Create without the rebuild: same machine state, report, watchdog
// budget, and the same predictions and cycles, one input at a time and in batches.
TEST_P(SnapshotTest, GuardedForkMatchesFreshCreate) {
  MachineConfig config;
  config.max_instructions = 1'000'000;  // a campaign-style per-trial budget
  RecoveryPolicy policy;
  policy.watchdog_headroom = 4.0;
  StatusOr<GuardedModel> prototype = GuardedModel::Create(SmallModel(15, GetParam()),
                                                          config, policy);
  StatusOr<GuardedModel> fresh = GuardedModel::Create(SmallModel(15, GetParam()),
                                                      config, policy);
  ASSERT_TRUE(prototype.ok());
  ASSERT_TRUE(fresh.ok());
  GuardedModel fork = prototype->Fork();
  EXPECT_EQ(&fork.model(), &prototype->model());  // shared, not re-encoded
  EXPECT_EQ(fork.active_encoding(), GetParam());
  EXPECT_EQ(fork.deployed().machine().config().max_instructions, config.max_instructions);

  const MachineSnapshot want = fresh->deployed().machine().Snapshot();
  const MachineSnapshot got = fork.deployed().machine().Snapshot();
  ExpectSnapshotsEqual(got, want);
  EXPECT_EQ(got.memory.stack_watch, want.memory.stack_watch);
  EXPECT_EQ(got.memory.stack_floor, want.memory.stack_floor);
  EXPECT_EQ(got.memory.stack_low_water, want.memory.stack_low_water);
  testutil::ExpectFaultsEqual(got.last_fault, want.last_fault);

  const DeploymentReport& fr = fork.deployed().report();
  const DeploymentReport& wr = fresh->deployed().report();
  EXPECT_EQ(fr.code_bytes, wr.code_bytes);
  EXPECT_EQ(fr.image_bytes, wr.image_bytes);
  EXPECT_EQ(fr.program_bytes, wr.program_bytes);
  EXPECT_EQ(fr.ram_bytes, wr.ram_bytes);
  EXPECT_EQ(fr.cycles_per_inference, wr.cycles_per_inference);
  EXPECT_EQ(fr.latency_ms, wr.latency_ms);
  EXPECT_EQ(fr.layer_cycles, wr.layer_cycles);
  EXPECT_EQ(fork.deployed().watchdog_budget(), fresh->deployed().watchdog_budget());
  EXPECT_GT(fork.deployed().watchdog_budget(), 0u);

  Rng rng(8);
  std::vector<std::vector<int8_t>> inputs;
  for (int i = 0; i < 16; ++i) {
    inputs.push_back(MakeRandomInput(fork.deployed().input_dim(), rng));
  }
  for (const std::vector<int8_t>& input : inputs) {
    const GuardedResult a = fork.Predict(input);
    const GuardedResult b = fresh->Predict(input);
    ASSERT_TRUE(a.ok);
    EXPECT_EQ(a.prediction, b.prediction);
    EXPECT_EQ(a.resolved_by, RecoveryRung::kNone);
    EXPECT_EQ(fork.deployed().report().cycles_per_inference,
              fresh->deployed().report().cycles_per_inference);
  }
  std::vector<uint64_t> fork_cycles;
  std::vector<uint64_t> fresh_cycles;
  const std::vector<GuardedResult> fork_batch = fork.PredictBatch(inputs, &fork_cycles);
  const std::vector<GuardedResult> fresh_batch = fresh->PredictBatch(inputs, &fresh_cycles);
  ASSERT_EQ(fork_batch.size(), fresh_batch.size());
  for (size_t i = 0; i < fork_batch.size(); ++i) {
    EXPECT_TRUE(fork_batch[i].ok);
    EXPECT_EQ(fork_batch[i].prediction, fresh_batch[i].prediction) << "input " << i;
  }
  EXPECT_EQ(fork_cycles, fresh_cycles);
  ExpectSnapshotsEqual(fork.deployed().machine().Snapshot(),
                       fresh->deployed().machine().Snapshot());
}

// Forks own their machines: a flash strike in one leaves the prototype and a sibling
// intact, and the sibling still predicts like the prototype.
TEST_P(SnapshotTest, GuardedForksAreIndependent) {
  StatusOr<GuardedModel> prototype = GuardedModel::Create(SmallModel(16, GetParam()));
  ASSERT_TRUE(prototype.ok());
  GuardedModel struck = prototype->Fork();
  GuardedModel sibling = prototype->Fork();

  DeployedModel& dm = struck.deployed();
  Rng inject_rng(9);
  const InjectedFault f = InjectFault(dm.machine().memory(), dm.image_base(),
                                      static_cast<uint32_t>(dm.image().flash.size()),
                                      FaultModel::kSingleBitFlip, 1, inject_rng);
  ASSERT_TRUE(f.changed());
  EXPECT_FALSE(dm.CorruptedSections().empty());
  EXPECT_TRUE(prototype->deployed().CorruptedSections().empty());
  EXPECT_TRUE(sibling.deployed().CorruptedSections().empty());

  Rng rng(10);
  const std::vector<int8_t> input = MakeRandomInput(sibling.deployed().input_dim(), rng);
  const GuardedResult a = sibling.Predict(input);
  const GuardedResult b = prototype->Predict(input);
  ASSERT_TRUE(a.ok);
  EXPECT_EQ(a.resolved_by, RecoveryRung::kNone);
  EXPECT_EQ(a.prediction, b.prediction);
}

INSTANTIATE_TEST_SUITE_P(AllEncodings, SnapshotTest,
                         ::testing::ValuesIn(kAllEncodingKinds));

// Only a model on its primary encoding forks: once the kRedeploy rung has swapped in a
// fallback encoding, Fork is a checked error rather than a silent copy of the fallback.
TEST(GuardedForkDeathTest, ForkOnFallbackEncodingIsChecked) {
  RecoveryPolicy policy;
  policy.snapshot_retry = false;
  policy.scrub_retry = false;  // leave only the redeploy rung
  StatusOr<GuardedModel> guarded =
      GuardedModel::Create(SmallModel(17, EncodingKind::kBlock), MachineConfig{}, policy);
  ASSERT_TRUE(guarded.ok());
  GuardedModel& gm = *guarded;
  // 0xDE fill decodes as UDF: every kernel entry now faults.
  const AssembledProgram& code = gm.deployed().kernel_program();
  const std::vector<uint8_t> junk(code.bytes.size(), 0xDE);
  gm.deployed().machine().memory().HostWrite(code.base_addr, junk);

  Rng rng(11);
  const GuardedResult gr = gm.Predict(MakeRandomInput(gm.deployed().input_dim(), rng));
  ASSERT_TRUE(gr.ok);
  ASSERT_EQ(gr.resolved_by, RecoveryRung::kRedeploy);
  ASSERT_NE(gm.active_encoding(), gm.primary_encoding());
  EXPECT_DEATH((void)gm.Fork(), "fallback encoding");
}

}  // namespace
}  // namespace neuroc
