// Machine snapshot/restore: capturing the full architectural state (CPU registers,
// flags, counters, flash, SRAM, memory stats, heatmaps) must be bit-exact on resume
// across all three decode paths and all five weight encodings, and the
// snapshot-based DeployedModel::Scrub must leave a fault-stricken machine byte-identical
// to its fresh deployment — registers and counters included.

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "src/core/synthetic.h"
#include "src/runtime/deployed_model.h"
#include "src/sim/fault_injector.h"
#include "src/sim/machine.h"
#include "tests/test_util.h"

namespace neuroc {
namespace {

// The three decode paths; block is the deploy default.
enum class Path { kLegacy, kCached, kBlock };
constexpr Path kAllPaths[] = {Path::kLegacy, Path::kCached, Path::kBlock};

void ConfigurePath(Cpu& cpu, Path path) {
  switch (path) {
    case Path::kLegacy: cpu.EnableDecodeCache(false); break;
    case Path::kCached: cpu.EnableBlockCompile(false); break;
    case Path::kBlock: break;
  }
}

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
  uint64_t replay_cycles[3] = {};
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
  EXPECT_EQ(replay_cycles[0], replay_cycles[2]);
}

// The cheap fork path: kRamAndRegisters skips the flash rewrite but must still replay
// identically as long as flash was not touched — the contract search-trial forking and
// the snapshot-retry recovery rung rely on.
TEST_P(SnapshotTest, RamAndRegistersScopeReplaysWhenFlashIsPristine) {
  DeployedModel dm = DeployedModel::Deploy(SmallModel(12, GetParam()));
  Rng rng(4);
  const std::vector<int8_t> input = MakeRandomInput(dm.input_dim(), rng);

  const MachineSnapshot snap = dm.machine().Snapshot();
  const int first = dm.Predict(input);
  const MachineSnapshot after_first = dm.machine().Snapshot();

  for (int fork = 0; fork < 3; ++fork) {
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

INSTANTIATE_TEST_SUITE_P(AllEncodings, SnapshotTest,
                         ::testing::ValuesIn(kAllEncodingKinds));

}  // namespace
}  // namespace neuroc
