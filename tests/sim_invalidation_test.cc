// Range-precise cache invalidation: a host write or restore re-decodes only the flash
// slots it changed (one slot back for a BL pair) and retires only the compiled blocks over
// them. That must stay invisible — block-mode and cached-mode state bit-identical to the
// legacy path that re-reads flash every step — whatever the write hits: compiled code,
// the second halfword of a BL pair, literal or weight bytes, or SRAM. Restores that change
// nothing must keep the caches, and the block table must not grow with invalidations.

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "src/runtime/deployed_model.h"
#include "src/sim/fault_injector.h"
#include "src/sim/machine.h"
#include "tests/test_util.h"

namespace neuroc {
namespace {

using testutil::ExpectFaultsEqual;
using testutil::ExpectSnapshotsEqual;

enum class Path { kLegacy, kCached, kBlock };
constexpr Path kAllPaths[] = {Path::kLegacy, Path::kCached, Path::kBlock};

void ConfigurePath(Cpu& cpu, Path path) {
  switch (path) {
    case Path::kLegacy: cpu.EnableDecodeCache(false); break;
    case Path::kCached: cpu.EnableBlockCompile(false); break;
    case Path::kBlock: break;
  }
}

NeuroCModel Model(EncodingKind kind, std::vector<size_t> dims) {
  testutil::TestModelSpec spec;
  spec.dims = std::move(dims);
  spec.density = 0.25;
  spec.encoding = kind;
  return testutil::MakeTestModel(29, spec);
}

DeployedModel DeployWatched(EncodingKind kind, std::vector<size_t> dims) {
  StatusOr<DeployedModel> dm = DeployedModel::TryDeploy(Model(kind, std::move(dims)));
  EXPECT_TRUE(dm.ok());
  // Corrupted code may spin: the watchdog stops it at twice the golden cycle count.
  EXPECT_TRUE(dm->ArmWatchdog(2.0).ok());
  return std::move(*dm);
}

// Address of the second halfword of every BL pair in the kernel code.
std::vector<uint32_t> BlSecondHalves(const DeployedModel& dm) {
  const AssembledProgram& p = dm.kernel_program();
  std::vector<uint32_t> out;
  for (size_t i = 0; i + 3 < p.bytes.size(); i += 2) {
    const uint16_t hw1 = static_cast<uint16_t>(p.bytes[i] | (p.bytes[i + 1] << 8));
    const uint16_t hw2 = static_cast<uint16_t>(p.bytes[i + 2] | (p.bytes[i + 3] << 8));
    if ((hw1 & 0xF800) == 0xF000 && (hw2 & 0xD000) == 0xD000) {
      out.push_back(p.base_addr + static_cast<uint32_t>(i) + 2);
      i += 2;
    }
  }
  return out;
}

struct RunState {
  bool ok = false;
  std::vector<int8_t> output;
  FaultReport fault;
  MachineSnapshot state;
};

RunState RunOnce(DeployedModel& dm, const std::vector<int8_t>& input) {
  RunState r;
  r.ok = dm.TryPredict(input).ok();
  r.output = dm.LastOutput();
  r.fault = dm.machine().last_fault();
  r.state = dm.machine().Snapshot();
  return r;
}

void ExpectSameRun(const RunState& got, const RunState& want) {
  EXPECT_EQ(got.ok, want.ok);
  EXPECT_EQ(got.output, want.output);
  ExpectFaultsEqual(got.fault, want.fault);
  ExpectSnapshotsEqual(got.state, want.state);
}

class PreciseInvalidationTest : public ::testing::TestWithParam<EncodingKind> {};

// The same random host writes land on a legacy, a cached and a block-compiled machine,
// each followed by an inference (and now and then a scrub, whose restore undoes exactly
// the bytes that differ): every run must agree bit for bit with the legacy decode.
TEST_P(PreciseInvalidationTest, RandomHostWritesMatchLegacyDecode) {
  const EncodingKind kind = GetParam();
  std::vector<DeployedModel> machines;
  for (const Path path : kAllPaths) {
    machines.push_back(DeployWatched(kind, {48, 20, 10}));
    ConfigurePath(machines.back().machine().cpu(), path);
    machines.back().machine().memory().EnableHeatmap(64);
  }
  const DeployedModel& ref = machines[0];
  const uint32_t code_base = ref.kernel_program().base_addr;
  const uint32_t code_size = static_cast<uint32_t>(ref.kernel_program().bytes.size());
  const uint32_t image_size = static_cast<uint32_t>(ref.image().flash.size());
  const uint32_t ram_base = ref.machine().config().ram_base;
  const uint32_t ram_used = static_cast<uint32_t>(ref.image().ram_bytes_used);
  const std::vector<uint32_t> bl_halves = BlSecondHalves(ref);

  Rng rng(static_cast<uint64_t>(kind) + 41);
  const std::vector<int8_t> input = MakeRandomInput(ref.input_dim(), rng);
  for (DeployedModel& dm : machines) {
    ASSERT_TRUE(dm.TryPredict(input).ok());  // warm: every block of a clean run compiled
  }

  for (int i = 0; i < 300; ++i) {
    uint32_t addr = 0;
    std::vector<uint8_t> bytes(1, static_cast<uint8_t>(rng.NextBounded(256)));
    switch (rng.NextBounded(4)) {
      case 0:  // compiled code, literal pools included
        addr = code_base + static_cast<uint32_t>(rng.NextBounded(code_size));
        break;
      case 1:  // a BL pair's second halfword: retarget the call, keep it a BL
        if (!bl_halves.empty()) {
          addr = bl_halves[rng.NextBounded(bl_halves.size())];
          uint8_t old[2];
          machines[0].machine().memory().HostRead(addr, old);
          const uint16_t hw2 = static_cast<uint16_t>((old[0] | (old[1] << 8)) ^
                                                     (1u << rng.NextBounded(11)));
          bytes = {static_cast<uint8_t>(hw2 & 0xFF), static_cast<uint8_t>(hw2 >> 8)};
          break;
        }
        [[fallthrough]];
      case 2:  // descriptors and weights
        addr = ref.image_base() + static_cast<uint32_t>(rng.NextBounded(image_size));
        break;
      default:  // activation SRAM
        addr = ram_base + static_cast<uint32_t>(rng.NextBounded(ram_used));
        break;
    }
    const bool scrub = rng.NextBounded(4) == 0;
    SCOPED_TRACE(::testing::Message() << EncodingKindName(kind) << " write " << i << " at 0x"
                                      << std::hex << addr << (scrub ? " + scrub" : ""));
    std::vector<RunState> runs;
    for (DeployedModel& dm : machines) {
      dm.machine().memory().HostWrite(addr, bytes);
      runs.push_back(RunOnce(dm, input));
      if (scrub) {
        dm.Scrub();
        dm.machine().memory().EnableHeatmap(64);
        runs.push_back(RunOnce(dm, input));
      }
    }
    const size_t per_machine = runs.size() / machines.size();
    for (size_t m = 1; m < machines.size(); ++m) {
      for (size_t r = 0; r < per_machine; ++r) {
        ExpectSameRun(runs[m * per_machine + r], runs[r]);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllEncodings, PreciseInvalidationTest,
                         ::testing::ValuesIn(kAllEncodingKinds));

// Scrubbing a machine whose flash is intact restores nothing in flash: the generation
// (and with it every predecoded slot and compiled block) survives. A one-byte upset and
// its undo are one change each.
TEST(PreciseInvalidationTest, RestoringAnUnchangedImageKeepsTheCaches) {
  DeployedModel dm = DeployWatched(EncodingKind::kDelta, {48, 20, 10});
  const std::vector<int8_t> input(dm.input_dim(), 3);
  MemoryMap& mem = dm.machine().memory();
  ASSERT_TRUE(dm.TryPredict(input).ok());
  const uint64_t gen = mem.flash_generation();
  const size_t blocks = dm.machine().cpu().block_table_size();
  ASSERT_GT(blocks, 0u);

  dm.Scrub();
  EXPECT_EQ(mem.flash_generation(), gen);
  ASSERT_TRUE(dm.TryPredict(input).ok());
  EXPECT_EQ(dm.machine().cpu().block_table_size(), blocks);

  Rng rng(3);
  const InjectedFault f = InjectFault(mem, dm.image_base(),
                                      static_cast<uint32_t>(dm.image().flash.size()),
                                      FaultModel::kSingleBitFlip, 1, rng);
  ASSERT_TRUE(f.changed());
  EXPECT_EQ(mem.flash_generation(), gen + 1);
  dm.Scrub();
  EXPECT_EQ(mem.flash_generation(), gen + 2);
  dm.Scrub();
  EXPECT_EQ(mem.flash_generation(), gen + 2);
  EXPECT_TRUE(dm.CorruptedSections().empty());
}

// Every inject/scrub cycle retires the blocks over the struck byte and recompiles them
// on the next run; retired entries are reused, so the block table never outgrows the
// decoded flash however many cycles run, and the machine still matches a fresh
// deployment at the end.
TEST(PreciseInvalidationTest, BlockTableStaysBoundedOverManyInjectScrubCycles) {
  DeployedModel dm = DeployWatched(EncodingKind::kUnrolled, {32, 12});
  const std::vector<int8_t> input(dm.input_dim(), 7);
  MemoryMap& mem = dm.machine().memory();
  const uint32_t code_base = dm.kernel_program().base_addr;
  const uint32_t code_size = static_cast<uint32_t>(dm.kernel_program().bytes.size());
  Rng rng(11);
  for (int cycle = 0; cycle < 10000; ++cycle) {
    InjectFault(mem, code_base, code_size, FaultModel::kSingleBitFlip, 1, rng);
    (void)dm.TryPredict(input);
    dm.Scrub();
  }
  EXPECT_LE(dm.machine().cpu().block_table_size(), mem.flash_high_water() / 2);

  DeployedModel fresh = DeployWatched(EncodingKind::kUnrolled, {32, 12});
  ASSERT_TRUE(dm.TryPredict(input).ok());
  ASSERT_TRUE(fresh.TryPredict(input).ok());
  EXPECT_EQ(dm.LastOutput(), fresh.LastOutput());
  EXPECT_EQ(dm.report().cycles_per_inference, fresh.report().cycles_per_inference);
  ExpectSnapshotsEqual(dm.machine().Snapshot(), fresh.machine().Snapshot());
}

}  // namespace
}  // namespace neuroc
