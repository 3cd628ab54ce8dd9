// Block-compiled execution: fusing straight-line basic blocks into one dispatch per block
// must be an invisible optimization, exactly like the predecode cache underneath it.
// Cycles, instruction counts, op histograms, memory statistics, heatmaps, fault reports
// and probe streams all have to be bit-identical across the three decode paths (legacy
// interpreter, predecode cache, block compilation), and attaching a CpuProbe mid-run must
// transparently fall back to the step interpreter with exact per-PC attribution.

#include <gtest/gtest.h>

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "src/core/encoding.h"
#include "src/core/synthetic.h"
#include "src/isa/assembler.h"
#include "src/obs/sim_profiler.h"
#include "src/runtime/deployed_model.h"
#include "src/sim/machine.h"
#include "tests/test_util.h"

namespace neuroc {
namespace {

constexpr uint32_t kFlash = 0x08000000;
constexpr uint32_t kRam = 0x20000000;

NeuroCModel MakeModel(uint64_t seed, EncodingKind kind) {
  Rng rng(seed);
  SyntheticNeuroCLayerSpec l0;
  l0.in_dim = 64;
  l0.out_dim = 24;
  l0.density = 0.2;
  l0.encoding = kind;
  SyntheticNeuroCLayerSpec l1 = l0;
  l1.in_dim = 24;
  l1.out_dim = 10;
  l1.relu = false;
  std::vector<QuantNeuroCLayer> layers;
  layers.push_back(MakeSyntheticNeuroCLayer(l0, rng));
  layers.push_back(MakeSyntheticNeuroCLayer(l1, rng));
  return NeuroCModel::FromLayers(std::move(layers));
}

using testutil::ConfigurePath;
using testutil::Path;

class BlockParityTest : public ::testing::TestWithParam<EncodingKind> {};

// Full inference with heatmaps attached: every architectural and observational quantity
// must agree across legacy / cached / block for the same model and inputs.
TEST_P(BlockParityTest, FullInferenceBitIdenticalAcrossAllThreePaths) {
  const EncodingKind kind = GetParam();
  DeployedModel block = DeployedModel::Deploy(MakeModel(21, kind));
  DeployedModel cached = DeployedModel::Deploy(MakeModel(21, kind));
  DeployedModel legacy = DeployedModel::Deploy(MakeModel(21, kind));
  ASSERT_TRUE(block.machine().cpu().block_compile_enabled());
  ASSERT_TRUE(block.machine().cpu().decode_cache_enabled());
  ConfigurePath(cached.machine().cpu(), Path::kCached);
  ConfigurePath(legacy.machine().cpu(), Path::kLegacy);

  block.machine().memory().EnableHeatmap(64);
  cached.machine().memory().EnableHeatmap(64);
  legacy.machine().memory().EnableHeatmap(64);

  Rng rng(5);
  for (int rep = 0; rep < 3; ++rep) {
    const std::vector<int8_t> input = MakeRandomInput(block.input_dim(), rng);
    const int b = block.Predict(input);
    EXPECT_EQ(b, cached.Predict(input));
    EXPECT_EQ(b, legacy.Predict(input));
    EXPECT_EQ(block.report().cycles_per_inference, legacy.report().cycles_per_inference);
    EXPECT_EQ(block.LastOutput(), legacy.LastOutput());
  }

  const Cpu& bc = block.machine().cpu();
  const Cpu& cc = cached.machine().cpu();
  const Cpu& lc = legacy.machine().cpu();
  EXPECT_EQ(bc.cycles(), lc.cycles());
  EXPECT_EQ(bc.instructions(), lc.instructions());
  EXPECT_EQ(cc.cycles(), lc.cycles());
  EXPECT_EQ(cc.instructions(), lc.instructions());

  const MemAccessStats& bs = block.machine().memory().stats();
  const MemAccessStats& ls = legacy.machine().memory().stats();
  EXPECT_EQ(bs.flash_reads, ls.flash_reads);
  EXPECT_EQ(bs.sram_reads, ls.sram_reads);
  EXPECT_EQ(bs.sram_writes, ls.sram_writes);

  const MemHeatmap& bh = block.machine().memory().heatmap();
  const MemHeatmap& lh = legacy.machine().memory().heatmap();
  EXPECT_EQ(bh.flash_reads, lh.flash_reads);
  EXPECT_EQ(bh.sram_reads, lh.sram_reads);
  EXPECT_EQ(bh.sram_writes, lh.sram_writes);
}

// Attaching a profiler mid-run must transparently disable block dispatch (probe streams
// come from the step interpreter only), attribute the exact cycle cost of the profiled
// window per PC, and leave the architectural counters identical to an unprofiled run.
TEST_P(BlockParityTest, ProbeAttachMidRunFallsBackWithExactAttribution) {
  const EncodingKind kind = GetParam();
  DeployedModel probed = DeployedModel::Deploy(MakeModel(33, kind));
  DeployedModel plain = DeployedModel::Deploy(MakeModel(33, kind));
  ASSERT_TRUE(probed.machine().cpu().block_compile_enabled());

  Rng rng(7);
  const std::vector<int8_t> in0 = MakeRandomInput(probed.input_dim(), rng);
  const std::vector<int8_t> in1 = MakeRandomInput(probed.input_dim(), rng);
  const std::vector<int8_t> in2 = MakeRandomInput(probed.input_dim(), rng);

  // Warm-up inference on the block path.
  EXPECT_EQ(probed.Predict(in0), plain.Predict(in0));

  // Attach the profiler for the middle inference only.
  Cpu& cpu = probed.machine().cpu();
  const uint64_t cycles_before = cpu.cycles();
  SimProfiler profiler;
  {
    ScopedCpuProbe scope(cpu, &profiler);
    EXPECT_EQ(probed.Predict(in1), plain.Predict(in1));
  }
  const uint64_t window_cycles = cpu.cycles() - cycles_before;

  // Per-PC attribution must sum exactly to the simulated cycles of the window.
  EXPECT_EQ(profiler.total_cycles(), window_cycles);
  uint64_t pc_sum = 0;
  for (const auto& [addr, stat] : profiler.pc_stats()) {
    pc_sum += stat.cycles;
  }
  EXPECT_EQ(pc_sum, window_cycles);
  EXPECT_GT(profiler.total_instructions(), 0u);

  // Detached again: block dispatch resumes and total counters still match the
  // never-probed machine bit for bit.
  EXPECT_EQ(probed.Predict(in2), plain.Predict(in2));
  EXPECT_EQ(cpu.cycles(), plain.machine().cpu().cycles());
  EXPECT_EQ(cpu.instructions(), plain.machine().cpu().instructions());
}

INSTANTIATE_TEST_SUITE_P(AllEncodings, BlockParityTest, ::testing::ValuesIn(kAllEncodingKinds));

// Runs `src` at kFlash on the given decode path and returns the machine post-call (whether
// it returned or faulted). `args` go to r0..r1.
struct CallResult {
  uint64_t cycles = 0;
  uint64_t instructions = 0;
  uint32_t r0 = 0;
  FaultReport fault;
  CpuFlags flags;
};

CallResult RunProgram(const std::string& src, Path path, std::initializer_list<uint32_t> args,
                      uint64_t max_instructions = 400'000'000) {
  MachineConfig cfg;
  cfg.max_instructions = max_instructions;
  Machine m(cfg);
  ConfigurePath(m.cpu(), path);
  const AssembledProgram p = Assemble(src, kFlash);
  m.LoadBytes(kFlash, p.bytes);
  (void)m.TryCallFunction(kFlash, args);
  CallResult r;
  r.cycles = m.cpu().cycles();
  r.instructions = m.cpu().instructions();
  r.r0 = m.ReturnValue();
  r.fault = m.last_fault();
  r.flags = m.cpu().flags();
  return r;
}

void ExpectSameOutcome(const std::string& src, std::initializer_list<uint32_t> args,
                       uint64_t max_instructions = 400'000'000) {
  const CallResult b = RunProgram(src, Path::kBlock, args, max_instructions);
  for (const Path path : {Path::kCached, Path::kLegacy}) {
    const CallResult o = RunProgram(src, path, args, max_instructions);
    EXPECT_EQ(b.cycles, o.cycles);
    EXPECT_EQ(b.instructions, o.instructions);
    EXPECT_EQ(b.r0, o.r0);
    EXPECT_EQ(b.fault.code, o.fault.code);
    EXPECT_EQ(b.fault.message, o.fault.message);
    EXPECT_EQ(b.fault.pc, o.fault.pc);
    EXPECT_EQ(b.fault.addr, o.fault.addr);
    EXPECT_EQ(b.fault.cycles, o.fault.cycles);
    EXPECT_EQ(b.fault.instructions, o.fault.instructions);
    EXPECT_EQ(b.flags.n, o.flags.n);
    EXPECT_EQ(b.flags.z, o.flags.z);
    EXPECT_EQ(b.flags.c, o.flags.c);
    EXPECT_EQ(b.flags.v, o.flags.v);
  }
}

// A fault in the middle of a compiled block must report the same PC, data address, cycle
// count and instruction count as the interpreter — including the APSR state left by the
// instructions that retired before the fault (their flag writes cannot be elided).
TEST(BlockFaultTest, MidBlockFaultMatchesInterpreterExactly) {
  // subs leaves N set; the unaligned load faults two instructions into the block.
  ExpectSameOutcome(
      "movs r0, #1\n"
      "subs r0, r0, #2\n"
      "ldr r1, [r0]\n"  // r0 == 0xFFFFFFFF: unaligned + unmapped -> faults
      "bx lr\n",
      {});
}

TEST(BlockFaultTest, StoreToFlashFaultMatchesInterpreter) {
  ExpectSameOutcome(
      "ldr r0, =0x08000000\n"
      "movs r1, #7\n"
      "str r1, [r0]\n"  // flash is read-only to the guest
      "bx lr\n",
      {});
}

// The instruction budget must fire after exactly the same retired instruction on every
// path; blocks that would cross the budget fall back to stepping so the overrun is
// attributed to the precise instruction, not a block boundary.
TEST(BlockFaultTest, InstructionBudgetFiresIdentically) {
  const std::string spin =
      "loop:\n"
      "  adds r0, r0, #1\n"
      "  b loop\n";
  ExpectSameOutcome(spin, {}, /*max_instructions=*/1001);
  // Edge case: budget lands exactly on a block boundary.
  ExpectSameOutcome(spin, {}, /*max_instructions=*/1000);
}

// Host writes into flash invalidate compiled blocks (same listener flag as the predecode
// cache): a patched halfword must change behaviour on the very next call.
TEST(BlockInvalidationTest, FlashWriteInvalidatesCompiledBlocks) {
  Machine m;
  ASSERT_TRUE(m.cpu().block_compile_enabled());
  const AssembledProgram a = Assemble("movs r0, #1\nbx lr\n", kFlash);
  m.LoadBytes(kFlash, a.bytes);
  m.CallFunction(kFlash, {});
  EXPECT_EQ(m.ReturnValue(), 1u);

  const AssembledProgram b = Assemble("movs r0, #9\n", kFlash);
  m.LoadBytes(kFlash, std::span<const uint8_t>(b.bytes.data(), 2));
  m.CallFunction(kFlash, {});
  EXPECT_EQ(m.ReturnValue(), 9u);
}

// Code in SRAM is outside block coverage: execution falls back to the interpreter and all
// counters agree (no flash wait states on SRAM fetches).
TEST(BlockFallbackTest, SramExecutionMatchesInterpreter) {
  const AssembledProgram p = Assemble("adds r0, r0, r1\nbx lr\n", kRam);
  Machine block;
  Machine legacy;
  ASSERT_TRUE(block.cpu().block_compile_enabled());
  legacy.cpu().EnableDecodeCache(false);
  block.LoadBytes(kRam, p.bytes);
  legacy.LoadBytes(kRam, p.bytes);
  const uint64_t block_cycles = block.CallFunction(kRam, {30, 12});
  const uint64_t legacy_cycles = legacy.CallFunction(kRam, {30, 12});
  EXPECT_EQ(block.ReturnValue(), 42u);
  EXPECT_EQ(legacy.ReturnValue(), 42u);
  EXPECT_EQ(block_cycles, legacy_cycles);
  EXPECT_EQ(block.cpu().instructions(), legacy.cpu().instructions());
}

// Dead-flag elision must never be observable: ADC consumes carry produced many
// instructions earlier in the same block, and the flags left at block exit feed a
// conditional branch in the next block.
TEST(BlockFlagsTest, CarryChainAndCrossBlockFlagsMatchInterpreter) {
  ExpectSameOutcome(
      "movs r0, #0\n"
      "mvns r1, r0\n"        // r1 = 0xFFFFFFFF
      "adds r1, r1, #1\n"    // sets carry
      "movs r2, #5\n"        // does not touch carry
      "movs r3, #6\n"
      "adcs r0, r3\n"        // consumes the carry from adds
      "cmp r0, #7\n"
      "bne fail\n"           // flags crossing the block boundary
      "bx lr\n"
      "fail:\n"
      "  movs r0, #0\n"
      "  bx lr\n",
      {});
}

}  // namespace
}  // namespace neuroc
