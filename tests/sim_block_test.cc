// Block-compiled execution: fusing straight-line basic blocks into one dispatch per block
// must be an invisible optimization. Cycles, instruction counts, op histograms, memory
// statistics, heatmaps, fault reports and probe streams all have to be bit-identical on
// both decode paths (the step interpreter, which fetches and decodes every instruction,
// and block compilation), host writes into flash must retire the compiled blocks over
// them, and attaching a CpuProbe mid-run must transparently fall back to the step
// interpreter with exact per-PC attribution.

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
// must agree between step and block for the same model and inputs.
TEST_P(BlockParityTest, FullInferenceBitIdenticalOnBothPaths) {
  const EncodingKind kind = GetParam();
  DeployedModel block = DeployedModel::Deploy(MakeModel(21, kind));
  DeployedModel step = DeployedModel::Deploy(MakeModel(21, kind));
  ASSERT_TRUE(block.machine().cpu().block_compile_enabled());
  ConfigurePath(step.machine().cpu(), Path::kStep);

  block.machine().memory().EnableHeatmap(64);
  step.machine().memory().EnableHeatmap(64);

  Rng rng(5);
  for (int rep = 0; rep < 3; ++rep) {
    const std::vector<int8_t> input = MakeRandomInput(block.input_dim(), rng);
    EXPECT_EQ(block.Predict(input), step.Predict(input));
    EXPECT_EQ(block.report().cycles_per_inference, step.report().cycles_per_inference);
    EXPECT_EQ(block.LastOutput(), step.LastOutput());
  }

  const Cpu& bc = block.machine().cpu();
  const Cpu& sc = step.machine().cpu();
  EXPECT_EQ(bc.cycles(), sc.cycles());
  EXPECT_EQ(bc.instructions(), sc.instructions());

  const MemAccessStats& bs = block.machine().memory().stats();
  const MemAccessStats& ss = step.machine().memory().stats();
  EXPECT_EQ(bs.flash_reads, ss.flash_reads);
  EXPECT_EQ(bs.sram_reads, ss.sram_reads);
  EXPECT_EQ(bs.sram_writes, ss.sram_writes);

  const MemHeatmap& bh = block.machine().memory().heatmap();
  const MemHeatmap& sh = step.machine().memory().heatmap();
  EXPECT_EQ(bh.flash_reads, sh.flash_reads);
  EXPECT_EQ(bh.sram_reads, sh.sram_reads);
  EXPECT_EQ(bh.sram_writes, sh.sram_writes);
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
  const CallResult s = RunProgram(src, Path::kStep, args, max_instructions);
  EXPECT_EQ(b.cycles, s.cycles);
  EXPECT_EQ(b.instructions, s.instructions);
  EXPECT_EQ(b.r0, s.r0);
  EXPECT_EQ(b.fault.code, s.fault.code);
  EXPECT_EQ(b.fault.message, s.fault.message);
  EXPECT_EQ(b.fault.pc, s.fault.pc);
  EXPECT_EQ(b.fault.addr, s.fault.addr);
  EXPECT_EQ(b.fault.cycles, s.fault.cycles);
  EXPECT_EQ(b.fault.instructions, s.fault.instructions);
  EXPECT_EQ(b.flags.n, s.flags.n);
  EXPECT_EQ(b.flags.z, s.flags.z);
  EXPECT_EQ(b.flags.c, s.flags.c);
  EXPECT_EQ(b.flags.v, s.flags.v);
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

// Host writes into flash retire the compiled blocks over them (the MemoryMap's listener
// flag): a full reload at the same address and a single patched halfword must each
// change behaviour on the very next call.
TEST(BlockInvalidationTest, FlashWriteInvalidatesCompiledBlocks) {
  Machine m;
  ASSERT_TRUE(m.cpu().block_compile_enabled());
  const AssembledProgram a = Assemble("movs r0, #1\nbx lr\n", kFlash);
  m.LoadBytes(kFlash, a.bytes);
  m.CallFunction(kFlash, {});
  EXPECT_EQ(m.ReturnValue(), 1u);

  const AssembledProgram b = Assemble("movs r0, #9\nbx lr\n", kFlash);
  m.LoadBytes(kFlash, b.bytes);
  m.CallFunction(kFlash, {});
  EXPECT_EQ(m.ReturnValue(), 9u);

  const AssembledProgram c = Assemble("movs r0, #5\n", kFlash);
  m.LoadBytes(kFlash, std::span<const uint8_t>(c.bytes.data(), 2));
  m.CallFunction(kFlash, {});
  EXPECT_EQ(m.ReturnValue(), 5u);
}

// Code in SRAM is outside block coverage: execution falls back to the interpreter and all
// counters agree with the step path (no flash wait states on SRAM fetches).
TEST(BlockFallbackTest, SramExecutionMatchesInterpreter) {
  const AssembledProgram p = Assemble("adds r0, r0, r1\nbx lr\n", kRam);
  Machine block;
  Machine step;
  ASSERT_TRUE(block.cpu().block_compile_enabled());
  ConfigurePath(step.cpu(), Path::kStep);
  block.LoadBytes(kRam, p.bytes);
  step.LoadBytes(kRam, p.bytes);
  const uint64_t block_cycles = block.CallFunction(kRam, {30, 12});
  const uint64_t step_cycles = step.CallFunction(kRam, {30, 12});
  EXPECT_EQ(block.ReturnValue(), 42u);
  EXPECT_EQ(step.ReturnValue(), 42u);
  EXPECT_EQ(block_cycles, step_cycles);
  EXPECT_EQ(block.cpu().instructions(), step.cpu().instructions());
}

// Regression: a BL prefix halfword (0xF000) sitting on the last mapped flash halfword used
// to abort with a misleading "unmapped address" memory fault. It must be reported as an
// undefined instruction at that halfword on both decode paths: the block compiler peeks
// the second halfword by the step interpreter's rule, so the slot is step-only.
void RunWidePrefixAtFlashEnd(Path path) {
  MachineConfig cfg;
  cfg.flash_size = 1024;
  Machine m(cfg);
  ConfigurePath(m.cpu(), path);
  const uint32_t last_halfword = kFlash + cfg.flash_size - 2;
  const uint8_t bl_prefix[2] = {0x00, 0xF0};
  m.LoadBytes(last_halfword, bl_prefix);
  m.CallFunction(last_halfword, {});
}

TEST(BlockFallbackDeathTest, WidePrefixAtFlashEndFaultsAsUndefined) {
  const char* expected = "simulator: undefined instruction 0xf000 at 0x080003fe";
  EXPECT_DEATH(RunWidePrefixAtFlashEnd(Path::kBlock), expected);
  EXPECT_DEATH(RunWidePrefixAtFlashEnd(Path::kStep), expected);
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
