#include <gtest/gtest.h>

#include "src/isa/assembler.h"
#include "src/sim/guest_fault.h"
#include "src/sim/machine.h"
#include "tests/test_util.h"

namespace neuroc {
namespace {

constexpr uint32_t kFlash = 0x08000000;
constexpr uint32_t kRam = 0x20000000;

// Assembles, loads at flash base and calls with args on both decode paths, which
// must agree on every register, flag and counter (see CallOnAllDecodePaths). Returns the
// block path's r0; `machine_out` (default config when null) is that block-path machine.
uint32_t RunProgram(const std::string& source, std::initializer_list<uint32_t> args,
                    Machine* machine_out = nullptr, uint64_t* cycles_out = nullptr) {
  Machine local;
  Machine& m = machine_out != nullptr ? *machine_out : local;
  const AssembledProgram p = Assemble(source, kFlash);
  const uint64_t cycles = testutil::CallOnAllDecodePaths(m, p.bytes, args);
  if (cycles_out != nullptr) {
    *cycles_out = cycles;
  }
  return m.ReturnValue();
}

TEST(MemoryMapTest, RegionsAndRoundTrip) {
  MemoryMap mem(kFlash, 128 * 1024, kRam, 16 * 1024);
  EXPECT_EQ(mem.RegionOf(kFlash), MemRegion::kFlash);
  EXPECT_EQ(mem.RegionOf(kRam + 100), MemRegion::kSram);
  EXPECT_EQ(mem.RegionOf(0), MemRegion::kNone);
  mem.Write32(kRam, 0xCAFEBABE);
  EXPECT_EQ(mem.Read32(kRam), 0xCAFEBABEu);
  mem.Write8(kRam + 4, 0x12);
  EXPECT_EQ(mem.Read8(kRam + 4), 0x12);
  mem.Write16(kRam + 6, 0x3456);
  EXPECT_EQ(mem.Read16(kRam + 6), 0x3456);
}

TEST(MemoryMapTest, LittleEndianLayout) {
  MemoryMap mem(kFlash, 1024, kRam, 1024);
  mem.Write32(kRam, 0x11223344);
  EXPECT_EQ(mem.Read8(kRam), 0x44);
  EXPECT_EQ(mem.Read8(kRam + 3), 0x11);
  EXPECT_EQ(mem.Read16(kRam), 0x3344);
}

TEST(MemoryMapTest, CpuWriteToFlashFaults) {
  // CPU-side faults are recoverable GuestFault throws (caught at the Machine boundary),
  // not process aborts.
  MemoryMap mem(kFlash, 1024, kRam, 1024);
  try {
    mem.Write32(kFlash, 1);
    FAIL() << "flash write did not fault";
  } catch (const GuestFault& gf) {
    EXPECT_EQ(gf.code, ErrorCode::kIllegalStore);
    EXPECT_EQ(gf.addr, kFlash);
    EXPECT_EQ(gf.message, "write to flash");
  }
}

TEST(MemoryMapTest, UnalignedAccessFaults) {
  MemoryMap mem(kFlash, 1024, kRam, 1024);
  EXPECT_THROW(mem.Read32(kRam + 2), GuestFault);
  EXPECT_THROW(mem.Read16(kRam + 1), GuestFault);
  try {
    mem.Read32(kRam + 2);
  } catch (const GuestFault& gf) {
    EXPECT_EQ(gf.code, ErrorCode::kUnalignedAccess);
    EXPECT_EQ(gf.addr, kRam + 2);
  }
}

TEST(MemoryMapTest, HostWriteMayTouchFlash) {
  MemoryMap mem(kFlash, 1024, kRam, 1024);
  const uint8_t bytes[4] = {1, 2, 3, 4};
  mem.HostWrite(kFlash + 8, bytes);
  EXPECT_EQ(mem.Read8(kFlash + 9), 2);
}

// The generation moves on flash writes only; SRAM loads leave it (and so the compiled
// blocks) alone.
TEST(MemoryMapTest, FlashGenerationTracksFlashWritesOnly) {
  MemoryMap mem(kFlash, 1024, kRam, 1024);
  const uint64_t g0 = mem.flash_generation();
  const uint8_t bytes[2] = {0x01, 0x20};
  mem.HostWrite(kRam, bytes);
  EXPECT_EQ(mem.flash_generation(), g0);
  mem.HostWrite(kFlash + 16, bytes);
  EXPECT_GT(mem.flash_generation(), g0);
  EXPECT_GE(mem.flash_high_water(), 18u);
}

TEST(MemoryMapTest, AccessCountersTrackRegions) {
  MemoryMap mem(kFlash, 1024, kRam, 1024);
  const uint8_t b[4] = {0, 0, 0, 0};
  mem.HostWrite(kFlash, b);
  (void)mem.Read32(kFlash);
  (void)mem.Read8(kRam);
  mem.Write8(kRam, 1);
  EXPECT_EQ(mem.stats().flash_reads, 1u);
  EXPECT_EQ(mem.stats().sram_reads, 1u);
  EXPECT_EQ(mem.stats().sram_writes, 1u);
}

TEST(CpuTest, ReturnsConstant) {
  EXPECT_EQ(RunProgram("movs r0, #42\nbx lr\n", {}), 42u);
}

TEST(CpuTest, AddsArguments) {
  EXPECT_EQ(RunProgram("adds r0, r0, r1\nbx lr\n", {30, 12}), 42u);
}

TEST(CpuTest, SumLoopComputesGauss) {
  // sum 1..n via loop.
  const std::string src = R"(
    movs r1, #0      @ acc
    movs r2, #0      @ i
loop:
    adds r2, r2, #1
    adds r1, r1, r2
    cmp r2, r0
    blt loop
    movs r0, r1
    bx lr
  )";
  EXPECT_EQ(RunProgram(src, {10}), 55u);
  EXPECT_EQ(RunProgram(src, {100}), 5050u);
}

TEST(CpuTest, MultiplyAndShift) {
  EXPECT_EQ(RunProgram("muls r0, r1, r0\nbx lr\n", {6, 7}), 42u);
  EXPECT_EQ(RunProgram("lsls r0, r0, #4\nbx lr\n", {3}), 48u);
  EXPECT_EQ(RunProgram("asrs r0, r0, #2\nbx lr\n", {0xFFFFFFF0u}), 0xFFFFFFFCu);
}

TEST(CpuTest, SignedComparisonBranches) {
  // returns 1 if (int)r0 < (int)r1 else 0.
  const std::string src = R"(
    cmp r0, r1
    blt less
    movs r0, #0
    bx lr
less:
    movs r0, #1
    bx lr
  )";
  EXPECT_EQ(RunProgram(src, {static_cast<uint32_t>(-5), 3}), 1u);
  EXPECT_EQ(RunProgram(src, {3, static_cast<uint32_t>(-5)}), 0u);
  EXPECT_EQ(RunProgram(src, {3, 3}), 0u);
}

TEST(CpuTest, UnsignedComparisonBranches) {
  const std::string src = R"(
    cmp r0, r1
    bhi higher
    movs r0, #0
    bx lr
higher:
    movs r0, #1
    bx lr
  )";
  EXPECT_EQ(RunProgram(src, {0xFFFFFFFFu, 1}), 1u);  // unsigned: max > 1
  EXPECT_EQ(RunProgram(src, {1, 2}), 0u);
}

TEST(CpuTest, MemoryLoadStoreByteHalfWord) {
  const std::string src = R"(
    ldr r1, =0x20000100
    movs r2, #0xAB
    strb r2, [r1, #0]
    ldrb r0, [r1, #0]
    ldr r3, =0x1234
    strh r3, [r1, #2]
    ldrh r4, [r1, #2]
    adds r0, r0, r4
    bx lr
  )";
  EXPECT_EQ(RunProgram(src, {}), 0xABu + 0x1234u);
}

TEST(CpuTest, SignedLoadsSignExtend) {
  const std::string src = R"(
    ldr r1, =0x20000100
    movs r2, #0
    mvns r2, r2        @ r2 = 0xFFFFFFFF
    strb r2, [r1, #0]
    movs r3, #0
    ldrsb r0, [r1, r3]
    bx lr
  )";
  EXPECT_EQ(RunProgram(src, {}), 0xFFFFFFFFu);  // -1 sign-extended
}

TEST(CpuTest, PushPopPreserveAcrossCall) {
  const std::string src = R"(
    push {r4, r5, lr}
    movs r4, #21
    movs r5, #2
    muls r4, r5, r4
    movs r0, r4
    pop {r4, r5, pc}
  )";
  EXPECT_EQ(RunProgram(src, {}), 42u);
}

TEST(CpuTest, BlAndFunctionCall) {
  const std::string src = R"(
    push {lr}
    bl helper
    adds r0, r0, #1
    pop {pc}
helper:
    movs r0, #41
    bx lr
  )";
  EXPECT_EQ(RunProgram(src, {}), 42u);
}

TEST(CpuTest, AdcSbcCarryChain) {
  // 64-bit add of (r0,r1) + (r2,r3) returning the high word.
  const std::string src = R"(
    adds r0, r0, r2   @ low
    adcs r1, r3       @ high with carry
    movs r0, r1
    bx lr
  )";
  EXPECT_EQ(RunProgram(src, {0xFFFFFFFFu, 0, 1, 0}), 1u);   // carry into high
  EXPECT_EQ(RunProgram(src, {5, 7, 5, 9}), 16u);            // no carry
}

TEST(CpuTest, SxtbUxtb) {
  EXPECT_EQ(RunProgram("sxtb r0, r0\nbx lr\n", {0x80u}), 0xFFFFFF80u);
  EXPECT_EQ(RunProgram("uxtb r0, r0\nbx lr\n", {0x1FFu}), 0xFFu);
  EXPECT_EQ(RunProgram("sxth r0, r0\nbx lr\n", {0x8000u}), 0xFFFF8000u);
}

TEST(CpuTest, RevByteSwap) {
  EXPECT_EQ(RunProgram("rev r0, r0\nbx lr\n", {0x11223344u}), 0x44332211u);
}

TEST(CpuTest, NegsAndFlags) {
  const std::string src = R"(
    rsbs r0, r0, #0
    bx lr
  )";
  EXPECT_EQ(RunProgram(src, {5}), static_cast<uint32_t>(-5));
}

TEST(CpuTest, RegisterShifts) {
  EXPECT_EQ(RunProgram("lsls r0, r1\nbx lr\n", {1, 8}), 256u);
  EXPECT_EQ(RunProgram("lsrs r0, r1\nbx lr\n", {256, 8}), 1u);
  EXPECT_EQ(RunProgram("asrs r0, r1\nbx lr\n", {0x80000000u, 31}), 0xFFFFFFFFu);
  // Shift by >= 32 zeroes (logical).
  EXPECT_EQ(RunProgram("lsls r0, r1\nbx lr\n", {1, 40}), 0u);
}

// ---------------------------------------------------------------------------
// Cycle accounting.
// ---------------------------------------------------------------------------

TEST(CycleModelTest, StraightLineAluCosts) {
  Machine m;
  uint64_t cycles = 0;
  RunProgram("movs r0, #1\nadds r0, r0, #1\nbx lr\n", {}, &m, &cycles);
  // movs(1) + adds(1) + bx(3).
  EXPECT_EQ(cycles, 5u);
}

TEST(CycleModelTest, LoadStoreCosts) {
  Machine m;
  uint64_t cycles = 0;
  RunProgram(R"(
    ldr r1, =0x20000000
    str r0, [r1, #0]
    ldr r0, [r1, #0]
    bx lr
  )", {7}, &m, &cycles);
  // ldr lit(2) + str(2) + ldr(2) + bx(3).
  EXPECT_EQ(cycles, 9u);
}

TEST(CycleModelTest, BranchTakenVsNotTaken) {
  Machine m;
  uint64_t cycles_not_taken = 0;
  RunProgram(R"(
    cmp r0, #5
    beq skip
    movs r0, #1
skip:
    bx lr
  )", {0}, &m, &cycles_not_taken);
  // cmp(1) + beq not taken(1) + movs(1) + bx(3) = 6.
  EXPECT_EQ(cycles_not_taken, 6u);

  Machine m2;
  uint64_t cycles_taken = 0;
  RunProgram(R"(
    cmp r0, #5
    beq skip
    movs r0, #1
skip:
    bx lr
  )", {5}, &m2, &cycles_taken);
  // cmp(1) + beq taken(3) + bx(3) = 7.
  EXPECT_EQ(cycles_taken, 7u);
}

TEST(CycleModelTest, MulConfigurableCost) {
  MachineConfig cfg;
  cfg.cycle_model = CycleModel::CortexM0SlowMul();
  Machine m(cfg);
  uint64_t cycles = 0;
  EXPECT_EQ(RunProgram("muls r0, r1, r0\nbx lr\n", {3, 4}, &m, &cycles), 12u);
  EXPECT_EQ(cycles, 32u + 3u);  // slow mul + bx
}

TEST(CycleModelTest, FlashWaitStatesIncreaseCycles) {
  MachineConfig fast;
  MachineConfig slow;
  slow.cycle_model.flash_wait_states = 1;
  const std::string src = "movs r0, #1\nmovs r0, #2\nldr r1, =0x12345678\nbx lr\n";
  Machine mf(fast);
  Machine ms(slow);
  uint64_t cf = 0;
  uint64_t cs = 0;
  RunProgram(src, {}, &mf, &cf);
  RunProgram(src, {}, &ms, &cs);
  // One extra cycle per fetched instruction, plus one for the literal load's flash read.
  EXPECT_EQ(cs, cf + 5);
}

TEST(CycleModelTest, PushPopCosts) {
  Machine m;
  uint64_t cycles = 0;
  RunProgram("push {r4, r5, lr}\npop {r4, r5, pc}\n", {}, &m, &cycles);
  // push 1+3, pop 1+3 + pc extra 3.
  EXPECT_EQ(cycles, 4u + 7u);
}

TEST(CycleModelTest, LatencyConversionAt8MHz) {
  Machine m;
  EXPECT_DOUBLE_EQ(m.CyclesToMs(8000), 1.0);
  EXPECT_DOUBLE_EQ(m.CyclesToMs(400000), 50.0);
}

TEST(MachineTest, InstructionBudgetGuardAborts) {
  MachineConfig cfg;
  cfg.max_instructions = 1000;
  Machine m(cfg);
  const AssembledProgram p = Assemble("spin: b spin\n", kFlash);
  m.LoadBytes(kFlash, p.bytes);
  EXPECT_DEATH(m.CallFunction(kFlash, {}), "instruction budget");
}

TEST(MachineTest, MemcpyRoutineMovesBytes) {
  // A classic byte-wise memcpy(dst, src, n) kernel.
  const std::string src = R"(
    @ r0 = dst, r1 = src, r2 = n
    movs r3, #0
loop:
    cmp r3, r2
    bge done
    ldrb r4, [r1, r3]
    strb r4, [r0, r3]
    adds r3, r3, #1
    b loop
done:
    bx lr
  )";
  Machine m;
  const AssembledProgram p = Assemble(src, kFlash);
  m.LoadBytes(kFlash, p.bytes);
  const uint8_t payload[5] = {10, 20, 30, 40, 50};
  m.LoadBytes(kRam + 64, payload);
  m.CallFunction(kFlash, {kRam, kRam + 64, 5});
  uint8_t out[5];
  m.memory().HostRead(kRam, out);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(out[i], payload[i]);
  }
}


TEST(CpuTest, LdmStmMultipleTransfer) {
  // stmia writes ascending registers; ldmia reads them back with writeback.
  const std::string src = R"(
    ldr r1, =0x20000100
    movs r2, #11
    movs r3, #22
    movs r4, #33
    stmia r1!, {r2, r3, r4}
    ldr r1, =0x20000100
    ldmia r1!, {r5, r6, r7}
    adds r0, r5, r6
    adds r0, r0, r7
    bx lr
  )";
  Machine m;
  EXPECT_EQ(RunProgram(src, {}, &m), 66u);
  // Writeback advanced r1 by 12 past the base.
  EXPECT_EQ(m.cpu().reg(1), 0x20000100u + 12u);
  EXPECT_EQ(m.memory().Read32(0x20000100), 11u);
  EXPECT_EQ(m.memory().Read32(0x20000108), 33u);
}

TEST(CpuTest, LdmWithoutBaseInListWritesBack) {
  const std::string src = R"(
    ldr r1, =0x20000200
    movs r2, #5
    stmia r1!, {r2}
    mov r0, r1
    bx lr
  )";
  EXPECT_EQ(RunProgram(src, {}), 0x20000204u);
}

TEST(CycleModelTest, LdmStmCostIsBasePlusCount) {
  Machine m;
  uint64_t cycles = 0;
  RunProgram(R"(
    ldr r1, =0x20000000
    movs r2, #1
    movs r3, #2
    stmia r1!, {r2, r3}
    bx lr
  )", {}, &m, &cycles);
  // ldr lit(2) + movs(1)x2 + stm(1+2) + bx(3) = 10.
  EXPECT_EQ(cycles, 10u);
}

}  // namespace
}  // namespace neuroc
