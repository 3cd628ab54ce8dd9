#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "src/isa/assembler.h"
#include "src/isa/isa.h"

namespace neuroc {
namespace {

// Encode → decode must be the identity on the operand fields each op uses.
void RoundTrip(const Instr& in) {
  uint16_t hw[2] = {0, 0};
  const int n = EncodeInstr(in, hw);
  const Instr out = DecodeInstr(hw[0], n == 2 ? hw[1] : 0);
  EXPECT_EQ(out.op, in.op) << Disassemble(in);
  EXPECT_EQ(out.length, n);
  switch (in.op) {
    case Op::kLslImm:
    case Op::kLsrImm:
    case Op::kAsrImm:
      EXPECT_EQ(out.rd, in.rd);
      EXPECT_EQ(out.rm, in.rm);
      EXPECT_EQ(out.imm, in.imm);
      break;
    case Op::kAddReg:
    case Op::kSubReg:
      EXPECT_EQ(out.rd, in.rd);
      EXPECT_EQ(out.rn, in.rn);
      EXPECT_EQ(out.rm, in.rm);
      break;
    case Op::kAddImm3:
    case Op::kSubImm3:
      EXPECT_EQ(out.rd, in.rd);
      EXPECT_EQ(out.rn, in.rn);
      EXPECT_EQ(out.imm, in.imm);
      break;
    case Op::kMovImm:
    case Op::kAddImm8:
    case Op::kSubImm8:
      EXPECT_EQ(out.rd, in.rd);
      EXPECT_EQ(out.imm, in.imm);
      break;
    case Op::kCmpImm:
      EXPECT_EQ(out.rn, in.rn);
      EXPECT_EQ(out.imm, in.imm);
      break;
    case Op::kBcond:
      EXPECT_EQ(out.cond, in.cond);
      EXPECT_EQ(out.imm, in.imm);
      break;
    case Op::kB:
    case Op::kBl:
      EXPECT_EQ(out.imm, in.imm);
      break;
    case Op::kPush:
    case Op::kPop:
      EXPECT_EQ(out.reglist, in.reglist);
      break;
    default:
      EXPECT_EQ(out.rd, in.rd);
      EXPECT_EQ(out.rm, in.rm);
      EXPECT_EQ(out.imm, in.imm);
      break;
  }
}

TEST(EncoderTest, ShiftImmediateRoundTrip) {
  for (uint8_t rd = 0; rd < 8; ++rd) {
    for (int imm : {0, 1, 7, 31}) {
      for (Op op : {Op::kLslImm, Op::kLsrImm, Op::kAsrImm}) {
        Instr in;
        in.op = op;
        in.rd = rd;
        in.rm = static_cast<uint8_t>(7 - rd);
        in.imm = imm;
        RoundTrip(in);
      }
    }
  }
}

TEST(EncoderTest, DataProcessingRoundTrip) {
  for (Op op : {Op::kAnd, Op::kEor, Op::kLslReg, Op::kLsrReg, Op::kAsrReg, Op::kAdc,
                Op::kSbc, Op::kRor, Op::kTst, Op::kNeg, Op::kCmpReg, Op::kCmn, Op::kOrr,
                Op::kMul, Op::kBic, Op::kMvn}) {
    Instr in;
    in.op = op;
    in.rd = 3;
    in.rn = 3;
    in.rm = 5;
    RoundTrip(in);
  }
}

TEST(EncoderTest, ImmediateFormsRoundTrip) {
  for (Op op : {Op::kMovImm, Op::kCmpImm, Op::kAddImm8, Op::kSubImm8}) {
    for (int imm : {0, 1, 127, 255}) {
      Instr in;
      in.op = op;
      in.rd = 2;
      in.rn = 2;
      in.imm = imm;
      RoundTrip(in);
    }
  }
}

TEST(EncoderTest, LoadStoreRoundTrip) {
  for (Op op : {Op::kStrReg, Op::kStrhReg, Op::kStrbReg, Op::kLdrsbReg, Op::kLdrReg,
                Op::kLdrhReg, Op::kLdrbReg, Op::kLdrshReg}) {
    Instr in;
    in.op = op;
    in.rd = 1;
    in.rn = 2;
    in.rm = 3;
    RoundTrip(in);
  }
  Instr w;
  w.op = Op::kLdrImm;
  w.rd = 4;
  w.rn = 5;
  w.imm = 124;
  RoundTrip(w);
  w.op = Op::kStrImm;
  RoundTrip(w);
  w.op = Op::kLdrbImm;
  w.imm = 31;
  RoundTrip(w);
  w.op = Op::kLdrhImm;
  w.imm = 62;
  RoundTrip(w);
}

TEST(EncoderTest, BranchRoundTrip) {
  for (int imm : {-256, -2, 0, 2, 254}) {
    Instr in;
    in.op = Op::kBcond;
    in.cond = Cond::kNe;
    in.imm = imm;
    RoundTrip(in);
  }
  for (int imm : {-2048, 0, 2046}) {
    Instr in;
    in.op = Op::kB;
    in.imm = imm;
    RoundTrip(in);
  }
}

TEST(EncoderTest, BlRoundTripAcrossRange) {
  for (int32_t imm : {-16777216, -65536, -2, 0, 2, 4096, 16777214}) {
    Instr in;
    in.op = Op::kBl;
    in.imm = imm;
    RoundTrip(in);
  }
}

TEST(EncoderTest, PushPopRoundTrip) {
  for (uint16_t list : {uint16_t{0x01}, uint16_t{0xF0}, uint16_t{0x1FF}, uint16_t{0x110}}) {
    Instr in;
    in.op = Op::kPush;
    in.reglist = list;
    RoundTrip(in);
    in.op = Op::kPop;
    RoundTrip(in);
  }
}

TEST(EncoderTest, HiRegisterRoundTrip) {
  for (Op op : {Op::kAddHi, Op::kMovHi}) {
    for (uint8_t rd : {uint8_t{0}, uint8_t{7}, uint8_t{12}, uint8_t{14}}) {
      Instr in;
      in.op = op;
      in.rd = rd;
      in.rm = 13;
      RoundTrip(in);
    }
  }
  Instr bx;
  bx.op = Op::kBx;
  bx.rm = kRegLr;
  RoundTrip(bx);
  bx.op = Op::kBlx;
  bx.rm = 3;
  RoundTrip(bx);
}

TEST(EncoderTest, MiscellaneousRoundTrip) {
  for (Op op : {Op::kSxth, Op::kSxtb, Op::kUxth, Op::kUxtb, Op::kRev, Op::kRev16,
                Op::kRevsh}) {
    Instr in;
    in.op = op;
    in.rd = 6;
    in.rm = 1;
    RoundTrip(in);
  }
  Instr sp;
  sp.op = Op::kAddSp7;
  sp.imm = 128;
  RoundTrip(sp);
  sp.op = Op::kSubSp7;
  RoundTrip(sp);
  sp.op = Op::kLdrSp;
  sp.rd = 3;
  sp.imm = 1020;
  RoundTrip(sp);
  sp.op = Op::kLdrLit;
  sp.imm = 1020;
  RoundTrip(sp);
  sp.op = Op::kNop;
  sp.imm = 0;
  sp.rd = 0;
  RoundTrip(sp);
}

TEST(DecoderTest, KnownEncodings) {
  // Cross-checked against the ARMv6-M ARM / GNU assembler output.
  EXPECT_EQ(DecodeInstr(0x2105, 0).op, Op::kMovImm);   // movs r1, #5
  EXPECT_EQ(DecodeInstr(0x2105, 0).rd, 1);
  EXPECT_EQ(DecodeInstr(0x2105, 0).imm, 5);
  EXPECT_EQ(DecodeInstr(0x1840, 0).op, Op::kAddReg);   // adds r0, r0, r1
  EXPECT_EQ(DecodeInstr(0x4348, 0).op, Op::kMul);      // muls r0, r1
  EXPECT_EQ(DecodeInstr(0x4770, 0).op, Op::kBx);       // bx lr
  EXPECT_EQ(DecodeInstr(0x4770, 0).rm, kRegLr);
  EXPECT_EQ(DecodeInstr(0xB570, 0).op, Op::kPush);     // push {r4, r5, r6, lr}
  EXPECT_EQ(DecodeInstr(0xB570, 0).reglist, 0x170);
  EXPECT_EQ(DecodeInstr(0xD1FE, 0).op, Op::kBcond);    // bne .-0
  EXPECT_EQ(DecodeInstr(0xD1FE, 0).imm, -4);
  EXPECT_EQ(DecodeInstr(0x7808, 0).op, Op::kLdrbImm);  // ldrb r0, [r1, #0]
  EXPECT_EQ(DecodeInstr(0x5D10, 0).op, Op::kLdrbReg);  // ldrb r0, [r2, r4]
  EXPECT_EQ(DecodeInstr(0xBF00, 0).op, Op::kNop);
}

// Every first halfword, each paired with second halfwords that do and do not complete a
// BL (0xD000 & hw2 == 0xD000 does for all but 0x0000).
constexpr uint16_t kSecondHalfwords[] = {0x0000, 0xF800, 0xD000, 0xD7FF, 0xFFFF};

TEST(IsaSweepTest, MatchesPinnedDigest) {
  // FNV-1a 64 over one line per (hw1, hw2) pair: the decoded fields, and for a valid
  // decode its encoding, static facts, category and disassembly at a fixed address. The
  // pinned value was computed with the hand-written encoder, decoder and disassembler and
  // the simulator's and profiler's per-op switches this table replaced.
  static constexpr const char* kClassNames[kNumOpClasses] = {"alu",  "mul",    "load",
                                                             "store", "branch", "stack"};
  uint64_t digest = 1469598103934665603ull;
  uint64_t valid = 0;
  char buf[128];
  for (uint32_t hw1 = 0; hw1 < 0x10000; ++hw1) {
    for (const uint16_t hw2 : kSecondHalfwords) {
      const Instr in = DecodeInstr(static_cast<uint16_t>(hw1), hw2);
      std::snprintf(buf, sizeof(buf), "%04x %04x %u %u %u %u %d %u %u %u", hw1, hw2,
                    static_cast<unsigned>(in.op), in.rd, in.rn, in.rm, in.imm, in.reglist,
                    static_cast<unsigned>(in.cond), in.length);
      std::string line = buf;
      if (in.op != Op::kInvalid) {
        ++valid;
        uint16_t enc[2] = {0, 0};
        const int n = EncodeInstr(in, enc);
        const FlagEffects fe = FlagEffectsOf(in.op, in.imm);
        const RegEffects re = RegEffectsOf(in);
        std::snprintf(buf, sizeof(buf), "|%d %04x %04x|%u %u %u|%04x %04x|%d %d %s|", n,
                      enc[0], n == 2 ? enc[1] : 0, fe.reads, fe.may_write, fe.must_write,
                      re.reads, re.writes, MayFault(in.op) ? 1 : 0, IsTerminator(in) ? 1 : 0,
                      kClassNames[static_cast<size_t>(InfoOf(in.op).op_class)]);
        line += buf;
        line += Disassemble(in, 0x08000100);
      }
      line += '\n';
      for (const char ch : line) {
        digest = (digest ^ static_cast<uint8_t>(ch)) * 1099511628211ull;
      }
    }
  }
  EXPECT_EQ(valid, 291947u);
  EXPECT_EQ(digest, 0x913be7723b8ee767ull);
}

TEST(IsaSweepTest, EveryValidDecodeReencodesToItsHalfwords) {
  // The one exception: BX/BLX ignore their should-be-zero bits [2:0] (their rows' mask
  // leaves them out), so a first halfword with any of them set re-encodes with them
  // clear. 224 such halfwords × 5 second halfwords.
  uint64_t exceptions = 0;
  for (uint32_t hw1 = 0; hw1 < 0x10000; ++hw1) {
    for (const uint16_t hw2 : kSecondHalfwords) {
      const Instr in = DecodeInstr(static_cast<uint16_t>(hw1), hw2);
      if (in.op == Op::kInvalid) {
        continue;
      }
      uint16_t enc[2] = {0, 0};
      const int n = EncodeInstr(in, enc);
      ASSERT_EQ(n, in.length);
      if ((in.op == Op::kBx || in.op == Op::kBlx) && (hw1 & 7) != 0) {
        EXPECT_EQ(enc[0], hw1 & ~7u);
        ++exceptions;
        continue;
      }
      EXPECT_EQ(enc[0], hw1) << Disassemble(in);
      if (n == 2) {
        EXPECT_EQ(enc[1], hw2) << Disassemble(in);
      }
    }
  }
  EXPECT_EQ(exceptions, 224u * 5u);
}

TEST(AssemblerTest, ReproducesEveryDisassembly) {
  // The assembler reads each form's text through the same syntax the disassembler prints.
  // Every valid pair reproduces its text, and its halfwords apart from two exceptions:
  // BX/BLX drop their should-be-zero bits (224 first halfwords × 5 second halfwords), and
  // a hi-register CMP naming two low registers (64 × 5) assembles to the low-register CMP,
  // the first row that takes its text.
  constexpr uint32_t kAddr = 0x08000100;
  uint64_t valid = 0;
  uint64_t should_be_zero = 0;
  uint64_t low_cmp = 0;
  for (uint32_t hw1 = 0; hw1 < 0x10000; ++hw1) {
    for (const uint16_t hw2 : kSecondHalfwords) {
      const Instr in = DecodeInstr(static_cast<uint16_t>(hw1), hw2);
      if (in.op == Op::kInvalid) {
        continue;
      }
      ++valid;
      const std::string text = Disassemble(in, kAddr);
      const AssembledProgram p = Assemble(text, kAddr);
      ASSERT_EQ(p.bytes.size(), 2u * in.length) << text;
      const uint16_t a1 = static_cast<uint16_t>(p.bytes[0] | (p.bytes[1] << 8));
      const uint16_t a2 =
          in.length == 2 ? static_cast<uint16_t>(p.bytes[2] | (p.bytes[3] << 8)) : 0;
      const Instr out = DecodeInstr(a1, a2);
      ASSERT_EQ(Disassemble(out, kAddr), text);
      if ((in.op == Op::kBx || in.op == Op::kBlx) && (hw1 & 7) != 0) {
        ASSERT_EQ(a1, hw1 & ~7u) << text;
        ++should_be_zero;
      } else if (in.op == Op::kCmpHi && in.rn < 8 && in.rm < 8) {
        ASSERT_EQ(out.op, Op::kCmpReg) << text;
        ++low_cmp;
      } else {
        ASSERT_EQ(a1, hw1) << text;
        ASSERT_EQ(a2, in.length == 2 ? hw2 : 0) << text;
      }
    }
  }
  EXPECT_EQ(valid, 291947u);
  EXPECT_EQ(should_be_zero, 224u * 5u);
  EXPECT_EQ(low_cmp, 64u * 5u);
}

TEST(DisassemblerTest, ProducesReadableText) {
  Instr in;
  in.op = Op::kAddReg;
  in.rd = 0;
  in.rn = 1;
  in.rm = 2;
  EXPECT_EQ(Disassemble(in), "adds r0, r1, r2");
  in.op = Op::kLdrbImm;
  in.rd = 3;
  in.rn = 4;
  in.imm = 5;
  EXPECT_EQ(Disassemble(in), "ldrb r3, [r4, #5]");
}

// ---------------------------------------------------------------------------
// Assembler.
// ---------------------------------------------------------------------------

TEST(AssemblerTest, AssemblesMinimalFunction) {
  const AssembledProgram p = Assemble(R"(
    movs r0, #42
    bx lr
  )", 0x08000000);
  ASSERT_EQ(p.bytes.size(), 4u);
  EXPECT_EQ(p.bytes[0], 0x2A);  // movs r0, #42 = 0x202A
  EXPECT_EQ(p.bytes[1], 0x20);
  EXPECT_EQ(p.bytes[2], 0x70);  // bx lr = 0x4770
  EXPECT_EQ(p.bytes[3], 0x47);
}

TEST(AssemblerTest, ResolvesForwardAndBackwardBranches) {
  const AssembledProgram p = Assemble(R"(
start:
    movs r0, #0
loop:
    adds r0, r0, #1
    cmp r0, #10
    bne loop
    b end
    nop
end:
    bx lr
  )", 0x08000000);
  EXPECT_EQ(p.SymbolAddr("start"), 0x08000000u);
  EXPECT_EQ(p.SymbolAddr("loop"), 0x08000002u);
  // bne loop at offset 6: offset = 2 - (6+4) = -8 → 0xD1FC.
  EXPECT_EQ(p.bytes[6], 0xFC);
  EXPECT_EQ(p.bytes[7], 0xD1);
}

TEST(AssemblerTest, LiteralPoolLoads) {
  const AssembledProgram p = Assemble(R"(
    ldr r0, =0x12345678
    bx lr
  )", 0x08000100);
  // 2 instructions (4 bytes) + pool (4 bytes, aligned).
  ASSERT_EQ(p.bytes.size(), 8u);
  EXPECT_EQ(p.bytes[4], 0x78);
  EXPECT_EQ(p.bytes[5], 0x56);
  EXPECT_EQ(p.bytes[6], 0x34);
  EXPECT_EQ(p.bytes[7], 0x12);
  // ldr r0, [pc, #0]: pc base = align(0x100+4,4)=0x104; literal at 0x104.
  EXPECT_EQ(p.bytes[0], 0x00);
  EXPECT_EQ(p.bytes[1], 0x48);
}

TEST(AssemblerTest, LiteralPoolReferencesLabel) {
  const AssembledProgram p = Assemble(R"(
    ldr r1, =table
    bx lr
    .align 2
table:
    .word 7, 8
  )", 0x08000000);
  const uint32_t table_addr = p.SymbolAddr("table");
  EXPECT_EQ(table_addr, 0x08000004u);
  // Pool entry holds the table address; pool is after .word data (offset 12).
  ASSERT_GE(p.bytes.size(), 16u);
  const uint32_t pool_val = static_cast<uint32_t>(p.bytes[12]) | (p.bytes[13] << 8) |
                            (p.bytes[14] << 16) | (static_cast<uint32_t>(p.bytes[15]) << 24);
  EXPECT_EQ(pool_val, table_addr);
}

TEST(AssemblerTest, DataDirectives) {
  const AssembledProgram p = Assemble(R"(
data:
    .byte 1, 2, 3
    .align 2
words:
    .word 0xAABBCCDD
  )", 0x08000000);
  EXPECT_EQ(p.bytes[0], 1);
  EXPECT_EQ(p.bytes[2], 3);
  EXPECT_EQ(p.SymbolAddr("words"), 0x08000004u);
  EXPECT_EQ(p.bytes[4], 0xDD);
  EXPECT_EQ(p.bytes[7], 0xAA);
}

TEST(AssemblerTest, MemoryOperandForms) {
  const AssembledProgram p = Assemble(R"(
    ldr r0, [r1]
    ldr r0, [r1, #8]
    ldr r0, [r1, r2]
    ldrb r3, [r4, #1]
    ldrsh r5, [r6, r7]
    strh r2, [r3, #6]
    str r1, [sp, #12]
  )", 0);
  ASSERT_EQ(p.bytes.size(), 14u);
  // Spot-check a couple of encodings.
  const uint16_t i0 = static_cast<uint16_t>(p.bytes[0] | (p.bytes[1] << 8));
  EXPECT_EQ(DecodeInstr(i0, 0).op, Op::kLdrImm);
  EXPECT_EQ(DecodeInstr(i0, 0).imm, 0);
  const uint16_t i6 = static_cast<uint16_t>(p.bytes[12] | (p.bytes[13] << 8));
  EXPECT_EQ(DecodeInstr(i6, 0).op, Op::kStrSp);
  EXPECT_EQ(DecodeInstr(i6, 0).imm, 12);
}

TEST(AssemblerTest, RegListParsing) {
  const AssembledProgram p = Assemble("push {r4-r6, lr}\npop {r4-r6, pc}\n", 0);
  const uint16_t push = static_cast<uint16_t>(p.bytes[0] | (p.bytes[1] << 8));
  const uint16_t pop = static_cast<uint16_t>(p.bytes[2] | (p.bytes[3] << 8));
  EXPECT_EQ(DecodeInstr(push, 0).reglist, 0x170);
  EXPECT_EQ(DecodeInstr(pop, 0).reglist, 0x170);
  EXPECT_EQ(DecodeInstr(pop, 0).op, Op::kPop);
}

TEST(AssemblerTest, CommentsAndBlankLinesIgnored) {
  const AssembledProgram p = Assemble(R"(
    @ full line comment
    movs r0, #1   // trailing
    ; another style

    bx lr
  )", 0);
  EXPECT_EQ(p.bytes.size(), 4u);
}

TEST(AssemblerTest, BlEncodesNegativeOffset) {
  const AssembledProgram p = Assemble(R"(
target:
    nop
    bl target
  )", 0x08000000);
  const uint16_t hw1 = static_cast<uint16_t>(p.bytes[2] | (p.bytes[3] << 8));
  const uint16_t hw2 = static_cast<uint16_t>(p.bytes[4] | (p.bytes[5] << 8));
  const Instr in = DecodeInstr(hw1, hw2);
  EXPECT_EQ(in.op, Op::kBl);
  // target(0) - (bl addr 2 + 4) = -6.
  EXPECT_EQ(in.imm, -6);
}

TEST(AssemblerTest, DuplicateLabelAborts) {
  EXPECT_DEATH(Assemble("a:\nnop\na:\nnop\n", 0), "duplicate label");
}

TEST(AssemblerTest, UndefinedLabelAborts) {
  EXPECT_DEATH(Assemble("b nowhere\n", 0), "undefined label");
}

TEST(AssemblerTest, UnknownMnemonicAborts) {
  EXPECT_DEATH(Assemble("frobnicate r0\n", 0), "unknown mnemonic");
}

// The literal pool always follows the last statement; there is no directive to place it.
TEST(AssemblerTest, PoolDirectiveAborts) {
  EXPECT_DEATH(Assemble("ldr r0, =0x12345678\n.pool\nnop\n", 0), "unknown mnemonic: .pool");
}

TEST(AssemblerTest, AluAliases) {
  // movs rd, rm becomes lsls rd, rm, #0; negs becomes rsbs.
  const AssembledProgram p = Assemble("movs r1, r2\nnegs r0, r3\nmuls r2, r4, r2\n", 0);
  const uint16_t i0 = static_cast<uint16_t>(p.bytes[0] | (p.bytes[1] << 8));
  EXPECT_EQ(DecodeInstr(i0, 0).op, Op::kLslImm);
  EXPECT_EQ(DecodeInstr(i0, 0).imm, 0);
  const uint16_t i1 = static_cast<uint16_t>(p.bytes[2] | (p.bytes[3] << 8));
  EXPECT_EQ(DecodeInstr(i1, 0).op, Op::kNeg);
  const uint16_t i2 = static_cast<uint16_t>(p.bytes[4] | (p.bytes[5] << 8));
  EXPECT_EQ(DecodeInstr(i2, 0).op, Op::kMul);
  EXPECT_EQ(DecodeInstr(i2, 0).rd, 2);
  EXPECT_EQ(DecodeInstr(i2, 0).rm, 4);
}

TEST(EncoderTest, LdmStmRoundTrip) {
  for (Op op : {Op::kLdm, Op::kStm}) {
    for (uint16_t list : {uint16_t{0x01}, uint16_t{0x06}, uint16_t{0xFF}}) {
      Instr in;
      in.op = op;
      in.rn = 2;
      in.reglist = list;
      uint16_t hw[2];
      ASSERT_EQ(EncodeInstr(in, hw), 1);
      const Instr out = DecodeInstr(hw[0], 0);
      EXPECT_EQ(out.op, op);
      EXPECT_EQ(out.rn, in.rn);
      EXPECT_EQ(out.reglist, list);
    }
  }
}

TEST(AssemblerTest, LdmStmSyntax) {
  const AssembledProgram p = Assemble("stmia r0!, {r1, r2}\nldmia r3!, {r4-r6}\n", 0);
  const uint16_t i0 = static_cast<uint16_t>(p.bytes[0] | (p.bytes[1] << 8));
  const uint16_t i1 = static_cast<uint16_t>(p.bytes[2] | (p.bytes[3] << 8));
  EXPECT_EQ(DecodeInstr(i0, 0).op, Op::kStm);
  EXPECT_EQ(DecodeInstr(i0, 0).reglist, 0x06);
  EXPECT_EQ(DecodeInstr(i1, 0).op, Op::kLdm);
  EXPECT_EQ(DecodeInstr(i1, 0).rn, 3);
  EXPECT_EQ(DecodeInstr(i1, 0).reglist, 0x70);
}

TEST(AssemblerTest, LdmRejectsHighRegisters) {
  EXPECT_DEATH(Assemble("ldmia r0!, {r1, lr}\n", 0), "low registers");
}

TEST(DisassemblerTest, LdmStmText) {
  Instr in;
  in.op = Op::kStm;
  in.rn = 1;
  in.reglist = 0x0C;
  EXPECT_EQ(Disassemble(in), "stmia r1!, {r2, r3}");
}

}  // namespace
}  // namespace neuroc
