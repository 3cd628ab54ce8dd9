// The encoder, decoder, disassembler and static facts, derived from NEUROC_THUMB_OPS: one
// pack, one unpack and one operand syntax per form.

#include "src/isa/isa.h"

#include <array>
#include <cstdio>

#include "src/common/check.h"

namespace neuroc {

namespace {

// The bits of the first halfword a form's operands leave free: a row matches a halfword
// when these bits equal its fixed bits.
constexpr uint16_t FormMask(Form form) {
  switch (form) {
    case Form::kNone:
      return 0xFFFF;
    case Form::kRdnRm:
    case Form::kRdRm:
      return 0xFFC0;
    case Form::kRm:
    case Form::kImm7:
      return 0xFF80;
    case Form::kHiRdRm:
    case Form::kHiRnRm:
    case Form::kImm8:
      return 0xFF00;
    case Form::kRdRnRm:
    case Form::kRdRnImm3:
    case Form::kRegList9:
      return 0xFE00;
    case Form::kRdRmImm5:
    case Form::kRdRnImm5:
    case Form::kRdImm8:
    case Form::kRnImm8:
    case Form::kRdPcImm8:
    case Form::kRdSpImm8:
    case Form::kRnRegList8:
    case Form::kImm11:
    case Form::kImm24:
      return 0xF800;
    case Form::kCondImm8:
      return 0xF000;
  }
  return 0xFFFF;
}

// The decode index: for each value of a halfword's top five bits, the rows whose fixed
// bits agree with it, in row order. A decode compares a handful of rows, not all of them.
constexpr int kBucketShift = 11;
constexpr size_t kNumBuckets = size_t{1} << (16 - kBucketShift);

struct DecodeCandidate {
  uint16_t mask = 0;
  uint16_t bits = 0;
  Op op = Op::kInvalid;
  Form form = Form::kNone;
  uint8_t scale = 1;
};

constexpr bool BucketAdmits(size_t bucket, const OpInfo& row) {
  const uint16_t mask = FormMask(row.form) & static_cast<uint16_t>(0xFFFFu << kBucketShift);
  return ((bucket << kBucketShift) & mask) == (row.bits & mask);
}

constexpr size_t CountCandidates() {
  size_t n = 0;
  for (size_t b = 0; b < kNumBuckets; ++b) {
    for (const OpInfo& row : kOpTable) {
      n += BucketAdmits(b, row) ? 1 : 0;
    }
  }
  return n;
}

struct DecodeIndex {
  static_assert(CountCandidates() < 256, "bucket offsets are bytes");
  std::array<uint8_t, kNumBuckets + 1> begin{};  // bucket b is rows[begin[b], begin[b + 1])
  std::array<DecodeCandidate, CountCandidates()> rows{};
};

constexpr DecodeIndex kDecodeIndex = [] {
  DecodeIndex index;
  size_t n = 0;
  for (size_t b = 0; b < kNumBuckets; ++b) {
    index.begin[b] = static_cast<uint8_t>(n);
    for (size_t op = 0; op < kNumOps; ++op) {
      const OpInfo& row = kOpTable[op];
      if (BucketAdmits(b, row)) {
        index.rows[n++] = {FormMask(row.form), row.bits, static_cast<Op>(op), row.form,
                           row.scale};
      }
    }
  }
  index.begin[kNumBuckets] = static_cast<uint8_t>(n);
  return index;
}();

int32_t SignExtend(uint32_t value, int bits) {
  const uint32_t mask = 1u << (bits - 1);
  return static_cast<int32_t>((value ^ mask) - mask);
}

// Unpacks the operands of a halfword that matched `row`. False when the halfwords
// are another instruction the form's mask admits: condition 1110 (UDF) or 1111 (SVC), or
// a 32-bit prefix without BL's second halfword. An empty register list is UNPREDICTABLE
// in ARMv6-M; it decodes as kInvalid with its fields, which keeps every valid decode
// re-encodable (the encoder rejects empty lists).
bool Unpack(const DecodeCandidate& row, uint16_t hw, uint16_t hw2, Instr& in) {
  const auto field = [hw](int shift, int width) {
    return static_cast<uint32_t>(hw >> shift) & ((1u << width) - 1);
  };
  const auto lo = [&](int shift) { return static_cast<uint8_t>(field(shift, 3)); };
  const auto hi_rdn = [&] { return static_cast<uint8_t>(field(0, 3) | (field(7, 1) << 3)); };
  const auto imm = [&](uint32_t units) { return static_cast<int32_t>(units * row.scale); };
  const auto simm = [&](uint32_t units, int width) {
    return SignExtend(units, width) * row.scale;
  };
  in.op = row.op;
  switch (row.form) {
    case Form::kNone:
      break;
    case Form::kRdRmImm5:
      in.rd = lo(0);
      in.rm = lo(3);
      in.imm = imm(field(6, 5));
      break;
    case Form::kRdRnRm:
      in.rd = lo(0);
      in.rn = lo(3);
      in.rm = lo(6);
      break;
    case Form::kRdRnImm3:
      in.rd = lo(0);
      in.rn = lo(3);
      in.imm = imm(field(6, 3));
      break;
    case Form::kRdRnImm5:
      in.rd = lo(0);
      in.rn = lo(3);
      in.imm = imm(field(6, 5));
      break;
    case Form::kRdImm8:
    case Form::kRdPcImm8:
    case Form::kRdSpImm8:
      in.rd = lo(8);
      in.imm = imm(field(0, 8));
      break;
    case Form::kRnImm8:
      in.rn = lo(8);
      in.imm = imm(field(0, 8));
      break;
    case Form::kRdnRm:
      in.rd = lo(0);
      in.rn = in.rd;
      in.rm = lo(3);
      break;
    case Form::kRdRm:
      in.rd = lo(0);
      in.rm = lo(3);
      break;
    case Form::kHiRdRm:
      in.rd = hi_rdn();
      in.rm = static_cast<uint8_t>(field(3, 4));
      break;
    case Form::kHiRnRm:
      in.rn = hi_rdn();
      in.rm = static_cast<uint8_t>(field(3, 4));
      break;
    case Form::kRm:
      in.rm = static_cast<uint8_t>(field(3, 4));
      break;
    case Form::kImm7:
      in.imm = imm(field(0, 7));
      break;
    case Form::kImm8:
      in.imm = imm(field(0, 8));
      break;
    case Form::kRegList9:
      in.reglist = static_cast<uint16_t>(field(0, 9));
      break;
    case Form::kRnRegList8:
      in.rn = lo(8);
      in.reglist = static_cast<uint16_t>(field(0, 8));
      break;
    case Form::kCondImm8:
      if (field(8, 4) >= 14) {
        return false;
      }
      in.cond = static_cast<Cond>(field(8, 4));
      in.imm = simm(field(0, 8), 8);
      break;
    case Form::kImm11:
      in.imm = simm(field(0, 11), 11);
      break;
    case Form::kImm24: {
      if ((hw2 & 0xD000) != 0xD000) {
        return false;
      }
      const uint32_t s = field(10, 1);
      const uint32_t i1 = (~((hw2 >> 13) ^ s)) & 1;
      const uint32_t i2 = (~((hw2 >> 11) ^ s)) & 1;
      in.imm = simm((s << 23) | (i1 << 22) | (i2 << 21) | (field(0, 10) << 11) | (hw2 & 0x7FF),
                    24);
      in.length = 2;
      break;
    }
  }
  if ((row.form == Form::kRegList9 || row.form == Form::kRnRegList8) && in.reglist == 0) {
    in.op = Op::kInvalid;
  }
  return true;
}

// `use` (RegUse roles) over `in`'s operands, as a mask over r0..r15.
uint16_t RegMask(uint8_t use, const Instr& in) {
  uint32_t mask = 0;
  if (use & kUseRd) {
    mask |= 1u << in.rd;
  }
  if (use & kUseRn) {
    mask |= 1u << in.rn;
  }
  if (use & kUseRm) {
    mask |= 1u << in.rm;
  }
  if (use & kUseSp) {
    mask |= 1u << kRegSp;
  }
  if (use & kUseLr) {
    mask |= 1u << kRegLr;
  }
  if (use & kUseList) {
    mask |= in.reglist & 0xFFu;
    if (in.reglist & 0x100) {
      mask |= 1u << ListBit8(in.op);
    }
  }
  if ((use & kUseRnWb) && (in.reglist & (1u << in.rn)) == 0) {
    mask |= 1u << in.rn;
  }
  return static_cast<uint16_t>(mask);
}

}  // namespace

const char* OpName(Op op) {
  const size_t index = static_cast<size_t>(op);
  return index < kNumOps ? kOpTable[index].mnemonic : "?";
}

const char* CondName(Cond cond) {
  switch (cond) {
    case Cond::kEq: return "eq";
    case Cond::kNe: return "ne";
    case Cond::kCs: return "cs";
    case Cond::kCc: return "cc";
    case Cond::kMi: return "mi";
    case Cond::kPl: return "pl";
    case Cond::kVs: return "vs";
    case Cond::kVc: return "vc";
    case Cond::kHi: return "hi";
    case Cond::kLs: return "ls";
    case Cond::kGe: return "ge";
    case Cond::kLt: return "lt";
    case Cond::kGt: return "gt";
    case Cond::kLe: return "le";
    case Cond::kAl: return "";
  }
  return "?";
}

const char* RegName(uint8_t reg) {
  static const char* kNames[16] = {"r0", "r1", "r2",  "r3",  "r4", "r5", "r6", "r7",
                                   "r8", "r9", "r10", "r11", "r12", "sp", "lr", "pc"};
  return reg < 16 ? kNames[reg] : "?";
}

int EncodeInstr(const Instr& in, uint16_t hw[2], const char** misfit) {
  NEUROC_CHECK(in.op != Op::kInvalid && static_cast<size_t>(in.op) < kNumOps);
  const OpInfo& info = InfoOf(in.op);
  const char* why = nullptr;
  const auto fits = [&why](bool ok, const char* what) {
    if (!ok && why == nullptr) {
      why = what;
    }
    return ok;
  };
  const auto lo = [&](uint8_t reg, int shift) {
    return fits(reg < 8, "needs low registers") ? static_cast<uint32_t>(reg) << shift : 0;
  };
  const auto hi_rdn_rm = [&](uint8_t rdn, uint8_t rm) {
    fits(rdn < 16 && rm < 16, "no such register");
    return static_cast<uint32_t>(((rdn & 8) << 4) | (rm << 3) | (rdn & 7));
  };
  const auto imm = [&](int shift, int width) {
    return fits(in.imm >= 0 && in.imm % info.scale == 0 && in.imm / info.scale < (1 << width),
                "immediate out of range")
               ? static_cast<uint32_t>(in.imm / info.scale) << shift
               : 0;
  };
  const auto simm = [&](int width) {
    const int32_t units = in.imm / info.scale;
    fits(in.imm % info.scale == 0 && units >= -(1 << (width - 1)) &&
             units < (1 << (width - 1)),
         "offset out of range");
    return static_cast<uint32_t>(units) & ((1u << width) - 1);
  };
  const auto list = [&](int width) {
    fits(in.reglist != 0, "empty register list");
    fits((in.reglist >> width) == 0, "needs low registers");
    return static_cast<uint32_t>(in.reglist);
  };
  uint32_t fields = 0;
  int length = 1;
  switch (info.form) {
    case Form::kNone:
      break;
    case Form::kRdRmImm5:
      fields = imm(6, 5) | lo(in.rm, 3) | lo(in.rd, 0);
      break;
    case Form::kRdRnRm:
      fields = lo(in.rm, 6) | lo(in.rn, 3) | lo(in.rd, 0);
      break;
    case Form::kRdRnImm3:
      fields = imm(6, 3) | lo(in.rn, 3) | lo(in.rd, 0);
      break;
    case Form::kRdRnImm5:
      fields = imm(6, 5) | lo(in.rn, 3) | lo(in.rd, 0);
      break;
    case Form::kRdImm8:
    case Form::kRdPcImm8:
    case Form::kRdSpImm8:
      fields = lo(in.rd, 8) | imm(0, 8);
      break;
    case Form::kRnImm8:
      fields = lo(in.rn, 8) | imm(0, 8);
      break;
    case Form::kRdnRm:
    case Form::kRdRm:
      fields = lo(in.rm, 3) | lo(in.rd, 0);
      break;
    case Form::kHiRdRm:
      fields = hi_rdn_rm(in.rd, in.rm);
      break;
    case Form::kHiRnRm:
      fields = hi_rdn_rm(in.rn, in.rm);
      break;
    case Form::kRm:
      fields = fits(in.rm < 16, "no such register") ? static_cast<uint32_t>(in.rm) << 3 : 0;
      break;
    case Form::kImm7:
      fields = imm(0, 7);
      break;
    case Form::kImm8:
      fields = imm(0, 8);
      break;
    case Form::kRegList9:
      fields = list(9);
      break;
    case Form::kRnRegList8:
      fields = lo(in.rn, 8) | list(8);
      break;
    case Form::kCondImm8:
      fits(in.cond < Cond::kAl, "no such condition");
      fields = (static_cast<uint32_t>(in.cond) << 8) | simm(8);
      break;
    case Form::kImm11:
      fields = simm(11);
      break;
    case Form::kImm24: {
      const uint32_t v = simm(24);
      const uint32_t s = v >> 23;
      // From the ARM ARM: I1 = NOT(J1 EOR S) => J1 = NOT(I1) EOR S (and likewise for J2).
      const uint32_t j1 = (~(v >> 22) & 1) ^ s;
      const uint32_t j2 = (~(v >> 21) & 1) ^ s;
      fields = (s << 10) | ((v >> 11) & 0x3FF);
      hw[1] = static_cast<uint16_t>(0xD000 | (j1 << 13) | (j2 << 11) | (v & 0x7FF));
      length = 2;
      break;
    }
  }
  if (why != nullptr) {
    if (misfit != nullptr) {
      *misfit = why;
    }
    return 0;
  }
  hw[0] = static_cast<uint16_t>(info.bits | fields);
  return length;
}

Instr DecodeInstr(uint16_t hw, uint16_t hw2) {
  const size_t bucket = hw >> kBucketShift;
  for (size_t i = kDecodeIndex.begin[bucket]; i < kDecodeIndex.begin[bucket + 1]; ++i) {
    const DecodeCandidate& c = kDecodeIndex.rows[i];
    Instr in;
    if ((hw & c.mask) == c.bits && Unpack(c, hw, hw2, in)) {
      return in;
    }
  }
  return Instr{};
}

std::string Disassemble(const Instr& in, uint32_t addr) {
  if (in.op == Op::kInvalid) {
    return "<invalid>";
  }
  const bool movs = in.op == Op::kLslImm && in.imm == 0;
  std::string s = movs ? kAliases[0].mnemonic : OpName(in.op);
  if (InfoOf(in.op).form == Form::kCondImm8) {
    s += CondName(in.cond);
  }
  const char* syntax = movs ? kAliases[0].syntax : OperandSyntax(in.op);
  if (*syntax != '\0') {
    s += ' ';
  }
  for (const char* c = syntax; *c != '\0'; ++c) {
    switch (*c) {
      case 'd':
        s += RegName(in.rd);
        break;
      case 'n':
        s += RegName(in.rn);
        break;
      case 'm':
        s += RegName(in.rm);
        break;
      case 'i':
        s += std::to_string(in.imm);
        break;
      case 'l': {
        const char* sep = "";
        for (int r = 0; r < 9; ++r) {
          if (in.reglist & (1 << r)) {
            s += sep;
            s += RegName(r < 8 ? static_cast<uint8_t>(r) : ListBit8(in.op));
            sep = ", ";
          }
        }
        break;
      }
      case 'a': {
        char hex[12];
        std::snprintf(hex, sizeof(hex), "0x%x",
                      PcBase(in.op, addr) + static_cast<uint32_t>(in.imm));
        s += hex;
        break;
      }
      default:
        s += *c;
    }
  }
  return s;
}

const char* OperandSyntax(Op op) {
  const OpInfo& info = InfoOf(op);
  const bool mem = info.op_class == OpClass::kLoad || info.op_class == OpClass::kStore;
  switch (info.form) {
    case Form::kNone:
      return "";
    case Form::kRdRmImm5:
      return "d, m, #i";
    case Form::kRdRnRm:
      return mem ? "d, [n, m]" : "d, n, m";
    case Form::kRdRnImm3:
      return "d, n, #i";
    case Form::kRdRnImm5:
      return "d, [n, #i]";
    case Form::kRdImm8:
      return "d, #i";
    case Form::kRnImm8:
      return "n, #i";
    case Form::kRdPcImm8:
      return mem ? "d, [pc, #i]" : "d, #i";
    case Form::kRdSpImm8:
      return mem ? "d, [sp, #i]" : "d, sp, #i";
    case Form::kRdnRm:  // a compare's first operand is rn, which its decode sets equal to rd
    case Form::kRdRm:
    case Form::kHiRdRm:
      return "d, m";
    case Form::kHiRnRm:
      return "n, m";
    case Form::kRm:
      return "m";
    case Form::kImm7:
      return "sp, #i";
    case Form::kImm8:
      return "#i";
    case Form::kRegList9:
      return "{l}";
    case Form::kRnRegList8:
      return "n!, {l}";
    case Form::kCondImm8:
    case Form::kImm11:
    case Form::kImm24:
      return "a";
  }
  return "";
}

FlagEffects FlagEffectsOf(Op op, int32_t imm) {
  constexpr uint8_t kNZ = kFlagN | kFlagZ;
  constexpr uint8_t kNZC = kNZ | kFlagC;
  constexpr uint8_t kNZCV = kNZC | kFlagV;
  switch (InfoOf(op).flags) {
    case FlagUse::kNone:
      return {};
    case FlagUse::kNZ:
      return {0, kNZ, kNZ};
    case FlagUse::kNZC:
      return {0, kNZC, kNZC};
    case FlagUse::kNZCV:
      return {0, kNZCV, kNZCV};
    case FlagUse::kNZCImm:
      return imm == 0 ? FlagEffects{0, kNZ, kNZ} : FlagEffects{0, kNZC, kNZC};
    case FlagUse::kNZShiftC:
      return {0, kNZC, kNZ};
    case FlagUse::kCToNZCV:
      return {kFlagC, kNZCV, kNZCV};
    case FlagUse::kCond:
      return {kNZCV, 0, 0};
  }
  return {};
}

RegEffects RegEffectsOf(const Instr& in) {
  constexpr uint16_t kNotPc = static_cast<uint16_t>(~(1u << kRegPc));
  const OpInfo& info = InfoOf(in.op);
  return {static_cast<uint16_t>(RegMask(info.reads, in) & kNotPc),
          static_cast<uint16_t>(RegMask(info.writes, in) & kNotPc)};
}

}  // namespace neuroc
