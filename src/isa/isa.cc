// The encoder, decoder, disassembler and static facts, derived from NEUROC_THUMB_OPS: one
// pack, one unpack and one print per operand form.

#include "src/isa/isa.h"

#include <array>
#include <cstdarg>
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

// `use` (RegUse roles) over `in`'s operands, as a mask over r0..r15. A register list's
// bit 8 is LR when the list is read (PUSH) and PC when it is written (POP).
uint16_t RegMask(uint8_t use, const Instr& in, bool written) {
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
      mask |= 1u << (written ? kRegPc : kRegLr);
    }
  }
  if ((use & kUseRnWb) && (in.reglist & (1u << in.rn)) == 0) {
    mask |= 1u << in.rn;
  }
  return static_cast<uint16_t>(mask);
}

[[gnu::format(printf, 1, 2)]] std::string Format(const char* fmt, ...) {
  char buf[96];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);
  return buf;
}

// "{r0, r4, lr}", naming bit 8 `bit8`.
std::string RegList(uint16_t mask, const char* bit8) {
  std::string s = "{";
  for (int r = 0; r < 9; ++r) {
    if (mask & (1 << r)) {
      if (s.size() > 1) {
        s += ", ";
      }
      s += r < 8 ? RegName(static_cast<uint8_t>(r)) : bit8;
    }
  }
  s += '}';
  return s;
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

int EncodeInstr(const Instr& in, uint16_t hw[2]) {
  NEUROC_CHECK(in.op != Op::kInvalid && static_cast<size_t>(in.op) < kNumOps);
  const OpInfo& info = InfoOf(in.op);
  const auto lo = [](uint8_t reg, int shift) {
    NEUROC_CHECK(reg < 8);
    return static_cast<uint32_t>(reg) << shift;
  };
  const auto hi_rdn_rm = [](uint8_t rdn, uint8_t rm) {
    NEUROC_CHECK(rdn < 16 && rm < 16);
    return static_cast<uint32_t>(((rdn & 8) << 4) | (rm << 3) | (rdn & 7));
  };
  const auto imm = [&](int shift, int width) {
    NEUROC_CHECK(in.imm >= 0 && in.imm % info.scale == 0 &&
                 in.imm / info.scale < (1 << width));
    return static_cast<uint32_t>(in.imm / info.scale) << shift;
  };
  const auto simm = [&](int width) {
    NEUROC_CHECK(in.imm % info.scale == 0);
    const int32_t units = in.imm / info.scale;
    NEUROC_CHECK(units >= -(1 << (width - 1)) && units < (1 << (width - 1)));
    return static_cast<uint32_t>(units) & ((1u << width) - 1);
  };
  const auto list = [&](int width) {
    NEUROC_CHECK(in.reglist != 0 && (in.reglist >> width) == 0);
    return static_cast<uint32_t>(in.reglist);
  };
  uint32_t fields = 0;
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
      NEUROC_CHECK(in.rm < 16);
      fields = static_cast<uint32_t>(in.rm) << 3;
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
      NEUROC_CHECK(in.cond != Cond::kAl);
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
      hw[0] = static_cast<uint16_t>(info.bits | (s << 10) | ((v >> 11) & 0x3FF));
      hw[1] = static_cast<uint16_t>(0xD000 | (j1 << 13) | (j2 << 11) | (v & 0x7FF));
      return 2;
    }
  }
  hw[0] = static_cast<uint16_t>(info.bits | fields);
  return 1;
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
  const OpInfo& info = InfoOf(in.op);
  const char* name = info.mnemonic;
  const bool mem = info.op_class == OpClass::kLoad || info.op_class == OpClass::kStore;
  const char* d = RegName(in.rd);
  const char* n = RegName(in.rn);
  const char* m = RegName(in.rm);
  const uint32_t target = addr + 4 + static_cast<uint32_t>(in.imm);
  switch (info.form) {
    case Form::kNone:
      return name;
    case Form::kRdRmImm5:
      if (in.op == Op::kLslImm && in.imm == 0) {
        return Format("movs %s, %s", d, m);
      }
      return Format("%s %s, %s, #%d", name, d, m, in.imm);
    case Form::kRdRnRm:
      return Format(mem ? "%s %s, [%s, %s]" : "%s %s, %s, %s", name, d, n, m);
    case Form::kRdRnImm3:
      return Format("%s %s, %s, #%d", name, d, n, in.imm);
    case Form::kRdRnImm5:
      return Format("%s %s, [%s, #%d]", name, d, n, in.imm);
    case Form::kRdImm8:
      return Format("%s %s, #%d", name, d, in.imm);
    case Form::kRnImm8:
      return Format("%s %s, #%d", name, n, in.imm);
    case Form::kRdPcImm8:
      return Format(mem ? "%s %s, [pc, #%d]" : "%s %s, #%d", name, d, in.imm);
    case Form::kRdSpImm8:
      return Format(mem ? "%s %s, [sp, #%d]" : "%s %s, sp, #%d", name, d, in.imm);
    case Form::kRdnRm:
      // A compare writes no register; its first operand is rn.
      return Format("%s %s, %s", name, (info.writes & kUseRd) ? d : n, m);
    case Form::kRdRm:
    case Form::kHiRdRm:
      return Format("%s %s, %s", name, d, m);
    case Form::kHiRnRm:
      return Format("%s %s, %s", name, n, m);
    case Form::kRm:
      return Format("%s %s", name, m);
    case Form::kImm7:
      return Format("%s sp, #%d", name, in.imm);
    case Form::kImm8:
      return Format("%s #%d", name, in.imm);
    case Form::kRegList9:
      return Format("%s %s", name,
                    RegList(in.reglist, (info.writes & kUseList) ? "pc" : "lr").c_str());
    case Form::kRnRegList8:
      return Format("%s %s!, %s", name, n, RegList(in.reglist, "lr").c_str());
    case Form::kCondImm8:
      return Format("%s%s 0x%x", name, CondName(in.cond), target);
    case Form::kImm11:
    case Form::kImm24:
      return Format("%s 0x%x", name, target);
  }
  return "<invalid>";
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
  return {static_cast<uint16_t>(RegMask(info.reads, in, false) & kNotPc),
          static_cast<uint16_t>(RegMask(info.writes, in, true) & kNotPc)};
}

}  // namespace neuroc
