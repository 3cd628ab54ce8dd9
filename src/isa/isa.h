// ARMv6-M (Thumb-1 subset) instruction model.
//
// The simulated target mirrors the paper's deployment platform: an STM32F072 Cortex-M0.
// Encodings follow the ARMv6-M Architecture Reference Manual; the subset covers everything
// the inference kernels and their tests need (all Thumb-1 data-processing, load/store,
// stack, extend/reverse, branch and BL instructions; no system instructions).
//
// NEUROC_THUMB_OPS is the one statement of each op's static facts. A row gives:
//   name, mnemonic  the Op enumerator and the disassembler's mnemonic;
//   form            the bit layout of its operands (Form below);
//   bits            its fixed bits: the first halfword with every operand field zero;
//   scale           bytes per unit of its immediate field (branch offsets: 2);
//   class           what it does for the cycle and energy accounting (OpClass);
//   flags           which APSR flags it reads and writes (FlagUse);
//   reads, writes   which registers it reads and writes (RegUse roles).
// Everything else is derived from the rows: the encoder and the decoder are one pack and
// one unpack per form, and each form's operand syntax (OperandSyntax) is both what the
// disassembler prints and what the assembler parses; the simulator's dispatch tables, its
// static cycle costs, the block compiler's flag liveness, register masks, may-fault and
// terminator tests, and the profile's categories all read these columns. Adding an op
// takes one row here and one body in src/sim/thumb_ops.inc.

#ifndef NEUROC_SRC_ISA_ISA_H_
#define NEUROC_SRC_ISA_ISA_H_

#include <cstddef>
#include <cstdint>
#include <string>

namespace neuroc {

// Register numbers: r0..r12, sp=13, lr=14, pc=15.
inline constexpr uint8_t kRegSp = 13;
inline constexpr uint8_t kRegLr = 14;
inline constexpr uint8_t kRegPc = 15;

// Operand bit layouts. Fields are listed high to low; rd/rn/rm are low registers (3 bits)
// unless marked hi (4 bits, the top bit apart). Immediates are unsigned unless signed,
// and scaled by the row's `scale`.
enum class Form : uint8_t {
  kNone,         // no operands
  kRdRmImm5,     // imm5[10:6] rm[5:3] rd[2:0]
  kRdRnRm,       // rm[8:6] rn[5:3] rd[2:0]
  kRdRnImm3,     // imm3[8:6] rn[5:3] rd[2:0]
  kRdRnImm5,     // imm5[10:6] rn[5:3] rd[2:0]
  kRdImm8,       // rd[10:8] imm8[7:0]
  kRnImm8,       // rn[10:8] imm8[7:0]
  kRdPcImm8,     // rd[10:8] imm8[7:0], an offset from the word-aligned pc
  kRdSpImm8,     // rd[10:8] imm8[7:0], an offset from sp
  kRdnRm,        // rm[5:3] rdn[2:0]: rd and rn name the same register
  kRdRm,         // rm[5:3] rd[2:0]
  kHiRdRm,       // hi rd[7,2:0] hi rm[6:3]
  kHiRnRm,       // hi rn[7,2:0] hi rm[6:3]
  kRm,           // hi rm[6:3]; bits [2:0] should be zero and are not matched
  kImm7,         // imm7[6:0]
  kImm8,         // imm8[7:0]
  kRegList9,     // reglist[8:0], not empty: bit 8 is lr when read (push), pc when written
  kRnRegList8,   // rn[10:8] reglist[7:0], not empty
  kCondImm8,     // cond[11:8] (not 1110 or 1111), signed imm8[7:0]
  kImm11,        // signed imm11[10:0]
  kImm24,        // two halfwords, S imm10[9:0] : 1 J1 1 J2 imm11[10:0], signed
                 // S:I1:I2:imm10:imm11 with I = NOT(J EOR S)
};

// What an op does, for the cycle model and the profile's and energy model's categories.
enum class OpClass : uint8_t { kAlu, kMul, kLoad, kStore, kBranch, kStack };
inline constexpr size_t kNumOpClasses = 6;

// APSR flag bits.
inline constexpr uint8_t kFlagN = 1;
inline constexpr uint8_t kFlagZ = 2;
inline constexpr uint8_t kFlagC = 4;
inline constexpr uint8_t kFlagV = 8;

// The flags an op reads and writes.
enum class FlagUse : uint8_t {
  kNone,       // neither
  kNZ,         // writes N, Z
  kNZC,        // writes N, Z, C
  kNZCV,       // writes N, Z, C, V
  kNZCImm,     // writes N, Z, and C unless the amount is 0 (LSL #0 is MOVS register)
  kNZShiftC,   // writes N, Z, and C only when the register-held amount is not 0
  kCToNZCV,    // reads C, writes N, Z, C, V
  kCond,       // reads N, Z, C, V
};

// Register roles, combined as masks in a row's `reads` and `writes` columns.
enum RegUse : uint8_t {
  kUseRd = 1,
  kUseRn = 2,
  kUseRm = 4,
  kUseSp = 8,
  kUseLr = 16,
  kUseList = 32,   // the register list (for kRegList9 see Form)
  kUseRnWb = 64,   // rn written back, unless the register list loads it
};

// clang-format off
#define NEUROC_THUMB_OPS(X)                                                                   \
  /* Row 0 is what a halfword no row matches decodes to. It also takes REV's reserved      \
     op2 = 2 slot, which decodes as invalid with the register fields of its family. */     \
  X(kInvalid,  "invalid", kRdRm,       0xBA80, 1, kAlu,    kNone,     0,                0)    \
  /* Shift (immediate). */                                                                  \
  X(kLslImm,   "lsls",    kRdRmImm5,   0x0000, 1, kAlu,    kNZCImm,   kUseRm,           kUseRd) \
  X(kLsrImm,   "lsrs",    kRdRmImm5,   0x0800, 1, kAlu,    kNZC,      kUseRm,           kUseRd) \
  X(kAsrImm,   "asrs",    kRdRmImm5,   0x1000, 1, kAlu,    kNZC,      kUseRm,           kUseRd) \
  /* Add/subtract register and 3-bit immediate. */                                          \
  X(kAddReg,   "adds",    kRdRnRm,     0x1800, 1, kAlu,    kNZCV,     kUseRn | kUseRm,  kUseRd) \
  X(kSubReg,   "subs",    kRdRnRm,     0x1A00, 1, kAlu,    kNZCV,     kUseRn | kUseRm,  kUseRd) \
  X(kAddImm3,  "adds",    kRdRnImm3,   0x1C00, 1, kAlu,    kNZCV,     kUseRn,           kUseRd) \
  X(kSubImm3,  "subs",    kRdRnImm3,   0x1E00, 1, kAlu,    kNZCV,     kUseRn,           kUseRd) \
  /* Move/compare/add/subtract 8-bit immediate. */                                          \
  X(kMovImm,   "movs",    kRdImm8,     0x2000, 1, kAlu,    kNZ,       0,                kUseRd) \
  X(kCmpImm,   "cmp",     kRnImm8,     0x2800, 1, kAlu,    kNZCV,     kUseRn,           0)    \
  X(kAddImm8,  "adds",    kRdImm8,     0x3000, 1, kAlu,    kNZCV,     kUseRd,           kUseRd) \
  X(kSubImm8,  "subs",    kRdImm8,     0x3800, 1, kAlu,    kNZCV,     kUseRd,           kUseRd) \
  /* Data processing (register). */                                                         \
  X(kAnd,      "ands",    kRdnRm,      0x4000, 1, kAlu,    kNZ,       kUseRd | kUseRm,  kUseRd) \
  X(kEor,      "eors",    kRdnRm,      0x4040, 1, kAlu,    kNZ,       kUseRd | kUseRm,  kUseRd) \
  X(kLslReg,   "lsls",    kRdnRm,      0x4080, 1, kAlu,    kNZShiftC, kUseRd | kUseRm,  kUseRd) \
  X(kLsrReg,   "lsrs",    kRdnRm,      0x40C0, 1, kAlu,    kNZShiftC, kUseRd | kUseRm,  kUseRd) \
  X(kAsrReg,   "asrs",    kRdnRm,      0x4100, 1, kAlu,    kNZShiftC, kUseRd | kUseRm,  kUseRd) \
  X(kAdc,      "adcs",    kRdnRm,      0x4140, 1, kAlu,    kCToNZCV,  kUseRd | kUseRm,  kUseRd) \
  X(kSbc,      "sbcs",    kRdnRm,      0x4180, 1, kAlu,    kCToNZCV,  kUseRd | kUseRm,  kUseRd) \
  X(kRor,      "rors",    kRdnRm,      0x41C0, 1, kAlu,    kNZShiftC, kUseRd | kUseRm,  kUseRd) \
  X(kTst,      "tst",     kRdnRm,      0x4200, 1, kAlu,    kNZ,       kUseRn | kUseRm,  0)    \
  X(kNeg,      "rsbs",    kRdnRm,      0x4240, 1, kAlu,    kNZCV,     kUseRm,           kUseRd) \
  X(kCmpReg,   "cmp",     kRdnRm,      0x4280, 1, kAlu,    kNZCV,     kUseRn | kUseRm,  0)    \
  X(kCmn,      "cmn",     kRdnRm,      0x42C0, 1, kAlu,    kNZCV,     kUseRn | kUseRm,  0)    \
  X(kOrr,      "orrs",    kRdnRm,      0x4300, 1, kAlu,    kNZ,       kUseRd | kUseRm,  kUseRd) \
  X(kMul,      "muls",    kRdnRm,      0x4340, 1, kMul,    kNZ,       kUseRd | kUseRm,  kUseRd) \
  X(kBic,      "bics",    kRdnRm,      0x4380, 1, kAlu,    kNZ,       kUseRd | kUseRm,  kUseRd) \
  X(kMvn,      "mvns",    kRdnRm,      0x43C0, 1, kAlu,    kNZ,       kUseRm,           kUseRd) \
  /* High-register operations and branch-exchange. */                                       \
  X(kAddHi,    "add",     kHiRdRm,     0x4400, 1, kAlu,    kNone,     kUseRd | kUseRm,  kUseRd) \
  X(kCmpHi,    "cmp",     kHiRnRm,     0x4500, 1, kAlu,    kNZCV,     kUseRn | kUseRm,  0)    \
  X(kMovHi,    "mov",     kHiRdRm,     0x4600, 1, kAlu,    kNone,     kUseRm,           kUseRd) \
  X(kBx,       "bx",      kRm,         0x4700, 1, kBranch, kNone,     kUseRm,           0)    \
  X(kBlx,      "blx",     kRm,         0x4780, 1, kBranch, kNone,     kUseRm,           kUseLr) \
  /* PC-relative literal load. */                                                           \
  X(kLdrLit,   "ldr",     kRdPcImm8,   0x4800, 4, kLoad,   kNone,     0,                kUseRd) \
  /* Load/store with register offset. */                                                    \
  X(kStrReg,   "str",     kRdRnRm,     0x5000, 1, kStore,  kNone,  kUseRd | kUseRn | kUseRm, 0) \
  X(kStrhReg,  "strh",    kRdRnRm,     0x5200, 1, kStore,  kNone,  kUseRd | kUseRn | kUseRm, 0) \
  X(kStrbReg,  "strb",    kRdRnRm,     0x5400, 1, kStore,  kNone,  kUseRd | kUseRn | kUseRm, 0) \
  X(kLdrsbReg, "ldrsb",   kRdRnRm,     0x5600, 1, kLoad,   kNone,     kUseRn | kUseRm,  kUseRd) \
  X(kLdrReg,   "ldr",     kRdRnRm,     0x5800, 1, kLoad,   kNone,     kUseRn | kUseRm,  kUseRd) \
  X(kLdrhReg,  "ldrh",    kRdRnRm,     0x5A00, 1, kLoad,   kNone,     kUseRn | kUseRm,  kUseRd) \
  X(kLdrbReg,  "ldrb",    kRdRnRm,     0x5C00, 1, kLoad,   kNone,     kUseRn | kUseRm,  kUseRd) \
  X(kLdrshReg, "ldrsh",   kRdRnRm,     0x5E00, 1, kLoad,   kNone,     kUseRn | kUseRm,  kUseRd) \
  /* Load/store with immediate offset. */                                                   \
  X(kStrImm,   "str",     kRdRnImm5,   0x6000, 4, kStore,  kNone,     kUseRd | kUseRn,  0)    \
  X(kLdrImm,   "ldr",     kRdRnImm5,   0x6800, 4, kLoad,   kNone,     kUseRn,           kUseRd) \
  X(kStrbImm,  "strb",    kRdRnImm5,   0x7000, 1, kStore,  kNone,     kUseRd | kUseRn,  0)    \
  X(kLdrbImm,  "ldrb",    kRdRnImm5,   0x7800, 1, kLoad,   kNone,     kUseRn,           kUseRd) \
  X(kStrhImm,  "strh",    kRdRnImm5,   0x8000, 2, kStore,  kNone,     kUseRd | kUseRn,  0)    \
  X(kLdrhImm,  "ldrh",    kRdRnImm5,   0x8800, 2, kLoad,   kNone,     kUseRn,           kUseRd) \
  /* SP-relative load/store and address generation. */                                     \
  X(kStrSp,    "str",     kRdSpImm8,   0x9000, 4, kStore,  kNone,     kUseRd | kUseSp,  0)    \
  X(kLdrSp,    "ldr",     kRdSpImm8,   0x9800, 4, kLoad,   kNone,     kUseSp,           kUseRd) \
  X(kAdr,      "adr",     kRdPcImm8,   0xA000, 4, kAlu,    kNone,     0,                kUseRd) \
  X(kAddSpImm, "add",     kRdSpImm8,   0xA800, 4, kAlu,    kNone,     kUseSp,           kUseRd) \
  /* SP adjustment. */                                                                      \
  X(kAddSp7,   "add",     kImm7,       0xB000, 4, kAlu,    kNone,     kUseSp,           kUseSp) \
  X(kSubSp7,   "sub",     kImm7,       0xB080, 4, kAlu,    kNone,     kUseSp,           kUseSp) \
  /* Extend and byte-reverse. */                                                            \
  X(kSxth,     "sxth",    kRdRm,       0xB200, 1, kAlu,    kNone,     kUseRm,           kUseRd) \
  X(kSxtb,     "sxtb",    kRdRm,       0xB240, 1, kAlu,    kNone,     kUseRm,           kUseRd) \
  X(kUxth,     "uxth",    kRdRm,       0xB280, 1, kAlu,    kNone,     kUseRm,           kUseRd) \
  X(kUxtb,     "uxtb",    kRdRm,       0xB2C0, 1, kAlu,    kNone,     kUseRm,           kUseRd) \
  X(kRev,      "rev",     kRdRm,       0xBA00, 1, kAlu,    kNone,     kUseRm,           kUseRd) \
  X(kRev16,    "rev16",   kRdRm,       0xBA40, 1, kAlu,    kNone,     kUseRm,           kUseRd) \
  X(kRevsh,    "revsh",   kRdRm,       0xBAC0, 1, kAlu,    kNone,     kUseRm,           kUseRd) \
  /* Stack multiple. */                                                                     \
  X(kPush,     "push",    kRegList9,   0xB400, 1, kStack,  kNone,     kUseSp | kUseList, kUseSp) \
  X(kPop,      "pop",     kRegList9,   0xBC00, 1, kStack,  kNone,     kUseSp, kUseSp | kUseList) \
  /* Load/store multiple, increment-after with writeback (LDMIA/STMIA). */                  \
  X(kLdm,      "ldmia",   kRnRegList8, 0xC800, 1, kLoad,   kNone,   kUseRn, kUseList | kUseRnWb) \
  X(kStm,      "stmia",   kRnRegList8, 0xC000, 1, kStore,  kNone,     kUseRn | kUseList, kUseRn) \
  /* Hints and control flow. */                                                             \
  X(kNop,      "nop",     kNone,       0xBF00, 1, kAlu,    kNone,     0,                0)    \
  X(kBcond,    "b",       kCondImm8,   0xD000, 2, kBranch, kCond,     0,                0)    \
  X(kB,        "b",       kImm11,      0xE000, 2, kBranch, kNone,     0,                0)    \
  X(kBl,       "bl",      kImm24,      0xF000, 2, kBranch, kNone,     0,                kUseLr) \
  X(kUdf,      "udf",     kImm8,       0xDE00, 1, kAlu,    kNone,     0,                0)
// clang-format on

// Every op, in row order; appending rows keeps existing values.
enum class Op : uint8_t {
#define NEUROC_OP_ENUMERATOR(name, ...) name,
  NEUROC_THUMB_OPS(NEUROC_OP_ENUMERATOR)
#undef NEUROC_OP_ENUMERATOR
};

// Number of ops, the size of every per-op table (profiles, dispatch tables).
#define NEUROC_OP_COUNT(name, ...) +1
inline constexpr size_t kNumOps = 0 NEUROC_THUMB_OPS(NEUROC_OP_COUNT);
#undef NEUROC_OP_COUNT

// One row of NEUROC_THUMB_OPS.
struct OpInfo {
  const char* mnemonic;
  Form form;
  uint16_t bits;
  uint8_t scale;
  OpClass op_class;
  FlagUse flags;
  uint8_t reads;   // RegUse mask
  uint8_t writes;  // RegUse mask
};

inline constexpr OpInfo kOpTable[kNumOps] = {
#define NEUROC_OP_ROW(name, mnemonic, form, bits, scale, op_class, flags, reads, writes) \
  {mnemonic, Form::form, bits, scale, OpClass::op_class, FlagUse::flags, reads, writes},
    NEUROC_THUMB_OPS(NEUROC_OP_ROW)
#undef NEUROC_OP_ROW
};

inline const OpInfo& InfoOf(Op op) { return kOpTable[static_cast<size_t>(op)]; }

enum class Cond : uint8_t {
  kEq = 0, kNe = 1, kCs = 2, kCc = 3, kMi = 4, kPl = 5, kVs = 6, kVc = 7,
  kHi = 8, kLs = 9, kGe = 10, kLt = 11, kGt = 12, kLe = 13, kAl = 14,
};

// One decoded instruction. Field meaning depends on the op's form:
//   rd/rn/rm — destination / first / second register operands
//   imm      — immediate (shift amount, offset in bytes, or signed branch offset in bytes)
//   reglist  — PUSH/POP/LDM/STM register bitmask (bit 8 = LR for PUSH, PC for POP)
//   cond     — kBcond condition
struct Instr {
  Op op = Op::kInvalid;
  uint8_t rd = 0;
  uint8_t rn = 0;
  uint8_t rm = 0;
  int32_t imm = 0;
  uint16_t reglist = 0;
  Cond cond = Cond::kAl;
  // Size in halfwords (1, or 2 for BL).
  uint8_t length = 1;
};

const char* OpName(Op op);
const char* CondName(Cond cond);
const char* RegName(uint8_t reg);

// Encodes `instr` into `hw[0..1]` and returns the number of halfwords written (1 or 2), or
// 0 when an operand does not fit its field: a high register in a low-register field, an
// immediate out of range or not a multiple of the row's scale, or an empty or too wide
// register list. `*misfit`, when given, then says which.
int EncodeInstr(const Instr& instr, uint16_t hw[2], const char** misfit = nullptr);

// Decodes the instruction starting at hw1 (hw2 is the following halfword, used only for
// 32-bit BL; pass 0 when unavailable). Returns Instr with op == kInvalid for encodings
// outside the supported subset. Every valid decode re-encodes to its own halfwords, except
// that BX/BLX re-encode with their should-be-zero bits [2:0] clear.
Instr DecodeInstr(uint16_t hw1, uint16_t hw2);

// Renders `in` as assembly text: its mnemonic and its OperandSyntax, or for LSLS #0 the
// MOVS alias. `addr` is the instruction address, used to print absolute branch targets.
std::string Disassemble(const Instr& in, uint32_t addr = 0);

// The operands of `op`'s form as text, which Disassemble prints and the assembler parses.
// `d`, `n` and `m` stand for the rd, rn and rm registers, `i` for the immediate, `l` for
// the register list, `a` for a target address and `v` for a value the assembler places in
// a literal pool; every other character stands for itself, and the parser takes whitespace
// between any two. Loads and stores bracket their address operands.
const char* OperandSyntax(Op op);

// The assembler's other spellings, each of one op; the fields an alias does not name are
// zero. The first is also how Disassemble prints LSLS #0.
struct Alias {
  const char* mnemonic;
  Op op;
  const char* syntax;
};
inline constexpr Alias kAliases[] = {
    {"movs", Op::kLslImm, "d, m"},  // MOVS (register)
    {"negs", Op::kNeg, "d, m"},
    {"rsbs", Op::kNeg, "d, m, #0"},
    {"muls", Op::kMul, "d, m, d"},
    {"ldr", Op::kLdrImm, "d, [n]"},
    {"str", Op::kStrImm, "d, [n]"},
    {"ldr", Op::kLdrLit, "d, =v"},
    {"adr", Op::kAdr, "d, a"},
};

// The address a PC-relative offset (a branch, LDR literal or ADR) counts from: the
// instruction's address plus 4, word-aligned for the kRdPcImm8 forms.
inline uint32_t PcBase(Op op, uint32_t addr) {
  return InfoOf(op).form == Form::kRdPcImm8 ? (addr + 4) & ~3u : addr + 4;
}

// The register bit 8 of a register list names: PC in the list POP writes, LR in any other
// (PUSH's; LDM and STM lists are 8 bits wide, so the encoder refuses LR in theirs).
inline uint8_t ListBit8(Op op) {
  const OpInfo& info = InfoOf(op);
  return info.form == Form::kRegList9 && (info.writes & kUseList) ? kRegPc : kRegLr;
}

// The APSR flags an instruction reads and writes, as kFlag* masks.
struct FlagEffects {
  uint8_t reads = 0;       // flag bits the instruction consumes
  uint8_t may_write = 0;   // bits it can write (shift-by-register writes C conditionally)
  uint8_t must_write = 0;  // bits it always writes (these kill earlier writes)
};
FlagEffects FlagEffectsOf(Op op, int32_t imm);

// Registers an instruction reads and writes, as masks over r0..r14: an r15 read is the
// instruction's address and a PC write is control flow, so bit 15 is never set.
struct RegEffects {
  uint16_t reads = 0;
  uint16_t writes = 0;
};
RegEffects RegEffectsOf(const Instr& in);

// Whether the instruction writes the PC: bit 15 of its written registers before
// RegEffectsOf drops it (ADD/MOV to pc, POP with pc in the list).
inline bool WritesPc(const Instr& in) {
  const uint8_t writes = InfoOf(in.op).writes;
  return ((writes & kUseRd) && in.rd == kRegPc) ||
         ((writes & kUseList) && (in.reglist & 0x100));
}

// Whether executing the op can raise a guest fault: every memory access can. A branch
// itself cannot fault; a bad target faults on the next fetch.
inline bool MayFault(Op op) {
  const OpClass c = InfoOf(op).op_class;
  return c == OpClass::kLoad || c == OpClass::kStore || c == OpClass::kStack;
}

// Whether the instruction is control flow: a branch, or a write to the PC. It ends a basic
// block.
inline bool IsTerminator(const Instr& in) {
  return InfoOf(in.op).op_class == OpClass::kBranch || WritesPc(in);
}

}  // namespace neuroc

#endif  // NEUROC_SRC_ISA_ISA_H_
