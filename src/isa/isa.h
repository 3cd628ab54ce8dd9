// ARMv6-M (Thumb-1 subset) instruction model.
//
// The simulated target mirrors the paper's deployment platform: an STM32F072 Cortex-M0.
// This module defines the decoded instruction form shared by the assembler, decoder,
// disassembler and CPU executor. Encodings follow the ARMv6-M Architecture Reference Manual;
// the subset covers everything the inference kernels and their tests need (all Thumb-1
// data-processing, load/store, stack, extend/reverse, branch and BL instructions; no system
// instructions).

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

// Every op as X(enumerator, mnemonic), in Op value order. Op, OpName and the simulator's
// dispatch table are generated from this one list; appending keeps existing values.
#define NEUROC_THUMB_OPS(X)                                                               \
  X(kInvalid, "invalid")                                                                 \
  /* Shift (immediate). */                                                               \
  X(kLslImm, "lsls") X(kLsrImm, "lsrs") X(kAsrImm, "asrs")                               \
  /* Add/subtract register and 3-bit immediate. */                                       \
  X(kAddReg, "adds") X(kSubReg, "subs") X(kAddImm3, "adds") X(kSubImm3, "subs")          \
  /* Move/compare/add/subtract 8-bit immediate. */                                       \
  X(kMovImm, "movs") X(kCmpImm, "cmp") X(kAddImm8, "adds") X(kSubImm8, "subs")           \
  /* Data processing (register). */                                                      \
  X(kAnd, "ands") X(kEor, "eors") X(kLslReg, "lsls") X(kLsrReg, "lsrs")                  \
  X(kAsrReg, "asrs") X(kAdc, "adcs") X(kSbc, "sbcs") X(kRor, "rors") X(kTst, "tst")      \
  X(kNeg, "rsbs") X(kCmpReg, "cmp") X(kCmn, "cmn") X(kOrr, "orrs") X(kMul, "muls")       \
  X(kBic, "bics") X(kMvn, "mvns")                                                        \
  /* High-register operations and branch-exchange. */                                    \
  X(kAddHi, "add") X(kCmpHi, "cmp") X(kMovHi, "mov") X(kBx, "bx") X(kBlx, "blx")         \
  /* PC-relative literal load. */                                                        \
  X(kLdrLit, "ldr")                                                                      \
  /* Load/store with register offset. */                                                 \
  X(kStrReg, "str") X(kStrhReg, "strh") X(kStrbReg, "strb") X(kLdrsbReg, "ldrsb")        \
  X(kLdrReg, "ldr") X(kLdrhReg, "ldrh") X(kLdrbReg, "ldrb") X(kLdrshReg, "ldrsh")        \
  /* Load/store with immediate offset. */                                                \
  X(kStrImm, "str") X(kLdrImm, "ldr") X(kStrbImm, "strb") X(kLdrbImm, "ldrb")            \
  X(kStrhImm, "strh") X(kLdrhImm, "ldrh")                                                \
  /* SP-relative load/store and address generation. */                                  \
  X(kStrSp, "str") X(kLdrSp, "ldr") X(kAdr, "adr") X(kAddSpImm, "add")                   \
  /* SP adjustment. */                                                                   \
  X(kAddSp7, "add") X(kSubSp7, "sub")                                                    \
  /* Extend and byte-reverse. */                                                         \
  X(kSxth, "sxth") X(kSxtb, "sxtb") X(kUxth, "uxth") X(kUxtb, "uxtb") X(kRev, "rev")     \
  X(kRev16, "rev16") X(kRevsh, "revsh")                                                  \
  /* Stack multiple. */                                                                  \
  X(kPush, "push") X(kPop, "pop")                                                        \
  /* Load/store multiple, increment-after with writeback (LDMIA/STMIA). */               \
  X(kLdm, "ldmia") X(kStm, "stmia")                                                      \
  /* Hints and control flow. */                                                          \
  X(kNop, "nop") X(kBcond, "b") X(kB, "b") X(kBl, "bl") X(kUdf, "udf")

enum class Op : uint8_t {
#define NEUROC_OP_ENUMERATOR(name, mnemonic) name,
  NEUROC_THUMB_OPS(NEUROC_OP_ENUMERATOR)
#undef NEUROC_OP_ENUMERATOR
};

// Number of ops, the size of every per-op table (profiles, dispatch tables).
#define NEUROC_OP_COUNT(name, mnemonic) +1
inline constexpr size_t kNumOps = 0 NEUROC_THUMB_OPS(NEUROC_OP_COUNT);
#undef NEUROC_OP_COUNT

enum class Cond : uint8_t {
  kEq = 0, kNe = 1, kCs = 2, kCc = 3, kMi = 4, kPl = 5, kVs = 6, kVc = 7,
  kHi = 8, kLs = 9, kGe = 10, kLt = 11, kGt = 12, kLe = 13, kAl = 14,
};

// One decoded instruction. Field meaning depends on `op`:
//   rd/rn/rm — destination / first / second register operands
//   imm      — immediate (shift amount, offset in bytes, or signed branch offset in bytes)
//   reglist  — PUSH/POP register bitmask (bit 8 = LR for PUSH, PC for POP)
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

}  // namespace neuroc

#endif  // NEUROC_SRC_ISA_ISA_H_
