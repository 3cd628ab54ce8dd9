#include "src/isa/isa.h"

#include <iterator>

namespace neuroc {

const char* OpName(Op op) {
  static constexpr const char* kNames[] = {
#define NEUROC_OP_MNEMONIC(name, mnemonic) mnemonic,
      NEUROC_THUMB_OPS(NEUROC_OP_MNEMONIC)
#undef NEUROC_OP_MNEMONIC
  };
  const size_t index = static_cast<size_t>(op);
  return index < std::size(kNames) ? kNames[index] : "?";
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

}  // namespace neuroc
