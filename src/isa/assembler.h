// Two-pass text assembler for the ARMv6-M subset.
//
// Supported syntax (GNU-as flavored):
//   labels:            `name:` at line start (may share the line with an instruction)
//   comments:          `@ ...`, `// ...`, `; ...`
//   directives:        `.word v[, v...]`, `.half ...`, `.byte ...`, `.align n` (2^n bytes)
//   instructions:      every op in src/isa/isa.h as its row's mnemonic (b<cond> with the
//                      condition appended) and its form's OperandSyntax, or a kAliases
//                      spelling; the first spelling whose fields fit the encoding wins
//   literal loads:     `ldr rX, =imm-or-label` (PC-relative, from one literal pool
//                      after the last statement)
//
// Errors abort with file/line diagnostics via NEUROC_CHECK (the assembler is an internal
// code-generation tool; malformed input is a programming error).

#ifndef NEUROC_SRC_ISA_ASSEMBLER_H_
#define NEUROC_SRC_ISA_ASSEMBLER_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace neuroc {

struct AssembledProgram {
  uint32_t base_addr = 0;
  std::vector<uint8_t> bytes;
  std::map<std::string, uint32_t> symbols;  // label -> absolute address

  uint32_t SymbolAddr(const std::string& name) const;
  size_t size() const { return bytes.size(); }
};

// Address-ordered view of a symbol table for resolving instruction addresses back to the
// enclosing label — the attribution step of the cycle profiler (src/obs/sim_profiler.h).
// Every assembler label is a symbol, so kernel-internal loop labels resolve too.
class SymbolTable {
 public:
  struct Entry {
    uint32_t addr = 0;
    std::string name;
  };

  SymbolTable() = default;
  explicit SymbolTable(const std::map<std::string, uint32_t>& symbols);

  // The entry with the greatest address <= `addr` (i.e. the label whose span covers it),
  // or nullptr when `addr` precedes every symbol. Labels sharing an address collapse to
  // one entry (names joined with '/'), so spans are non-empty and attribution is unique.
  const Entry* Resolve(uint32_t addr) const;

  // Ascending by address.
  const std::vector<Entry>& entries() const { return entries_; }
  bool empty() const { return entries_.empty(); }

 private:
  std::vector<Entry> entries_;
};

// Assembles `source` for load address `base_addr` (must be 4-aligned).
AssembledProgram Assemble(const std::string& source, uint32_t base_addr);

}  // namespace neuroc

#endif  // NEUROC_SRC_ISA_ASSEMBLER_H_
