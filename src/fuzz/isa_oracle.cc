#include <string>

#include "src/common/rng.h"
#include "src/fuzz/oracles.h"
#include "src/isa/assembler.h"
#include "src/isa/isa.h"
#include "src/sim/machine.h"

namespace neuroc {

namespace {

std::string HwName(uint16_t hw) {
  char buf[8];
  std::snprintf(buf, sizeof(buf), "0x%04X", hw);
  return buf;
}

bool SameInstr(const Instr& a, const Instr& b) {
  return a.op == b.op && a.rd == b.rd && a.rn == b.rn && a.rm == b.rm && a.imm == b.imm &&
         a.reglist == b.reglist && a.cond == b.cond && a.length == b.length;
}

// The first quantity two machines that ran the same case report differently — status,
// fault report, registers, pc, flags, counters — or "" when they agree.
std::string CrossModeDiff(Machine& a, const StatusOr<uint64_t>& a_run, Machine& b,
                          const StatusOr<uint64_t>& b_run) {
  const auto differ = [](const std::string& what, uint64_t x, uint64_t y) {
    return what + " " + std::to_string(x) + " vs " + std::to_string(y);
  };
  if (a_run.ok() != b_run.ok() || a_run.status().code() != b_run.status().code()) {
    return "status " + a_run.status().ToString() + " vs " + b_run.status().ToString();
  }
  if (a_run.ok() && *a_run != *b_run) {
    return differ("call cycles", *a_run, *b_run);
  }
  const FaultReport& fa = a.last_fault();
  const FaultReport& fb = b.last_fault();
  if (fa.code != fb.code || fa.message != fb.message || fa.pc != fb.pc ||
      fa.addr != fb.addr || fa.instruction != fb.instruction || fa.cycles != fb.cycles ||
      fa.instructions != fb.instructions) {
    return "fault report '" + fa.Describe() + "' vs '" + fb.Describe() + "'";
  }
  const Cpu& ca = a.cpu();
  const Cpu& cb = b.cpu();
  for (int r = 0; r < 16; ++r) {
    if (ca.reg(r) != cb.reg(r)) {
      return differ(RegName(static_cast<uint8_t>(r)), ca.reg(r), cb.reg(r));
    }
  }
  if (ca.pc() != cb.pc()) {
    return differ("pc", ca.pc(), cb.pc());
  }
  const CpuFlags& f = ca.flags();
  const CpuFlags& g = cb.flags();
  if (f.n != g.n || f.z != g.z || f.c != g.c || f.v != g.v) {
    return "flags";
  }
  if (ca.cycles() != cb.cycles()) {
    return differ("cycles", ca.cycles(), cb.cycles());
  }
  if (ca.instructions() != cb.instructions()) {
    return differ("instructions", ca.instructions(), cb.instructions());
  }
  return "";
}

}  // namespace

FuzzCase GenerateIsaCase(uint64_t case_seed) {
  FuzzCase c;
  c.oracle = FuzzOracle::kIsa;
  c.case_seed = case_seed;
  Rng g(SubSeed(case_seed, 0));
  c.hw1 = static_cast<uint16_t>(g.NextU64() & 0xFFFF);
  c.hw2 = static_cast<uint16_t>(g.NextU64() & 0xFFFF);
  // Uniform halfwords land in the 32-bit BL prefix space only ~1/32 of the time; bias a
  // quarter of cases there so the two-halfword decode path gets real coverage.
  if (g.NextBool(0.25)) {
    c.hw1 = static_cast<uint16_t>(0xF000 | (c.hw1 & 0x7FF));
  }
  return c;
}

CaseResult RunIsaCase(const FuzzCase& c) {
  const Instr d = DecodeInstr(c.hw1, c.hw2);
  const std::string hws = HwName(c.hw1) + "/" + HwName(c.hw2);

  // Structural-fault leg: every halfword — valid or not — must either execute cleanly or
  // raise a structured guest fault. A NEUROC_CHECK abort anywhere in the decode/execute
  // path would kill the fuzzer process, which is exactly the signal this leg exists for.
  // Cross-mode leg: the pair runs on a block-compiled machine and on one that fetches
  // and decodes every step, and the two must agree on everything they report. r0-r12
  // start as a per-case mix of raw words, SRAM and flash addresses and small offsets, so
  // loads and stores both complete and fault; one flash wait state makes the fetch and
  // data-access charges visible.
  MachineConfig mc;
  mc.max_instructions = 64;  // random control flow may loop; keep runaways cheap
  mc.cycle_model.flash_wait_states = 1;
  Machine m(mc);
  Machine step(mc);
  step.cpu().EnableBlockCompile(false);
  Rng regs(SubSeed(c.case_seed, 1));
  for (int r = 0; r <= 12; ++r) {
    const uint32_t word = regs.NextU32();
    uint32_t value = word;
    switch (regs.NextBounded(4)) {
      case 0: value = mc.ram_base + word % mc.ram_size; break;
      case 1: value = mc.flash_base + word % 256; break;
      case 2: value = word % 256; break;
      default: break;
    }
    m.cpu().set_reg(r, value);
    step.cpu().set_reg(r, value);
  }
  const std::vector<uint8_t> prog = {
      static_cast<uint8_t>(c.hw1 & 0xFF), static_cast<uint8_t>(c.hw1 >> 8),
      static_cast<uint8_t>(c.hw2 & 0xFF), static_cast<uint8_t>(c.hw2 >> 8),
      0x70, 0x47,  // bx lr
  };
  m.LoadBytes(mc.flash_base, prog);
  step.LoadBytes(mc.flash_base, prog);
  const StatusOr<uint64_t> run = m.TryCallFunction(mc.flash_base, {});
  const StatusOr<uint64_t> step_run = step.TryCallFunction(mc.flash_base, {});
  const std::string diff = CrossModeDiff(m, run, step, step_run);
  if (!diff.empty()) {
    return {FuzzVerdict::kFail, "block and step decode disagree on " + hws + " (" +
                                    OpName(d.op) + "): " + diff};
  }
  if (d.op == Op::kInvalid || d.op == Op::kUdf) {
    // The undecodable (or explicit UDF) halfword is the first instruction executed: the
    // machine must report exactly an undefined-instruction fault.
    if (run.ok()) {
      return {FuzzVerdict::kFail, "invalid/udf halfword executed cleanly: " + hws};
    }
    if (run.status().code() != ErrorCode::kUndefinedInstruction) {
      return {FuzzVerdict::kFail, "invalid/udf halfword raised wrong fault: " + hws +
                                      ": " + run.status().ToString()};
    }
  }
  // Valid instructions may do anything structured (return, fault on a wild access, hit
  // the budget); TryCallFunction has already converted any of those into Status.

  if (d.op == Op::kInvalid) {
    return {};
  }

  // Binary fix-point: decode(encode(decode(hw))) must reproduce the decoded fields.
  // (Raw halfwords may legitimately differ — the decoder ignores should-be-zero bits —
  // so the comparison is on the canonical decoded form.)
  uint16_t enc[2] = {0, 0};
  const int enc_len = EncodeInstr(d, enc);
  if (enc_len != d.length) {
    return {FuzzVerdict::kFail,
            "encode length != decode length for " + hws + " (" + OpName(d.op) + ")"};
  }
  const Instr d2 = DecodeInstr(enc[0], enc_len == 2 ? enc[1] : 0);
  if (!SameInstr(d, d2)) {
    return {FuzzVerdict::kFail, "encode/decode fix-point mismatch for " + hws + " (" +
                                    OpName(d.op) + " -> " + OpName(d2.op) + ")"};
  }

  // Text fix-point: disassemble -> assemble -> decode -> disassemble must reproduce the
  // text.
  const uint32_t base = mc.flash_base;
  const std::string text = Disassemble(d, base);
  const AssembledProgram p = Assemble(text + "\n", base);
  if (p.bytes.size() != static_cast<size_t>(2 * d.length)) {
    return {FuzzVerdict::kFail,
            "assembler emitted wrong length for '" + text + "' (" + hws + ")"};
  }
  const uint16_t ahw1 = static_cast<uint16_t>(p.bytes[0] | (p.bytes[1] << 8));
  const uint16_t ahw2 =
      d.length == 2 ? static_cast<uint16_t>(p.bytes[2] | (p.bytes[3] << 8)) : uint16_t{0};
  const Instr da = DecodeInstr(ahw1, ahw2);
  const std::string text2 = Disassemble(da, base);
  if (text2 != text) {
    return {FuzzVerdict::kFail, "assembler text fix-point mismatch for " + hws + ": '" +
                                    text + "' -> '" + text2 + "'"};
  }
  return {};
}

}  // namespace neuroc
