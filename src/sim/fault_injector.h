// Deterministic memory fault injection for the simulated MCU.
//
// Models the transient and stuck-at byte-level faults the robustness harness studies:
// seeded single/multi-bit flips and stuck-at-0/1 faults into configurable flash or SRAM
// ranges, applied either between inferences (host-triggered) or mid-inference after a
// chosen number of retired instructions (via the CPU's instruction alarm). Injection goes
// through the host-write path, so flash corruption retires the compiled blocks over the
// struck byte exactly like a legitimate image reload — corrupted code takes effect on the
// next instruction, and the rest of the blocks stay compiled.
//
// Everything is a pure function of the caller-provided Rng/seed: campaigns replay
// bit-identically from (seed, config) regardless of thread count.

#ifndef NEUROC_SRC_SIM_FAULT_INJECTOR_H_
#define NEUROC_SRC_SIM_FAULT_INJECTOR_H_

#include <cstdint>
#include <string_view>

#include "src/common/rng.h"
#include "src/sim/cpu.h"
#include "src/sim/memory.h"

namespace neuroc {

enum class FaultModel : uint8_t {
  kSingleBitFlip = 0,  // flip one uniformly chosen bit
  kMultiBitFlip = 1,   // flip `bits` distinct bits within one byte
  kStuckAtZero = 2,    // clear one bit (no-op if already 0 — a masked fault)
  kStuckAtOne = 3,     // set one bit (no-op if already 1)
};

const char* FaultModelName(FaultModel model);
// Parses "bitflip" / "multibit" / "stuck0" / "stuck1". Returns false on anything else.
bool ParseFaultModel(std::string_view text, FaultModel* out);

// What a single injection did to the byte it hit.
struct InjectedFault {
  uint32_t addr = 0;
  uint8_t mask = 0;    // bits the model targeted
  uint8_t before = 0;
  uint8_t after = 0;   // == before for a masked stuck-at fault

  bool changed() const { return before != after; }
};

// Applies `model` to one deterministically chosen byte in [base, base + size).
// `bits` is only consulted by kMultiBitFlip (clamped to [1, 8]). The target range must be
// host-addressable (inside flash or SRAM) — violating that is a host programming error.
InjectedFault InjectFault(MemoryMap& memory, uint32_t base, uint32_t size,
                          FaultModel model, int bits, Rng& rng);

// Injects exactly one fault after `trigger_instructions` further retired instructions,
// modelling an upset that strikes mid-inference. Arm(cpu) sets the CPU's one-shot
// instruction alarm, so execution stays on the block-compiled path before and after the
// strike; the injection site/pattern is fixed by the Rng at trigger time, so a given
// (seed, trigger) replays identically on every decode path. The count runs on the CPU's
// instruction counter, so a snapshot restore between arming and the strike rewinds it
// too. The injector must outlive the armed alarm: call Cpu::ClearInstructionAlarm after
// the run unless the alarm fired or the machine is gone.
class TriggeredInjector {
 public:
  TriggeredInjector(uint64_t trigger_instructions, uint32_t base, uint32_t size,
                    FaultModel model, int bits, Rng rng)
      : trigger_(trigger_instructions),
        base_(base),
        size_(size),
        model_(model),
        bits_(bits),
        rng_(rng) {}

  void Arm(Cpu& cpu);

  bool fired() const { return fired_; }
  const InjectedFault& fault() const { return fault_; }
  // Cycles retired between arming and the injection, the strike's own instruction
  // included. Feeds detection-latency reporting — the campaign subtracts this from the
  // cycles-at-detection to get injection→detection latency.
  uint64_t fired_at_cycles() const { return fired_at_cycles_; }

 private:
  uint64_t trigger_;
  uint32_t base_;
  uint32_t size_;
  FaultModel model_;
  int bits_;
  Rng rng_;
  bool fired_ = false;
  uint64_t fired_at_cycles_ = 0;
  InjectedFault fault_;
};

}  // namespace neuroc

#endif  // NEUROC_SRC_SIM_FAULT_INJECTOR_H_
