// Convenience wrapper: an STM32F072-like machine (flash + SRAM + Cortex-M0 cycle model) with
// an AAPCS call interface. Benches load an assembled kernel plus a packed model image, call
// the kernel entry point with r0..r3 arguments, and read back cycles and memory statistics.

#ifndef NEUROC_SRC_SIM_MACHINE_H_
#define NEUROC_SRC_SIM_MACHINE_H_

#include <cstdint>
#include <initializer_list>
#include <optional>
#include <span>
#include <vector>

#include "src/common/status.h"
#include "src/sim/cpu.h"
#include "src/sim/memory.h"

namespace neuroc {

struct MachineConfig {
  uint32_t flash_base = 0x08000000;
  uint32_t flash_size = 128 * 1024;  // STM32F072RB
  uint32_t ram_base = 0x20000000;
  uint32_t ram_size = 16 * 1024;
  CycleModel cycle_model = CycleModel::CortexM0();
  double clock_hz = 8e6;  // the paper's operating point
  uint64_t max_instructions = 400'000'000;  // runaway guard
};

// Full architectural snapshot of a machine: CPU registers/flags/counters plus memory
// contents and observation state. What is NOT captured (all host-side attachments or
// deterministically rebuilt derived state): a probe attachment, an armed instruction
// alarm, the decode cache, compiled blocks, and block-profile windows. Restoring is
// therefore bit-identical for every architecturally observable quantity — cycles,
// instructions, registers, memory, stats, heatmaps — across all decode modes.
struct MachineSnapshot {
  CpuArchState cpu;
  MemoryState memory;
  FaultReport last_fault;
};

// One function call of a lockstep inference: `entry` called with r0 = `arg`, as
// TryCallFunction(entry, {arg}) calls it.
struct LockstepCall {
  uint32_t entry = 0;
  uint32_t arg = 0;
};

// A batch of inferences for Machine::TryRunLockstep. Each loads its input at
// `input_addr` (a host write into SRAM; one span per inference, all of one size), then
// makes `calls` in order. `cycle_budget` supervises each inference as a whole (0 =
// unsupervised): every call gets what the earlier ones left of it, the way
// DeployedModel::TryPredict budgets its layers. The `output_size` bytes at
// `output_addr` are read back from every inference.
struct LockstepBatch {
  uint32_t input_addr = 0;
  std::span<const std::span<const uint8_t>> inputs;
  std::span<const LockstepCall> calls;
  uint64_t cycle_budget = 0;
  uint32_t output_addr = 0;
  uint32_t output_size = 0;
};

struct LockstepResult {
  std::vector<uint64_t> call_cycles;          // per call, the same for every inference
  std::vector<std::vector<uint8_t>> outputs;  // per inference
};

// How much of a snapshot Restore rewinds. kFull also rewinds flash, rewriting only the
// bytes that differ from the snapshot, so only the decoded slots and compiled blocks over
// them are invalidated (restoring an intact image invalidates nothing); kRamAndRegisters
// leaves flash and its derived caches untouched — the cheap per-trial fork/retry path
// when flash is known (or assumed) pristine.
enum class RestoreScope : uint8_t { kFull = 0, kRamAndRegisters = 1 };

class Machine {
 public:
  explicit Machine(const MachineConfig& config = {});

  MemoryMap& memory() { return memory_; }
  Cpu& cpu() { return cpu_; }
  const MachineConfig& config() const { return config_; }

  // Copies bytes into simulated memory (flash or RAM).
  void LoadBytes(uint32_t addr, std::span<const uint8_t> bytes);

  // Calls a Thumb function at `addr` with up to four register arguments. The stack pointer
  // is set to the top of SRAM; the function returns through the stop sentinel in LR.
  // Returns the cycle count consumed by the call, or — when the *guest* faults (undefined
  // instruction, unmapped/unaligned access, store to flash, instruction-budget overrun) —
  // a Status carrying a FaultReport with the faulting PC, address and cycle counters.
  // This is the single exception→Status conversion boundary: no GuestFault propagates
  // past it.
  StatusOr<uint64_t> TryCallFunction(uint32_t addr, std::initializer_list<uint32_t> args);

  // Watchdog-supervised variant: additionally stops the guest with a structured
  // kDeadlineExceeded FaultReport once the call has consumed more than `cycle_budget`
  // simulated cycles (relative to the call start; 0 = unsupervised). The deadline fires
  // at the same retired instruction in every decode mode, and a budget that is never
  // approached changes no observable quantity — identical cycles, counters, heatmaps.
  StatusOr<uint64_t> TryCallFunction(uint32_t addr, std::initializer_list<uint32_t> args,
                                     uint64_t cycle_budget);

  // Runs a batch of up to Cpu::kMaxLanes inferences in lockstep (Cpu lockstep lanes).
  // When the lanes stay in lockstep, returns the call cycles and outputs, and leaves the
  // machine exactly as loading and calling for each input in turn would, with
  // last_fault() cleared. Otherwise returns nullopt with the machine untouched, and the
  // caller runs the inputs one by one: a batch never commits a state a sequential run
  // would not reach, so results are bit-identical either way.
  std::optional<LockstepResult> TryRunLockstep(const LockstepBatch& batch);

  // Captures the full architectural state (CPU + memory + last fault). Snapshots are
  // plain values: fork as many machines from one warmed-up state as needed (search
  // trials), or park one as the pristine image for scrub/retry recovery.
  MachineSnapshot Snapshot() const;
  // Restores a snapshot taken on a machine with the same configuration. kFull rewinds
  // everything including flash (a byte compare of the image, plus a rewrite and targeted
  // cache invalidation where it differs); kRamAndRegisters skips flash altogether, which
  // is the fast path for retry-from-snapshot when flash integrity is separately assured.
  void Restore(const MachineSnapshot& snapshot, RestoreScope scope = RestoreScope::kFull);

  // Legacy abort-on-fault wrapper: prints the FaultReport diagnostic and aborts if the
  // call faults. For measurement code where a guest fault means the experiment itself is
  // invalid; fault-tolerant paths (search trials, fault campaigns) use TryCallFunction.
  uint64_t CallFunction(uint32_t addr, std::initializer_list<uint32_t> args);

  // FaultReport of the most recent TryCallFunction that faulted (code == kOk if the most
  // recent call succeeded). Kept for post-mortem inspection after the StatusOr is consumed.
  const FaultReport& last_fault() const { return last_fault_; }

  // r0 after the last call.
  uint32_t ReturnValue() const { return cpu_.reg(0); }

  // Converts cycles to milliseconds at the configured clock.
  double CyclesToMs(uint64_t cycles) const {
    return 1e3 * static_cast<double>(cycles) / config_.clock_hz;
  }

 private:
  MachineConfig config_;
  MemoryMap memory_;
  Cpu cpu_;
  FaultReport last_fault_;
};

}  // namespace neuroc

#endif  // NEUROC_SRC_SIM_MACHINE_H_
