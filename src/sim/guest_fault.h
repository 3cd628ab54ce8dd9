// Internal control-flow type for recoverable guest faults.
//
// The counted CPU-side accessors of MemoryMap and the Cpu fetch/execute loop throw
// GuestFault when the *simulated* program does something illegal (unmapped access,
// unaligned access, store into flash, undefined instruction, instruction-budget overrun).
// Machine::TryCallFunction is the single catch site: it enriches the fault with the CPU
// context (pc, counters) and converts it into a Status/FaultReport, so no
// exception ever crosses the library boundary. The clean execution path pays nothing —
// table-based unwinding costs only on throw.
//
// Host-side misuse (HostWrite out of bounds, bad API arguments) is NOT a GuestFault; it
// stays a NEUROC_CHECK-style abort because it indicates a bug in the harness itself.

#ifndef NEUROC_SRC_SIM_GUEST_FAULT_H_
#define NEUROC_SRC_SIM_GUEST_FAULT_H_

#include <cstdint>
#include <string>

#include "src/common/status.h"

namespace neuroc {

struct GuestFault {
  ErrorCode code = ErrorCode::kInternal;
  std::string message;
  uint32_t addr = 0;         // faulting data address, when applicable
  // Filled in by Cpu::Step on the way out (the memory system does not know the PC).
  uint32_t pc = 0;
  uint16_t instruction = 0;
};

}  // namespace neuroc

#endif  // NEUROC_SRC_SIM_GUEST_FAULT_H_
