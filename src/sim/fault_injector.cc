#include "src/sim/fault_injector.h"

#include <algorithm>
#include <bit>
#include <span>

#include "src/common/check.h"

namespace neuroc {

const char* FaultModelName(FaultModel model) {
  switch (model) {
    case FaultModel::kSingleBitFlip: return "bitflip";
    case FaultModel::kMultiBitFlip: return "multibit";
    case FaultModel::kStuckAtZero: return "stuck0";
    case FaultModel::kStuckAtOne: return "stuck1";
  }
  return "unknown";
}

bool ParseFaultModel(std::string_view text, FaultModel* out) {
  if (text == "bitflip") {
    *out = FaultModel::kSingleBitFlip;
  } else if (text == "multibit") {
    *out = FaultModel::kMultiBitFlip;
  } else if (text == "stuck0") {
    *out = FaultModel::kStuckAtZero;
  } else if (text == "stuck1") {
    *out = FaultModel::kStuckAtOne;
  } else {
    return false;
  }
  return true;
}

InjectedFault InjectFault(MemoryMap& memory, uint32_t base, uint32_t size,
                          FaultModel model, int bits, Rng& rng) {
  NEUROC_CHECK(size > 0);
  InjectedFault f;
  f.addr = base + static_cast<uint32_t>(rng.NextBounded(size));
  switch (model) {
    case FaultModel::kSingleBitFlip:
    case FaultModel::kStuckAtZero:
    case FaultModel::kStuckAtOne:
      f.mask = static_cast<uint8_t>(1u << rng.NextBounded(8));
      break;
    case FaultModel::kMultiBitFlip: {
      const int n = std::clamp(bits, 1, 8);
      while (std::popcount(static_cast<unsigned>(f.mask)) < n) {
        f.mask |= static_cast<uint8_t>(1u << rng.NextBounded(8));
      }
      break;
    }
  }
  memory.HostRead(f.addr, std::span<uint8_t>(&f.before, 1));
  switch (model) {
    case FaultModel::kSingleBitFlip:
    case FaultModel::kMultiBitFlip:
      f.after = f.before ^ f.mask;
      break;
    case FaultModel::kStuckAtZero:
      f.after = f.before & static_cast<uint8_t>(~f.mask);
      break;
    case FaultModel::kStuckAtOne:
      f.after = f.before | f.mask;
      break;
  }
  if (f.after != f.before) {
    memory.HostWrite(f.addr, std::span<const uint8_t>(&f.after, 1));
  }
  return f;
}

void TriggeredInjector::Arm(Cpu& cpu) {
  const uint64_t armed_cycles = cpu.cycles();
  cpu.SetInstructionAlarm(cpu.instructions() + trigger_, [this, &cpu, armed_cycles] {
    fault_ = InjectFault(cpu.memory(), base_, size_, model_, bits_, rng_);
    fired_at_cycles_ = cpu.cycles() - armed_cycles;
    fired_ = true;
  });
}

}  // namespace neuroc
