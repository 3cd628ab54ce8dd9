// Energy-proxy model: cycles × active-power weights, per "Measuring what Really Matters"
// (Heim et al., PAPERS.md) — tinyML evaluation should report energy alongside latency,
// and on a cache-less in-order M0 an attribution-weighted cycle model is a usable proxy.
//
// The model has two parts:
//  - core energy: attributed cycles per opcode class × a per-class active-power weight
//    (pJ/cycle). Classes mirror the runtime profile's categories (alu, mul, load, store,
//    branch, stack), so the inputs come straight from the cycle-exact profilers.
//  - memory energy: counted accesses × per-access weights, flash vs SRAM (flash reads on
//    these parts burn noticeably more than SRAM; the counters already split them).
//
// The default weights are a documented proxy calibrated to the STM32F0-class numbers the
// paper targets (~250 µA/MHz at 3.3 V ≈ 800 pJ/cycle core, memory adders on top); they
// are knobs, not measurements — the point is relative comparability across models,
// encodings and decode modes, with the units honest enough to sanity-check against
// datasheet run-mode figures.

#ifndef NEUROC_SRC_OBS_ENERGY_H_
#define NEUROC_SRC_OBS_ENERGY_H_

#include <array>
#include <cstdint>

#include "src/isa/isa.h"
#include "src/obs/json_writer.h"

namespace neuroc {

// The JSON key of each op class (src/isa/isa.h), in OpClass order: the runtime profile's
// category names.
inline constexpr const char* kOpClassKeys[kNumOpClasses] = {
    "alu", "multiplies", "loads", "stores", "branches", "stack_ops"};

struct EnergyModel {
  // Core active-power weights, pJ per attributed cycle, by opcode class.
  std::array<double, kNumOpClasses> core_pj_per_cycle{};
  // Memory-access adders, pJ per counted access.
  double flash_read_pj = 0.0;
  double sram_read_pj = 0.0;
  double sram_write_pj = 0.0;

  // Default proxy weights for the Cortex-M0 platforms the paper targets.
  static EnergyModel CortexM0Proxy();
};

struct EnergyEstimate {
  std::array<double, kNumOpClasses> core_pj{};  // per-class core energy
  double core_total_pj = 0.0;
  double flash_pj = 0.0;
  double sram_pj = 0.0;
  double total_pj = 0.0;
  double total_uj() const { return total_pj * 1e-6; }
  // Average power over the window at the given core clock (mW).
  double AvgPowerMw(uint64_t cycles, double clock_hz) const {
    if (cycles == 0 || clock_hz <= 0.0) {
      return 0.0;
    }
    const double seconds = static_cast<double>(cycles) / clock_hz;
    return total_pj * 1e-9 / seconds;  // pJ/s → mW
  }
};

// cycles_by_class in OpClass order; access counts from the memory system's counters.
EnergyEstimate EstimateEnergy(const EnergyModel& model,
                              const std::array<uint64_t, kNumOpClasses>& cycles_by_class,
                              uint64_t flash_reads, uint64_t sram_reads,
                              uint64_t sram_writes);

// {"model":{...},"core_pj":{per-class...},"core_total_pj":...,"flash_pj":...,
//  "sram_pj":...,"total_pj":...,"total_uj":...} at the writer's position.
void WriteEnergyJson(JsonWriter& w, const EnergyModel& model, const EnergyEstimate& e);

}  // namespace neuroc

#endif  // NEUROC_SRC_OBS_ENERGY_H_
