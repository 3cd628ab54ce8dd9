#include "src/obs/energy.h"

namespace neuroc {

EnergyModel EnergyModel::CortexM0Proxy() {
  EnergyModel m;
  // Core baseline ~800 pJ/cycle (≈250 µA/MHz at 3.3 V, STM32F0 run mode, all-in). The
  // class weights split that baseline: datapath-only cycles sit slightly below it,
  // multiplier and load/store cycles above (the M0's single-cycle multiplier is a wide
  // combinational block; memory cycles toggle the bus matrix).
  m.core_pj_per_cycle[static_cast<size_t>(OpClass::kAlu)] = 750.0;
  m.core_pj_per_cycle[static_cast<size_t>(OpClass::kMul)] = 900.0;
  m.core_pj_per_cycle[static_cast<size_t>(OpClass::kLoad)] = 850.0;
  m.core_pj_per_cycle[static_cast<size_t>(OpClass::kStore)] = 850.0;
  m.core_pj_per_cycle[static_cast<size_t>(OpClass::kBranch)] = 700.0;
  m.core_pj_per_cycle[static_cast<size_t>(OpClass::kStack)] = 850.0;
  // Per-access adders: flash reads (sense amps + charge pumps) cost several times an
  // SRAM access on these parts.
  m.flash_read_pj = 120.0;
  m.sram_read_pj = 25.0;
  m.sram_write_pj = 30.0;
  return m;
}

EnergyEstimate EstimateEnergy(const EnergyModel& model,
                              const std::array<uint64_t, kNumOpClasses>& cycles_by_class,
                              uint64_t flash_reads, uint64_t sram_reads,
                              uint64_t sram_writes) {
  EnergyEstimate e;
  for (size_t k = 0; k < kNumOpClasses; ++k) {
    e.core_pj[k] = static_cast<double>(cycles_by_class[k]) * model.core_pj_per_cycle[k];
    e.core_total_pj += e.core_pj[k];
  }
  e.flash_pj = static_cast<double>(flash_reads) * model.flash_read_pj;
  e.sram_pj = static_cast<double>(sram_reads) * model.sram_read_pj +
              static_cast<double>(sram_writes) * model.sram_write_pj;
  e.total_pj = e.core_total_pj + e.flash_pj + e.sram_pj;
  return e;
}

void WriteEnergyJson(JsonWriter& w, const EnergyModel& model, const EnergyEstimate& e) {
  w.BeginObject();
  w.Key("weights").BeginObject();
  w.Key("core_pj_per_cycle").BeginObject();
  for (size_t k = 0; k < kNumOpClasses; ++k) {
    w.Key(kOpClassKeys[k]).Value(model.core_pj_per_cycle[k]);
  }
  w.EndObject();
  w.Key("flash_read_pj").Value(model.flash_read_pj);
  w.Key("sram_read_pj").Value(model.sram_read_pj);
  w.Key("sram_write_pj").Value(model.sram_write_pj);
  w.EndObject();
  w.Key("core_pj").BeginObject();
  for (size_t k = 0; k < kNumOpClasses; ++k) {
    w.Key(kOpClassKeys[k]).ValueFixed(e.core_pj[k], 1);
  }
  w.EndObject();
  w.Key("core_total_pj").ValueFixed(e.core_total_pj, 1);
  w.Key("flash_pj").ValueFixed(e.flash_pj, 1);
  w.Key("sram_pj").ValueFixed(e.sram_pj, 1);
  w.Key("total_pj").ValueFixed(e.total_pj, 1);
  w.Key("total_uj").ValueFixed(e.total_uj(), 4);
  w.EndObject();
}

}  // namespace neuroc
