// Execution profiling of deployed models on the simulated MCU, built on the cycle-exact
// block profiler (src/obs/block_profiler.h): instruction mix and per-category cycle
// attribution come from per-PC/per-opcode data gathered on the block-compiled path, and
// the detailed profile adds per-symbol hotspots, per-layer cycles, memory
// heatmaps and the SRAM stack high-water mark. This is the quantitative backing for the
// paper's Sec. 4.1 discussion — on a cache-less in-order core, the memory-access pattern
// and control path *are* the performance model.

#ifndef NEUROC_SRC_RUNTIME_PROFILE_H_
#define NEUROC_SRC_RUNTIME_PROFILE_H_

#include <string>

#include "src/obs/energy.h"
#include "src/obs/json_writer.h"
#include "src/obs/sim_profiler.h"
#include "src/runtime/deployed_model.h"

namespace neuroc {

// Stack headroom below which ProfileInferenceDetailed warns (a stack growing into the
// activation buffers corrupts inference silently). Configurable via the
// NEUROC_SRAM_HEADROOM environment variable; defaults to 256 bytes. Also published as
// the registry gauge `profile.sram_headroom_warn_bytes`.
uint32_t StackHeadroomWarnBytes();

struct ExecutionProfile {
  uint64_t instructions = 0;
  uint64_t cycles = 0;
  // Instruction counts by category.
  uint64_t loads = 0;
  uint64_t stores = 0;
  uint64_t alu = 0;        // data processing, moves, shifts, extends
  uint64_t multiplies = 0;
  uint64_t branches = 0;   // B/B<cond>/BL/BX + PC writes
  uint64_t stack_ops = 0;  // PUSH/POP
  // Cycle attribution by the same categories (sums to `cycles` exactly; includes each
  // instruction's fetch wait states, memory-access costs and branch penalties).
  uint64_t load_cycles = 0;
  uint64_t store_cycles = 0;
  uint64_t alu_cycles = 0;
  uint64_t multiply_cycles = 0;
  uint64_t branch_cycles = 0;
  uint64_t stack_cycles = 0;
  // Memory traffic (accesses, not bytes).
  uint64_t flash_reads = 0;
  uint64_t sram_reads = 0;
  uint64_t sram_writes = 0;

  double CyclesPerInstruction() const {
    return instructions == 0 ? 0.0
                             : static_cast<double>(cycles) / static_cast<double>(instructions);
  }
};

// Full attribution package for one inference.
struct InferenceProfile {
  ExecutionProfile summary;
  PcProfile attribution;            // raw per-PC/per-opcode attribution
  HotspotReport hotspots;           // per-symbol/per-loop-label cycle attribution
  std::vector<uint64_t> layer_cycles;
  MemHeatmap heatmap;               // per-region access histograms
  uint32_t stack_bytes_used = 0;    // SRAM stack high-water mark
  uint32_t stack_headroom_bytes = 0;  // gap between deepest stack and activation top
  EnergyModel energy_model;         // proxy weights the estimate was computed with
  EnergyEstimate energy;            // cycles × active-power + access-energy estimate
};

// Runs one inference on `model` (zero input) and returns the profile of exactly that run.
ExecutionProfile ProfileInference(DeployedModel& model);

// The energy proxy of a profiled run: its category cycles in EnergyClass order plus its
// counted memory accesses, weighted by `model`.
EnergyEstimate EstimateEnergy(const EnergyModel& model, const ExecutionProfile& profile);

// As above, plus symbol-resolved hotspots, memory heatmap (`heatmap_bucket_bytes`-sized
// buckets), stack tracking, and the energy-proxy estimate. Warns via NEUROC_LOG_WARN
// when the measured stack high water comes within StackHeadroomWarnBytes() of the
// activation buffers.
InferenceProfile ProfileInferenceDetailed(DeployedModel& model,
                                          uint32_t heatmap_bucket_bytes = 64);

// Multi-line human-readable report.
std::string FormatProfile(const ExecutionProfile& profile);

// FormatProfile + hotspot table + per-layer cycles + stack/heatmap summary. Set
// `annotated_disassembly` to append the per-instruction listing.
std::string FormatInferenceProfile(const InferenceProfile& profile,
                                   const DeployedModel& model,
                                   bool annotated_disassembly = false);

// Machine-readable form of the full profile (one JSON object at the writer's position).
void WriteInferenceProfileJson(JsonWriter& w, const InferenceProfile& profile,
                               const DeployedModel& model);

}  // namespace neuroc

#endif  // NEUROC_SRC_RUNTIME_PROFILE_H_
