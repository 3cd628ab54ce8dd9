#include "src/runtime/profile.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "src/common/logging.h"
#include "src/obs/block_profiler.h"
#include "src/obs/registry.h"

namespace neuroc {

namespace {

// Default stack headroom below which deployment is considered at risk: the board has
// 16 KB of SRAM total, and a stack growing into the activation buffers corrupts
// inference silently.
constexpr uint32_t kDefaultStackHeadroomWarnBytes = 256;

// Rebases the aggregate profile on the attribution's per-opcode data: counts and cycles
// per category both derive from the same exact per-opcode attribution, so category
// cycles sum to the total cycle count exactly.
ExecutionProfile SummarizeAttribution(const PcProfile& prof, const MemAccessStats& mem) {
  ExecutionProfile p;
  p.instructions = prof.total_instructions;
  p.cycles = prof.total_cycles;
  for (size_t i = 0; i < prof.op_counts.size(); ++i) {
    const uint64_t count = prof.op_counts[i];
    const uint64_t cycles = prof.op_cycles[i];
    if (count == 0 && cycles == 0) {
      continue;
    }
    switch (InfoOf(static_cast<Op>(i)).op_class) {
      case OpClass::kLoad:
        p.loads += count;
        p.load_cycles += cycles;
        break;
      case OpClass::kStore:
        p.stores += count;
        p.store_cycles += cycles;
        break;
      case OpClass::kMul:
        p.multiplies += count;
        p.multiply_cycles += cycles;
        break;
      case OpClass::kBranch:
        p.branches += count;
        p.branch_cycles += cycles;
        break;
      case OpClass::kStack:
        p.stack_ops += count;
        p.stack_cycles += cycles;
        break;
      case OpClass::kAlu:
        p.alu += count;
        p.alu_cycles += cycles;
        break;
    }
  }
  p.flash_reads = mem.flash_reads;
  p.sram_reads = mem.sram_reads;
  p.sram_writes = mem.sram_writes;
  return p;
}

// Runs one zero-input inference under the block profiler, from zeroed CPU counters.
PcProfile RunAttributedInference(DeployedModel& model) {
  Cpu& cpu = model.machine().cpu();
  cpu.ResetCounters();
  BlockProfiler profiler(cpu);
  model.Predict(std::vector<int8_t>(model.input_dim(), 0));
  MetricsRegistry::Global().GetCounter("profile.runs").Add(1);
  return profiler.Collect();
}

}  // namespace

uint32_t StackHeadroomWarnBytes() {
  static const uint32_t value = [] {
    uint32_t v = kDefaultStackHeadroomWarnBytes;
    if (const char* env = std::getenv("NEUROC_SRAM_HEADROOM");
        env != nullptr && *env != '\0') {
      char* end = nullptr;
      const unsigned long parsed = std::strtoul(env, &end, 10);
      if (end != nullptr && *end == '\0' && parsed <= 0xFFFFFFFFul) {
        v = static_cast<uint32_t>(parsed);
      } else {
        NEUROC_LOG_WARN("ignoring malformed NEUROC_SRAM_HEADROOM=\"%s\"", env);
      }
    }
    MetricsRegistry::Global().GetGauge("profile.sram_headroom_warn_bytes").Set(v);
    return v;
  }();
  return value;
}

ExecutionProfile ProfileInference(DeployedModel& model) {
  const PcProfile attribution = RunAttributedInference(model);
  return SummarizeAttribution(attribution, model.machine().memory().stats());
}

EnergyEstimate EstimateEnergy(const EnergyModel& model, const ExecutionProfile& p) {
  std::array<uint64_t, kNumOpClasses> cycles{};
  cycles[static_cast<size_t>(OpClass::kAlu)] = p.alu_cycles;
  cycles[static_cast<size_t>(OpClass::kMul)] = p.multiply_cycles;
  cycles[static_cast<size_t>(OpClass::kLoad)] = p.load_cycles;
  cycles[static_cast<size_t>(OpClass::kStore)] = p.store_cycles;
  cycles[static_cast<size_t>(OpClass::kBranch)] = p.branch_cycles;
  cycles[static_cast<size_t>(OpClass::kStack)] = p.stack_cycles;
  return EstimateEnergy(model, cycles, p.flash_reads, p.sram_reads, p.sram_writes);
}

InferenceProfile ProfileInferenceDetailed(DeployedModel& model,
                                          uint32_t heatmap_bucket_bytes) {
  Machine& machine = model.machine();
  machine.memory().EnableHeatmap(heatmap_bucket_bytes);
  machine.memory().EnableStackWatch(model.activation_top_addr());

  InferenceProfile out;
  out.attribution = RunAttributedInference(model);
  out.summary = SummarizeAttribution(out.attribution, machine.memory().stats());
  out.hotspots =
      BuildHotspotReport(out.attribution, SymbolTable(model.kernel_program().symbols));
  out.layer_cycles = model.report().layer_cycles;
  out.heatmap = machine.memory().heatmap();
  out.energy_model = EnergyModel::CortexM0Proxy();
  out.energy = EstimateEnergy(out.energy_model, out.summary);

  const uint32_t ram_top =
      machine.config().ram_base + machine.config().ram_size;
  const uint32_t low_water = machine.memory().stack_low_water();
  if (low_water != 0xFFFFFFFFu) {
    out.stack_bytes_used = ram_top - low_water;
    out.stack_headroom_bytes = low_water - model.activation_top_addr();
    MetricsRegistry::Global()
        .GetGauge("profile.stack_headroom_bytes")
        .Set(out.stack_headroom_bytes);
    if (out.stack_headroom_bytes < StackHeadroomWarnBytes()) {
      NEUROC_LOG_WARN(
          "simulated stack high-water mark within %u B of the activation buffers "
          "(stack uses %u B, headroom %u B of %u B SRAM)",
          StackHeadroomWarnBytes(), out.stack_bytes_used, out.stack_headroom_bytes,
          machine.config().ram_size);
    }
  }
  machine.memory().DisableHeatmap();
  machine.memory().DisableStackWatch();
  return out;
}

std::string FormatProfile(const ExecutionProfile& p) {
  char buf[960];
  const auto pct_of = [](uint64_t part, uint64_t whole) {
    return whole == 0 ? 0.0
                      : 100.0 * static_cast<double>(part) / static_cast<double>(whole);
  };
  std::snprintf(
      buf, sizeof(buf),
      "instructions: %llu  cycles: %llu  CPI: %.2f\n"
      "  loads: %llu (%.1f%%)  stores: %llu (%.1f%%)  alu: %llu (%.1f%%)\n"
      "  multiplies: %llu (%.1f%%)  branches: %llu (%.1f%%)  stack: %llu (%.1f%%)\n"
      "cycle attribution — loads: %.1f%%  stores: %.1f%%  alu: %.1f%%  multiplies: %.1f%%"
      "  branches: %.1f%%  stack: %.1f%%\n"
      "memory accesses — flash reads: %llu  sram reads: %llu  sram writes: %llu\n",
      static_cast<unsigned long long>(p.instructions),
      static_cast<unsigned long long>(p.cycles), p.CyclesPerInstruction(),
      static_cast<unsigned long long>(p.loads), pct_of(p.loads, p.instructions),
      static_cast<unsigned long long>(p.stores), pct_of(p.stores, p.instructions),
      static_cast<unsigned long long>(p.alu), pct_of(p.alu, p.instructions),
      static_cast<unsigned long long>(p.multiplies), pct_of(p.multiplies, p.instructions),
      static_cast<unsigned long long>(p.branches), pct_of(p.branches, p.instructions),
      static_cast<unsigned long long>(p.stack_ops), pct_of(p.stack_ops, p.instructions),
      pct_of(p.load_cycles, p.cycles), pct_of(p.store_cycles, p.cycles),
      pct_of(p.alu_cycles, p.cycles), pct_of(p.multiply_cycles, p.cycles),
      pct_of(p.branch_cycles, p.cycles), pct_of(p.stack_cycles, p.cycles),
      static_cast<unsigned long long>(p.flash_reads),
      static_cast<unsigned long long>(p.sram_reads),
      static_cast<unsigned long long>(p.sram_writes));
  return buf;
}

std::string FormatInferenceProfile(const InferenceProfile& profile,
                                   const DeployedModel& model,
                                   bool annotated_disassembly) {
  std::string out = FormatProfile(profile.summary);
  char buf[192];
  const double clock_hz = model.machine().config().clock_hz;
  std::snprintf(buf, sizeof(buf),
                "energy proxy: %.3f µJ/inference (core %.3f µJ, flash %.3f µJ, sram "
                "%.3f µJ; avg %.2f mW at %.0f MHz)\n",
                profile.energy.total_uj(), profile.energy.core_total_pj * 1e-6,
                profile.energy.flash_pj * 1e-6, profile.energy.sram_pj * 1e-6,
                profile.energy.AvgPowerMw(profile.summary.cycles, clock_hz),
                clock_hz / 1e6);
  out += buf;
  out += "\nper-layer cycles:\n";
  for (size_t k = 0; k < profile.layer_cycles.size(); ++k) {
    std::snprintf(buf, sizeof(buf), "  layer %zu: %llu (%.1f%%)\n", k,
                  static_cast<unsigned long long>(profile.layer_cycles[k]),
                  profile.summary.cycles == 0
                      ? 0.0
                      : 100.0 * static_cast<double>(profile.layer_cycles[k]) /
                            static_cast<double>(profile.summary.cycles));
    out += buf;
  }
  out += "\nhotspots (per assembler symbol):\n";
  out += FormatHotspotTable(profile.hotspots);
  std::snprintf(buf, sizeof(buf), "\nstack high water: %u B used, %u B headroom above "
                                  "activation buffers\n",
                profile.stack_bytes_used, profile.stack_headroom_bytes);
  out += buf;
  out += FormatSramHeatmap(profile.heatmap, model.machine().config().ram_base);
  if (annotated_disassembly) {
    out += "\nannotated disassembly (executed instructions only):\n";
    out += FormatAnnotatedDisassembly(profile.attribution,
                                      SymbolTable(model.kernel_program().symbols),
                                      model.kernel_program());
  }
  return out;
}

void WriteInferenceProfileJson(JsonWriter& w, const InferenceProfile& profile,
                               const DeployedModel& model) {
  const ExecutionProfile& p = profile.summary;
  w.BeginObject();
  w.Key("schema").Value("neuroc.profile.v3");
  w.Key("summary").BeginObject();
  w.Key("instructions").Value(p.instructions);
  w.Key("cycles").Value(p.cycles);
  w.Key("cpi").Value(p.CyclesPerInstruction());
  w.Key("counts").BeginObject();
  w.Key("loads").Value(p.loads);
  w.Key("stores").Value(p.stores);
  w.Key("alu").Value(p.alu);
  w.Key("multiplies").Value(p.multiplies);
  w.Key("branches").Value(p.branches);
  w.Key("stack_ops").Value(p.stack_ops);
  w.EndObject();
  w.Key("cycles_by_category").BeginObject();
  w.Key("loads").Value(p.load_cycles);
  w.Key("stores").Value(p.store_cycles);
  w.Key("alu").Value(p.alu_cycles);
  w.Key("multiplies").Value(p.multiply_cycles);
  w.Key("branches").Value(p.branch_cycles);
  w.Key("stack_ops").Value(p.stack_cycles);
  w.EndObject();
  w.Key("memory").BeginObject();
  w.Key("flash_reads").Value(p.flash_reads);
  w.Key("sram_reads").Value(p.sram_reads);
  w.Key("sram_writes").Value(p.sram_writes);
  w.EndObject();
  w.EndObject();

  w.Key("energy");
  WriteEnergyJson(w, profile.energy_model, profile.energy);

  w.Key("layer_cycles").BeginArray();
  for (const uint64_t c : profile.layer_cycles) {
    w.Value(c);
  }
  w.EndArray();

  w.Key("hotspots");
  WriteHotspotJson(w, profile.hotspots);

  w.Key("pc_stats");
  WritePcStatsJson(w, profile.attribution);

  w.Key("stack").BeginObject();
  w.Key("bytes_used").Value(static_cast<uint64_t>(profile.stack_bytes_used));
  w.Key("headroom_bytes").Value(static_cast<uint64_t>(profile.stack_headroom_bytes));
  w.Key("headroom_warn_bytes").Value(static_cast<uint64_t>(StackHeadroomWarnBytes()));
  w.EndObject();

  w.Key("heatmap");
  WriteHeatmapJson(w, profile.heatmap, model.machine().config().flash_base,
                   model.machine().config().ram_base);
  w.EndObject();
}

}  // namespace neuroc
