// Cycle-exact flat profiler for the simulated Cortex-M0.
//
// SimProfiler attaches to the CPU's per-instruction probe (Cpu::set_probe) and attributes
// every retired instruction's exact cycle cost to its program counter and opcode. Because
// the probe reports the full charge — fetch wait states, memory-access cost, branch
// penalty — the per-PC cycles sum to Cpu::cycles() for the profiled window, which is the
// invariant the paper-style attribution analyses (which kernel / which loop spends the
// cycles) stand on.
//
// Resolution back to source structure goes through the assembler symbol table: every label
// (kernel entry points *and* inner loop labels) becomes an attribution span, so the
// hotspot report reads like `kern_csc_m1i1_s/kcsc_col_loop: 61.2%`. Reports come in two
// forms: a human-readable table + annotated disassembly, and machine-readable JSON via the
// shared JsonWriter.
//
// The profiler is host-side observation only: attaching it never changes simulated cycle
// or instruction counts (tested), and with no probe attached the simulator pays a single
// null check per step. Attaching a probe transparently drops the CPU out of
// block-compiled execution for the profiled window (per-retire callbacks come from the
// step interpreter only); detaching resumes block dispatch with identical counters.

#ifndef NEUROC_SRC_OBS_SIM_PROFILER_H_
#define NEUROC_SRC_OBS_SIM_PROFILER_H_

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/isa/assembler.h"
#include "src/isa/isa.h"
#include "src/obs/json_writer.h"
#include "src/sim/cpu.h"
#include "src/sim/memory.h"

namespace neuroc {

// Backend-independent attribution result: exact per-PC and per-opcode retire counts and
// cycle charges for one profiled window, regardless of how they were gathered (per-retire
// probe callbacks or expanded block-granular counters). Every report builder below works
// off this struct, so both profilers share one reporting pipeline.
struct PcProfile {
  struct PcStat {
    uint64_t count = 0;   // times the instruction at this PC retired
    uint64_t cycles = 0;  // total cycles charged to it
    Op op = Op::kInvalid;
  };

  // Keyed by instruction address; std::map so iteration (and thus every report built from
  // it) is deterministically address-ordered.
  std::map<uint32_t, PcStat> pc_stats;
  std::array<uint64_t, kNumOps> op_counts{};
  std::array<uint64_t, kNumOps> op_cycles{};
  uint64_t total_instructions = 0;
  uint64_t total_cycles = 0;
  // Provenance: which collection backend produced this profile (recorded in profile JSON).
  std::string source;

  void Add(uint32_t addr, Op op, uint64_t count, uint64_t cycles) {
    PcStat& stat = pc_stats[addr];
    stat.count += count;
    stat.cycles += cycles;
    stat.op = op;
    op_counts[static_cast<size_t>(op)] += count;
    op_cycles[static_cast<size_t>(op)] += cycles;
    total_instructions += count;
    total_cycles += cycles;
  }
  void Reset() {
    pc_stats.clear();
    op_counts.fill(0);
    op_cycles.fill(0);
    total_instructions = 0;
    total_cycles = 0;
  }
};

// Provenance tags for PcProfile::source.
inline constexpr const char kProfileSourceStepProbe[] = "step_probe";
inline constexpr const char kProfileSourceBlockCounters[] = "block_counters";

class SimProfiler : public CpuProbe {
 public:
  using PcStat = PcProfile::PcStat;

  SimProfiler() { profile_.source = kProfileSourceStepProbe; }

  void OnRetire(uint32_t addr, Op op, uint32_t cycles) override;
  void Reset();

  const PcProfile& profile() const { return profile_; }
  const std::map<uint32_t, PcStat>& pc_stats() const { return profile_.pc_stats; }
  const std::array<uint64_t, kNumOps>& op_counts() const { return profile_.op_counts; }
  const std::array<uint64_t, kNumOps>& op_cycles() const { return profile_.op_cycles; }
  uint64_t total_instructions() const { return profile_.total_instructions; }
  uint64_t total_cycles() const { return profile_.total_cycles; }

 private:
  PcProfile profile_;
};

// Attaches `probe` to `cpu` for the current scope, restoring the previous probe on exit.
class ScopedCpuProbe {
 public:
  ScopedCpuProbe(Cpu& cpu, CpuProbe* probe) : cpu_(cpu), previous_(cpu.probe()) {
    cpu_.set_probe(probe);
  }
  ~ScopedCpuProbe() { cpu_.set_probe(previous_); }
  ScopedCpuProbe(const ScopedCpuProbe&) = delete;
  ScopedCpuProbe& operator=(const ScopedCpuProbe&) = delete;

 private:
  Cpu& cpu_;
  CpuProbe* previous_;
};

// ---------------------------------------------------------------------------
// Attribution reports
// ---------------------------------------------------------------------------

struct SymbolHotspot {
  std::string name;          // label (joined with '/' when labels share an address)
  uint32_t addr = 0;         // span start
  uint64_t instructions = 0;
  uint64_t cycles = 0;
};

struct HotspotReport {
  uint64_t total_instructions = 0;
  uint64_t total_cycles = 0;  // == Cpu::cycles() delta of the profiled window, exactly
  std::vector<SymbolHotspot> symbols;  // descending by cycles (ties: ascending address)
};

// Aggregates per-PC stats into per-symbol spans. PCs below the first symbol (or with an
// empty table) land in a synthetic "(unattributed)" entry so cycles are never dropped.
HotspotReport BuildHotspotReport(const PcProfile& profile, const SymbolTable& table);

// Fixed-width per-symbol table, hottest first.
std::string FormatHotspotTable(const HotspotReport& report);

// Annotated disassembly of every *executed* instruction, address-ordered, with label lines
// interleaved and per-instruction retire counts and cycles. `program` supplies the
// instruction bytes (profiled PCs outside it are skipped).
std::string FormatAnnotatedDisassembly(const PcProfile& profile, const SymbolTable& table,
                                       const AssembledProgram& program);

// Machine-readable forms (emitted under the writer's current position; callers compose
// them into larger documents).
void WriteHotspotJson(JsonWriter& w, const HotspotReport& report);
void WritePcStatsJson(JsonWriter& w, const PcProfile& profile);
void WriteHeatmapJson(JsonWriter& w, const MemHeatmap& heatmap, uint32_t flash_base,
                      uint32_t ram_base);

// Compact ASCII rendering of the SRAM portion of a heatmap (reads+writes per bucket on a
// log scale), for the human report.
std::string FormatSramHeatmap(const MemHeatmap& heatmap, uint32_t ram_base);

}  // namespace neuroc

#endif  // NEUROC_SRC_OBS_SIM_PROFILER_H_
