#include "src/obs/sim_profiler.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "src/common/check.h"
#include "src/isa/isa.h"

namespace neuroc {

void SimProfiler::OnRetire(uint32_t addr, Op op, uint32_t cycles) {
  profile_.Add(addr, op, 1, cycles);
}

void SimProfiler::Reset() { profile_.Reset(); }

HotspotReport BuildHotspotReport(const PcProfile& profile, const SymbolTable& table) {
  HotspotReport report;
  report.total_instructions = profile.total_instructions;
  report.total_cycles = profile.total_cycles;

  // One accumulator per symbol span, plus a front slot for unattributed PCs.
  std::vector<SymbolHotspot> spans;
  spans.push_back({"(unattributed)", 0, 0, 0});
  for (const SymbolTable::Entry& e : table.entries()) {
    spans.push_back({e.name, e.addr, 0, 0});
  }
  for (const auto& [addr, stat] : profile.pc_stats) {
    const SymbolTable::Entry* e = table.Resolve(addr);
    size_t slot = 0;
    if (e != nullptr) {
      // entries() is ascending and unique by address; the resolved entry's index is its
      // position in that order.
      slot = 1 + static_cast<size_t>(e - table.entries().data());
    }
    spans[slot].instructions += stat.count;
    spans[slot].cycles += stat.cycles;
  }
  for (SymbolHotspot& s : spans) {
    if (s.cycles != 0 || s.instructions != 0) {
      report.symbols.push_back(std::move(s));
    }
  }
  std::sort(report.symbols.begin(), report.symbols.end(),
            [](const SymbolHotspot& a, const SymbolHotspot& b) {
              if (a.cycles != b.cycles) {
                return a.cycles > b.cycles;
              }
              return a.addr < b.addr;
            });
  return report;
}

std::string FormatHotspotTable(const HotspotReport& report) {
  std::string out;
  char buf[160];
  std::snprintf(buf, sizeof(buf), "%-32s %10s %12s %12s %7s\n", "symbol", "addr",
                "instructions", "cycles", "share");
  out += buf;
  for (const SymbolHotspot& s : report.symbols) {
    const double share = report.total_cycles == 0
                             ? 0.0
                             : 100.0 * static_cast<double>(s.cycles) /
                                   static_cast<double>(report.total_cycles);
    std::snprintf(buf, sizeof(buf), "%-32s %#10x %12llu %12llu %6.2f%%\n", s.name.c_str(),
                  s.addr, static_cast<unsigned long long>(s.instructions),
                  static_cast<unsigned long long>(s.cycles), share);
    out += buf;
  }
  std::snprintf(buf, sizeof(buf), "%-32s %10s %12llu %12llu %6.2f%%\n", "total", "",
                static_cast<unsigned long long>(report.total_instructions),
                static_cast<unsigned long long>(report.total_cycles),
                report.total_cycles == 0 ? 0.0 : 100.0);
  out += buf;
  return out;
}

std::string FormatAnnotatedDisassembly(const PcProfile& profile, const SymbolTable& table,
                                       const AssembledProgram& program) {
  std::string out;
  char buf[160];
  const SymbolTable::Entry* current_span = nullptr;
  for (const auto& [addr, stat] : profile.pc_stats) {
    if (addr < program.base_addr || addr >= program.base_addr + program.bytes.size()) {
      continue;  // data or out-of-program PC; not disassemblable here
    }
    if (const SymbolTable::Entry* e = table.Resolve(addr); e != current_span) {
      std::snprintf(buf, sizeof(buf), "%s:\n", e != nullptr ? e->name.c_str()
                                                            : "(unattributed)");
      out += buf;
      current_span = e;
    }
    const size_t off = addr - program.base_addr;
    const uint16_t hw1 = static_cast<uint16_t>(program.bytes[off] |
                                               (program.bytes[off + 1] << 8));
    const bool wide = (hw1 & 0xF800) == 0xF000;
    const uint16_t hw2 =
        wide && off + 3 < program.bytes.size()
            ? static_cast<uint16_t>(program.bytes[off + 2] | (program.bytes[off + 3] << 8))
            : 0;
    const Instr in = DecodeInstr(hw1, hw2);
    std::snprintf(buf, sizeof(buf), "  %08x %10llu %12llu  %s\n", addr,
                  static_cast<unsigned long long>(stat.count),
                  static_cast<unsigned long long>(stat.cycles),
                  Disassemble(in, addr).c_str());
    out += buf;
  }
  return out;
}

void WriteHotspotJson(JsonWriter& w, const HotspotReport& report) {
  w.BeginObject();
  w.Key("total_instructions").Value(report.total_instructions);
  w.Key("total_cycles").Value(report.total_cycles);
  w.Key("symbols").BeginArray();
  for (const SymbolHotspot& s : report.symbols) {
    w.BeginObject();
    w.Key("symbol").Value(s.name);
    w.Key("addr").Value(static_cast<uint64_t>(s.addr));
    w.Key("instructions").Value(s.instructions);
    w.Key("cycles").Value(s.cycles);
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
}

void WritePcStatsJson(JsonWriter& w, const PcProfile& profile) {
  w.BeginArray();
  for (const auto& [addr, stat] : profile.pc_stats) {
    w.BeginObject();
    w.Key("addr").Value(static_cast<uint64_t>(addr));
    w.Key("op").Value(OpName(stat.op));
    w.Key("count").Value(stat.count);
    w.Key("cycles").Value(stat.cycles);
    w.EndObject();
  }
  w.EndArray();
}

namespace {

void WriteBucketArray(JsonWriter& w, const std::vector<uint64_t>& counts) {
  w.BeginArray();
  for (const uint64_t c : counts) {
    w.Value(c);
  }
  w.EndArray();
}

}  // namespace

void WriteHeatmapJson(JsonWriter& w, const MemHeatmap& heatmap, uint32_t flash_base,
                      uint32_t ram_base) {
  w.BeginObject();
  w.Key("bucket_bytes").Value(static_cast<uint64_t>(heatmap.bucket_bytes));
  w.Key("flash_base").Value(static_cast<uint64_t>(flash_base));
  w.Key("ram_base").Value(static_cast<uint64_t>(ram_base));
  w.Key("flash_reads");
  WriteBucketArray(w, heatmap.flash_reads);
  w.Key("sram_reads");
  WriteBucketArray(w, heatmap.sram_reads);
  w.Key("sram_writes");
  WriteBucketArray(w, heatmap.sram_writes);
  w.EndObject();
}

std::string FormatSramHeatmap(const MemHeatmap& heatmap, uint32_t ram_base) {
  if (heatmap.bucket_bytes == 0) {
    return "";
  }
  // Log-scaled density glyphs; one row per 64 buckets.
  static const char kGlyphs[] = " .:-=+*#%@";
  const size_t n = heatmap.sram_reads.size();
  uint64_t max_count = 0;
  std::vector<uint64_t> combined(n, 0);
  for (size_t i = 0; i < n; ++i) {
    combined[i] = heatmap.sram_reads[i] + heatmap.sram_writes[i];
    max_count = std::max(max_count, combined[i]);
  }
  std::string out;
  char buf[64];
  std::snprintf(buf, sizeof(buf), "sram access heatmap (%u B/bucket, max %llu):\n",
                heatmap.bucket_bytes, static_cast<unsigned long long>(max_count));
  out += buf;
  const double log_max = max_count > 0 ? std::log1p(static_cast<double>(max_count)) : 1.0;
  constexpr size_t kPerRow = 64;
  for (size_t row = 0; row < n; row += kPerRow) {
    std::snprintf(buf, sizeof(buf), "  %08x |",
                  static_cast<uint32_t>(ram_base + row * heatmap.bucket_bytes));
    out += buf;
    for (size_t i = row; i < std::min(row + kPerRow, n); ++i) {
      const double norm =
          combined[i] == 0 ? 0.0 : std::log1p(static_cast<double>(combined[i])) / log_max;
      const size_t g = std::min<size_t>(sizeof(kGlyphs) - 2,
                                        static_cast<size_t>(norm * (sizeof(kGlyphs) - 2)));
      out.push_back(kGlyphs[g]);
    }
    out += "|\n";
  }
  return out;
}

}  // namespace neuroc
