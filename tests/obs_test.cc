// Observability subsystem tests (ctest -L obs): the cycle-exact sim profiler and its
// acceptance invariants (exact attribution, determinism, zero overhead when disabled), the
// host trace/metrics layer, and the shared JSON writer.

#include <gtest/gtest.h>

#include <array>
#include <cctype>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "src/common/logging.h"
#include "src/common/thread_pool.h"
#include "src/core/synthetic.h"
#include "src/obs/block_profiler.h"
#include "src/obs/energy.h"
#include "src/obs/json_reader.h"
#include "src/obs/json_writer.h"
#include "src/obs/registry.h"
#include "src/obs/sim_profiler.h"
#include "tests/test_util.h"
#include "src/obs/trace.h"
#include "src/runtime/deployed_model.h"
#include "src/runtime/platform.h"
#include "src/runtime/profile.h"
#include "src/sim/guest_fault.h"

namespace neuroc {
namespace {

// ---------------------------------------------------------------------------
// Minimal JSON syntax checker (no parsing, just well-formedness) for validating the
// writer/trace output without adding a JSON dependency.
// ---------------------------------------------------------------------------

class JsonChecker {
 public:
  explicit JsonChecker(std::string_view s) : s_(s) {}

  bool Valid() {
    SkipWs();
    if (!Value()) {
      return false;
    }
    SkipWs();
    return pos_ == s_.size();
  }

 private:
  void SkipWs() {
    while (pos_ < s_.size() && (s_[pos_] == ' ' || s_[pos_] == '\n' || s_[pos_] == '\t' ||
                                s_[pos_] == '\r')) {
      ++pos_;
    }
  }
  bool Literal(std::string_view lit) {
    if (s_.compare(pos_, lit.size(), lit) != 0) {
      return false;
    }
    pos_ += lit.size();
    return true;
  }
  bool String() {
    if (pos_ >= s_.size() || s_[pos_] != '"') {
      return false;
    }
    ++pos_;
    while (pos_ < s_.size() && s_[pos_] != '"') {
      if (s_[pos_] == '\\') {
        ++pos_;
        if (pos_ >= s_.size()) {
          return false;
        }
      }
      ++pos_;
    }
    if (pos_ >= s_.size()) {
      return false;
    }
    ++pos_;  // closing quote
    return true;
  }
  bool Number() {
    const size_t start = pos_;
    if (pos_ < s_.size() && s_[pos_] == '-') {
      ++pos_;
    }
    while (pos_ < s_.size() && (std::isdigit(static_cast<unsigned char>(s_[pos_])) ||
                                s_[pos_] == '.' || s_[pos_] == 'e' || s_[pos_] == 'E' ||
                                s_[pos_] == '+' || s_[pos_] == '-')) {
      ++pos_;
    }
    return pos_ > start;
  }
  bool Value() {
    SkipWs();
    if (pos_ >= s_.size()) {
      return false;
    }
    switch (s_[pos_]) {
      case '{':
        return Object();
      case '[':
        return Array();
      case '"':
        return String();
      case 't':
        return Literal("true");
      case 'f':
        return Literal("false");
      case 'n':
        return Literal("null");
      default:
        return Number();
    }
  }
  bool Object() {
    ++pos_;  // '{'
    SkipWs();
    if (pos_ < s_.size() && s_[pos_] == '}') {
      ++pos_;
      return true;
    }
    for (;;) {
      SkipWs();
      if (!String()) {
        return false;
      }
      SkipWs();
      if (pos_ >= s_.size() || s_[pos_] != ':') {
        return false;
      }
      ++pos_;
      if (!Value()) {
        return false;
      }
      SkipWs();
      if (pos_ < s_.size() && s_[pos_] == ',') {
        ++pos_;
        continue;
      }
      break;
    }
    if (pos_ >= s_.size() || s_[pos_] != '}') {
      return false;
    }
    ++pos_;
    return true;
  }
  bool Array() {
    ++pos_;  // '['
    SkipWs();
    if (pos_ < s_.size() && s_[pos_] == ']') {
      ++pos_;
      return true;
    }
    for (;;) {
      if (!Value()) {
        return false;
      }
      SkipWs();
      if (pos_ < s_.size() && s_[pos_] == ',') {
        ++pos_;
        continue;
      }
      break;
    }
    if (pos_ >= s_.size() || s_[pos_] != ']') {
      return false;
    }
    ++pos_;
    return true;
  }

  std::string_view s_;
  size_t pos_ = 0;
};

NeuroCModel MakeSmallModel(uint64_t seed) { return testutil::MakeTestModel(seed); }

std::string ProfileJsonFor(uint64_t seed) {
  NeuroCModel model = MakeSmallModel(seed);
  DeployedModel deployed = DeployedModel::Deploy(model, Stm32f072rb().ToMachineConfig());
  const InferenceProfile profile = ProfileInferenceDetailed(deployed);
  JsonWriter w;
  WriteInferenceProfileJson(w, profile, deployed);
  return w.str();
}

// ---------------------------------------------------------------------------
// JsonWriter
// ---------------------------------------------------------------------------

TEST(JsonWriterTest, NestedDocumentIsWellFormed) {
  JsonWriter w;
  w.BeginObject();
  w.Key("name").Value("bench \"quoted\"\n");
  w.Key("count").Value(static_cast<uint64_t>(42));
  w.Key("negative").Value(static_cast<int64_t>(-7));
  w.Key("ratio").Value(0.25);
  w.Key("flag").Value(true);
  w.Key("items").BeginArray();
  w.Value(1).Value(2).Value(3);
  w.BeginObject().Key("inner").Value("x").EndObject();
  w.EndArray();
  w.EndObject();
  ASSERT_TRUE(w.done());
  EXPECT_TRUE(JsonChecker(w.str()).Valid()) << w.str();
  EXPECT_NE(w.str().find("\"bench \\\"quoted\\\"\\n\""), std::string::npos);
}

TEST(JsonWriterTest, CompactModeHasNoNewlines) {
  JsonWriter w(0);
  w.BeginObject();
  w.Key("a").Value(1);
  w.Key("b").BeginArray().Value(2).Value(3).EndArray();
  w.EndObject();
  EXPECT_EQ(w.str().find('\n'), std::string::npos);
  EXPECT_TRUE(JsonChecker(w.str()).Valid()) << w.str();
}

TEST(JsonWriterTest, NonFiniteDoublesBecomeNull) {
  JsonWriter w(0);
  w.BeginArray();
  w.Value(std::numeric_limits<double>::infinity());
  w.Value(std::numeric_limits<double>::quiet_NaN());
  w.EndArray();
  EXPECT_EQ(w.str(), "[null,null]");
}

TEST(JsonWriterTest, EscapeHandlesControlChars) {
  EXPECT_EQ(JsonWriter::Escape("a\tb"), "a\\tb");
  EXPECT_EQ(JsonWriter::Escape(std::string_view("\x01", 1)), "\\u0001");
  EXPECT_EQ(JsonWriter::Escape("back\\slash"), "back\\\\slash");
}

// ---------------------------------------------------------------------------
// SymbolTable
// ---------------------------------------------------------------------------

TEST(SymbolTableTest, ResolveFindsGreatestEntryAtOrBelow) {
  std::map<std::string, uint32_t> symbols = {
      {"kern_a", 0x100}, {"loop_a", 0x120}, {"kern_b", 0x200}};
  SymbolTable table(symbols);
  EXPECT_EQ(table.Resolve(0x0FF), nullptr);
  ASSERT_NE(table.Resolve(0x100), nullptr);
  EXPECT_EQ(table.Resolve(0x100)->name, "kern_a");
  EXPECT_EQ(table.Resolve(0x11F)->name, "kern_a");
  EXPECT_EQ(table.Resolve(0x120)->name, "loop_a");
  EXPECT_EQ(table.Resolve(0x5000)->name, "kern_b");
}

TEST(SymbolTableTest, SameAddressLabelsJoin) {
  std::map<std::string, uint32_t> symbols = {
      {"alias_z", 0x100}, {"entry_a", 0x100}, {"other", 0x80}};
  SymbolTable table(symbols);
  ASSERT_EQ(table.entries().size(), 2u);
  EXPECT_EQ(table.Resolve(0x100)->name, "alias_z/entry_a");
}

// ---------------------------------------------------------------------------
// Profiler acceptance invariants
// ---------------------------------------------------------------------------

TEST(SimProfilerTest, PerPcCyclesSumToCpuCycles) {
  NeuroCModel model = MakeSmallModel(3);
  DeployedModel deployed = DeployedModel::Deploy(model, Stm32f072rb().ToMachineConfig());
  deployed.machine().cpu().ResetCounters();
  SimProfiler profiler;
  std::vector<int8_t> input(deployed.input_dim(), 5);
  {
    ScopedCpuProbe attach(deployed.machine().cpu(), &profiler);
    deployed.Predict(input);
  }
  EXPECT_EQ(profiler.total_cycles(), deployed.machine().cpu().cycles());
  EXPECT_EQ(profiler.total_instructions(), deployed.machine().cpu().instructions());

  uint64_t pc_cycle_sum = 0;
  for (const auto& [pc, stat] : profiler.pc_stats()) {
    pc_cycle_sum += stat.cycles;
  }
  EXPECT_EQ(pc_cycle_sum, profiler.total_cycles());
}

TEST(SimProfilerTest, HotspotCyclesSumToTotalExactly) {
  NeuroCModel model = MakeSmallModel(4);
  DeployedModel deployed = DeployedModel::Deploy(model, Stm32f072rb().ToMachineConfig());
  const InferenceProfile profile = ProfileInferenceDetailed(deployed);

  EXPECT_EQ(profile.hotspots.total_cycles, profile.summary.cycles);
  uint64_t symbol_cycles = 0;
  uint64_t symbol_instructions = 0;
  for (const SymbolHotspot& s : profile.hotspots.symbols) {
    symbol_cycles += s.cycles;
    symbol_instructions += s.instructions;
  }
  EXPECT_EQ(symbol_cycles, profile.summary.cycles);
  EXPECT_EQ(symbol_instructions, profile.summary.instructions);
  EXPECT_FALSE(profile.hotspots.symbols.empty());
  // Real kernels ran, so named symbols (not just "(unattributed)") must appear.
  bool named = false;
  for (const SymbolHotspot& s : profile.hotspots.symbols) {
    named |= s.name != "(unattributed)";
  }
  EXPECT_TRUE(named);
}

TEST(SimProfilerTest, CategoryCyclesSumToTotal) {
  NeuroCModel model = MakeSmallModel(5);
  DeployedModel deployed = DeployedModel::Deploy(model, Stm32f072rb().ToMachineConfig());
  const ExecutionProfile p = ProfileInference(deployed);
  EXPECT_GT(p.cycles, 0u);
  EXPECT_EQ(p.load_cycles + p.store_cycles + p.alu_cycles + p.multiply_cycles +
                p.branch_cycles + p.stack_cycles,
            p.cycles);
  EXPECT_EQ(p.loads + p.stores + p.alu + p.multiplies + p.branches + p.stack_ops,
            p.instructions);
}

TEST(SimProfilerTest, AttachingProbeDoesNotChangeSimulatedCounts) {
  NeuroCModel model = MakeSmallModel(6);
  std::vector<int8_t> input(64, 3);

  DeployedModel plain = DeployedModel::Deploy(model, Stm32f072rb().ToMachineConfig());
  plain.machine().cpu().ResetCounters();
  plain.Predict(input);
  const uint64_t cycles_plain = plain.machine().cpu().cycles();
  const uint64_t instructions_plain = plain.machine().cpu().instructions();

  DeployedModel probed = DeployedModel::Deploy(model, Stm32f072rb().ToMachineConfig());
  probed.machine().cpu().ResetCounters();
  SimProfiler profiler;
  {
    ScopedCpuProbe attach(probed.machine().cpu(), &profiler);
    probed.Predict(input);
  }
  EXPECT_EQ(probed.machine().cpu().cycles(), cycles_plain);
  EXPECT_EQ(probed.machine().cpu().instructions(), instructions_plain);
  EXPECT_EQ(profiler.total_cycles(), cycles_plain);
}

TEST(SimProfilerTest, ProfileJsonIsDeterministic) {
  const std::string a = ProfileJsonFor(11);
  const std::string b = ProfileJsonFor(11);
  EXPECT_EQ(a, b);  // byte-identical
  EXPECT_TRUE(JsonChecker(a).Valid());
  EXPECT_NE(a.find("\"schema\""), std::string::npos);
  EXPECT_NE(a.find("\"hotspots\""), std::string::npos);
}

TEST(SimProfilerTest, FormattedReportMentionsSymbolsAndStack) {
  NeuroCModel model = MakeSmallModel(12);
  DeployedModel deployed = DeployedModel::Deploy(model, Stm32f072rb().ToMachineConfig());
  const InferenceProfile profile = ProfileInferenceDetailed(deployed);
  const std::string text = FormatInferenceProfile(profile, deployed);
  EXPECT_NE(text.find("hotspots"), std::string::npos);
  EXPECT_NE(text.find("stack high water"), std::string::npos);
  EXPECT_NE(text.find("per-layer cycles"), std::string::npos);

  const std::string annotated =
      FormatInferenceProfile(profile, deployed, /*annotated_disassembly=*/true);
  EXPECT_GT(annotated.size(), text.size());
}

// ---------------------------------------------------------------------------
// Memory observability
// ---------------------------------------------------------------------------

TEST(MemObservabilityTest, HeatmapTotalsMatchAccessStats) {
  NeuroCModel model = MakeSmallModel(13);
  DeployedModel deployed = DeployedModel::Deploy(model, Stm32f072rb().ToMachineConfig());
  MemoryMap& mem = deployed.machine().memory();
  mem.ResetStats();
  mem.EnableHeatmap(64);
  std::vector<int8_t> input(deployed.input_dim(), 1);
  deployed.Predict(input);
  const MemHeatmap& hm = mem.heatmap();
  const auto sum = [](const std::vector<uint64_t>& v) {
    uint64_t s = 0;
    for (uint64_t x : v) {
      s += x;
    }
    return s;
  };
  EXPECT_EQ(sum(hm.flash_reads), mem.stats().flash_reads);
  EXPECT_EQ(sum(hm.sram_reads), mem.stats().sram_reads);
  EXPECT_EQ(sum(hm.sram_writes), mem.stats().sram_writes);
  mem.DisableHeatmap();
  EXPECT_EQ(mem.heatmap().bucket_bytes, 0u);
}

TEST(MemObservabilityTest, StackWatchSeesStackButNotActivations) {
  NeuroCModel model = MakeSmallModel(14);
  DeployedModel deployed = DeployedModel::Deploy(model, Stm32f072rb().ToMachineConfig());
  const InferenceProfile profile = ProfileInferenceDetailed(deployed);
  const MachineConfig& cfg = deployed.machine().config();
  // Kernels push/pop, so some stack is used; and it must fit inside SRAM above the
  // activation buffers.
  EXPECT_GT(profile.stack_bytes_used, 0u);
  EXPECT_LT(profile.stack_bytes_used, cfg.ram_size);
  EXPECT_EQ(profile.stack_bytes_used + profile.stack_headroom_bytes +
                (deployed.activation_top_addr() - cfg.ram_base),
            cfg.ram_size);
}

// ---------------------------------------------------------------------------
// Trace recorder
// ---------------------------------------------------------------------------

TEST(TraceTest, ChromeTraceJsonIsWellFormed) {
  TraceRecorder rec;
  rec.set_enabled(true);
  rec.Start();
  {
    TraceRecorder::Span outer(rec, "outer \"span\"");
    TraceRecorder::Span inner(rec, "inner");
  }
  rec.Counter("loss", 0.5);
  rec.AddCompleteEvent("layer_0", "sim", 0.0, 125.0);
  const std::string json = rec.ToChromeTraceJson();
  EXPECT_TRUE(JsonChecker(json).Valid()) << json;
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"C\""), std::string::npos);
  EXPECT_NE(json.find("process_name"), std::string::npos);
  EXPECT_EQ(rec.event_count(), 4u);
}

TEST(TraceTest, SpansFromPoolThreadsAreRecorded) {
  TraceRecorder rec;
  rec.set_enabled(true);
  rec.Start();
  ParallelFor(0, 64, 1, [&](size_t i0, size_t i1) {
    for (size_t i = i0; i < i1; ++i) {
      TraceRecorder::Span span(rec, "chunk");
    }
  });
  EXPECT_EQ(rec.event_count(), 64u);
  EXPECT_TRUE(JsonChecker(rec.ToChromeTraceJson()).Valid());
}

TEST(TraceTest, DisabledRecorderRecordsNothing) {
  TraceRecorder rec;
  ASSERT_FALSE(rec.enabled());
  {
    TraceRecorder::Span span(rec, "ignored");
  }
  rec.Counter("ignored", 1.0);
  EXPECT_EQ(rec.event_count(), 0u);
}

// ---------------------------------------------------------------------------
// Block-granular profiler: the fast-path attribution must be bit-identical to the
// step-interpreter probe (the tentpole invariant of the observability PR).
// ---------------------------------------------------------------------------

void ExpectProfilesBitIdentical(const PcProfile& block, const PcProfile& step) {
  EXPECT_EQ(block.total_instructions, step.total_instructions);
  EXPECT_EQ(block.total_cycles, step.total_cycles);
  EXPECT_EQ(block.op_counts, step.op_counts);
  EXPECT_EQ(block.op_cycles, step.op_cycles);
  ASSERT_EQ(block.pc_stats.size(), step.pc_stats.size());
  auto it = step.pc_stats.begin();
  for (const auto& [pc, stat] : block.pc_stats) {
    ASSERT_EQ(pc, it->first) << std::hex << pc;
    EXPECT_EQ(stat.count, it->second.count) << std::hex << pc;
    EXPECT_EQ(stat.cycles, it->second.cycles) << std::hex << pc;
    EXPECT_EQ(stat.op, it->second.op) << std::hex << pc;
    ++it;
  }
}

TEST(BlockProfilerTest, AttributionMatchesStepProbeAcrossEncodings) {
  for (const EncodingKind encoding : kAllEncodingKinds) {
    SCOPED_TRACE(static_cast<int>(encoding));
    testutil::TestModelSpec spec;
    spec.encoding = encoding;
    NeuroCModel model = testutil::MakeTestModel(21, spec);

    // Reference: per-retire probe on the step interpreter.
    DeployedModel stepped = DeployedModel::Deploy(model, Stm32f072rb().ToMachineConfig());
    std::vector<int8_t> input(stepped.input_dim(), 7);
    stepped.machine().cpu().ResetCounters();
    SimProfiler step_profiler;
    {
      ScopedCpuProbe attach(stepped.machine().cpu(), &step_profiler);
      stepped.Predict(input);
    }

    // Same inference profiled without leaving block-compiled execution.
    DeployedModel blocked = DeployedModel::Deploy(model, Stm32f072rb().ToMachineConfig());
    Cpu& cpu = blocked.machine().cpu();
    cpu.EnableBlockCompile(true);
    cpu.ResetCounters();
    PcProfile block_profile;
    {
      BlockProfiler profiler(cpu);
      blocked.Predict(input);
      block_profile = profiler.Collect();
    }

    // Expanded counters must account for every simulated cycle of the window...
    EXPECT_EQ(block_profile.total_cycles, cpu.cycles());
    EXPECT_EQ(block_profile.total_instructions, cpu.instructions());
    // ...and agree with the step probe PC-by-PC.
    ExpectProfilesBitIdentical(block_profile, step_profiler.profile());
  }
}

TEST(BlockProfilerTest, DetailedProfileMatchesStepProbeOnTwinDeployment) {
  NeuroCModel model = MakeSmallModel(22);
  DeployedModel deployed = DeployedModel::Deploy(model, Stm32f072rb().ToMachineConfig());
  const InferenceProfile profile = ProfileInferenceDetailed(deployed);

  // The same zero-input inference on a twin deployment, attributed per retire by the
  // step-interpreter probe.
  DeployedModel twin = DeployedModel::Deploy(model, Stm32f072rb().ToMachineConfig());
  Cpu& cpu = twin.machine().cpu();
  cpu.ResetCounters();
  SimProfiler step_profiler;
  {
    ScopedCpuProbe attach(cpu, &step_profiler);
    twin.Predict(std::vector<int8_t>(twin.input_dim(), 0));
  }
  EXPECT_EQ(profile.summary.cycles, cpu.cycles());
  EXPECT_EQ(profile.summary.instructions, cpu.instructions());
  ExpectProfilesBitIdentical(profile.attribution, step_profiler.profile());
}

TEST(BlockProfilerTest, TotalsStayExactWhenInferenceAbortsMidRun) {
  NeuroCModel model = MakeSmallModel(23);
  MachineConfig config = Stm32f072rb().ToMachineConfig();
  DeployedModel full = DeployedModel::Deploy(model, config);
  std::vector<int8_t> input(full.input_dim(), 3);
  full.machine().cpu().ResetCounters();
  full.Predict(input);
  const uint64_t full_instructions = full.machine().cpu().instructions();

  // Cut the instruction budget so the dominant layer kernel overruns it (the budget is
  // per guest call, and layer kernels are called one by one): the fault unwinds out of
  // block execution, and the profiler must still account for every cycle simulated.
  config.max_instructions = full_instructions / 4;
  DeployedModel aborted = DeployedModel::Deploy(model, config);
  Cpu& cpu = aborted.machine().cpu();
  cpu.EnableBlockCompile(true);
  cpu.ResetCounters();
  PcProfile profile;
  {
    BlockProfiler profiler(cpu);
    EXPECT_FALSE(aborted.TryPredict(input).ok());
    profile = profiler.Collect();
  }
  EXPECT_GT(profile.total_cycles, 0u);
  EXPECT_EQ(profile.total_cycles, cpu.cycles());
  EXPECT_EQ(profile.total_instructions, cpu.instructions());
}

// ---------------------------------------------------------------------------
// Profile JSON and the SRAM headroom knob
// ---------------------------------------------------------------------------

TEST(ProfileTest, StackHeadroomWarnDefaultsTo256Bytes) {
  // NEUROC_SRAM_HEADROOM is not set in the test environment, so the documented default
  // applies (the parse is cached process-wide, so overriding it here would be racy).
  EXPECT_EQ(StackHeadroomWarnBytes(), 256u);
}

TEST(ProfileTest, ProfileJsonIsSchemaV3WithPerPcCyclesSummingToTotal) {
  NeuroCModel model = MakeSmallModel(24);
  DeployedModel deployed = DeployedModel::Deploy(model, Stm32f072rb().ToMachineConfig());
  const InferenceProfile profile = ProfileInferenceDetailed(deployed);
  JsonWriter w;
  WriteInferenceProfileJson(w, profile, deployed);
  JsonValue doc;
  std::string error;
  ASSERT_TRUE(ParseJson(w.str(), &doc, &error)) << error;
  ASSERT_NE(doc.Find("schema"), nullptr);
  EXPECT_EQ(doc.Find("schema")->text, "neuroc.profile.v3");
  EXPECT_EQ(doc.Find("mode"), nullptr);
  EXPECT_EQ(doc.Find("profiler"), nullptr);
  const JsonValue* pcs = doc.Find("pc_stats");
  ASSERT_NE(pcs, nullptr);
  ASSERT_FALSE(pcs->elements.empty());
  double pc_cycles = 0.0;
  for (const JsonValue& pc : pcs->elements) {
    pc_cycles += pc.Find("cycles")->AsDouble();
  }
  ASSERT_NE(doc.FindPath("summary.cycles"), nullptr);
  EXPECT_EQ(pc_cycles, doc.FindPath("summary.cycles")->AsDouble());
  EXPECT_EQ(doc.FindPath("summary.cycles")->AsDouble(),
            static_cast<double>(profile.summary.cycles));
  ASSERT_NE(doc.FindPath("energy.total_pj"), nullptr);
  ASSERT_NE(doc.FindPath("stack.headroom_warn_bytes"), nullptr);
  EXPECT_EQ(doc.FindPath("stack.headroom_warn_bytes")->AsDouble(), 256.0);
}

// ---------------------------------------------------------------------------
// Energy-proxy model
// ---------------------------------------------------------------------------

TEST(EnergyModelTest, EstimateDecomposesExactly) {
  const EnergyModel model = EnergyModel::CortexM0Proxy();
  const std::array<uint64_t, kNumOpClasses> cycles = {100, 50, 25, 25, 10, 5};
  const EnergyEstimate e = EstimateEnergy(model, cycles, /*flash_reads=*/40,
                                          /*sram_reads=*/30, /*sram_writes=*/20);
  double core = 0.0;
  for (size_t i = 0; i < kNumOpClasses; ++i) {
    EXPECT_DOUBLE_EQ(e.core_pj[i],
                     static_cast<double>(cycles[i]) * model.core_pj_per_cycle[i]);
    core += e.core_pj[i];
  }
  EXPECT_DOUBLE_EQ(e.core_total_pj, core);
  EXPECT_DOUBLE_EQ(e.flash_pj, 40.0 * model.flash_read_pj);
  EXPECT_DOUBLE_EQ(e.sram_pj, 30.0 * model.sram_read_pj + 20.0 * model.sram_write_pj);
  EXPECT_DOUBLE_EQ(e.total_pj, e.core_total_pj + e.flash_pj + e.sram_pj);
  EXPECT_DOUBLE_EQ(e.total_uj(), e.total_pj * 1e-6);
  EXPECT_GT(e.AvgPowerMw(215, 48e6), 0.0);
  EXPECT_EQ(e.AvgPowerMw(0, 48e6), 0.0);
}

TEST(EnergyModelTest, ProfileEnergyIsRecomputableFromAttribution) {
  NeuroCModel model = MakeSmallModel(25);
  DeployedModel deployed = DeployedModel::Deploy(model, Stm32f072rb().ToMachineConfig());
  const InferenceProfile p = ProfileInferenceDetailed(deployed);
  const std::array<uint64_t, kNumOpClasses> cycles = {
      p.summary.alu_cycles,    p.summary.multiply_cycles, p.summary.load_cycles,
      p.summary.store_cycles,  p.summary.branch_cycles,   p.summary.stack_cycles};
  const EnergyEstimate recomputed =
      EstimateEnergy(p.energy_model, cycles, p.summary.flash_reads, p.summary.sram_reads,
                     p.summary.sram_writes);
  EXPECT_GT(p.energy.total_pj, 0.0);
  EXPECT_DOUBLE_EQ(p.energy.total_pj, recomputed.total_pj);
  EXPECT_DOUBLE_EQ(p.energy.core_total_pj, recomputed.core_total_pj);
  EXPECT_DOUBLE_EQ(p.energy.total_pj,
                   p.energy.core_total_pj + p.energy.flash_pj + p.energy.sram_pj);
}

// ---------------------------------------------------------------------------
// Metrics registry
// ---------------------------------------------------------------------------

TEST(MetricsRegistryTest, JsonIsRegistrationOrderedAndWellFormed) {
  MetricsRegistry reg;
  reg.GetCounter("zeta.count").Add(2);
  reg.GetCounter("alpha.count").Add(3);
  reg.GetGauge("best.accuracy").Set(0.875);
  reg.GetHistogram("latency").Observe(2.0);
  reg.GetHistogram("latency").Observe(4.0);

  JsonWriter w(0);
  reg.WriteJson(w);
  JsonValue doc;
  std::string error;
  ASSERT_TRUE(ParseJson(w.str(), &doc, &error)) << error;
  // Registration order, not lexicographic: zeta registered first stays first.
  const JsonValue* counters = doc.Find("counters");
  ASSERT_NE(counters, nullptr);
  ASSERT_EQ(counters->members.size(), 2u);
  EXPECT_EQ(counters->members[0].first, "zeta.count");
  EXPECT_EQ(counters->members[1].first, "alpha.count");
  EXPECT_EQ(doc.FindPath("counters.zeta.count"), nullptr);  // dotted names are literal keys
  EXPECT_EQ(counters->Find("zeta.count")->AsDouble(), 2.0);
  EXPECT_EQ(doc.Find("gauges")->Find("best.accuracy")->AsDouble(), 0.875);
  const JsonValue* hist = doc.Find("histograms")->Find("latency");
  ASSERT_NE(hist, nullptr);
  EXPECT_EQ(hist->Find("count")->AsDouble(), 2.0);
  EXPECT_EQ(hist->Find("sum")->AsDouble(), 6.0);
  EXPECT_EQ(hist->Find("min")->AsDouble(), 2.0);
  EXPECT_EQ(hist->Find("max")->AsDouble(), 4.0);
}

TEST(MetricsRegistryTest, CounterAddsFromPoolThreadsSumExactly) {
  testutil::GlobalThreadsGuard guard;
  ThreadPool::SetGlobalThreads(4);
  MetricsRegistry reg;
  MetricsRegistry::Counter& counter = reg.GetCounter("work.items");  // register up front
  ParallelFor(0, 1000, 16, [&](size_t i0, size_t i1) {
    for (size_t i = i0; i < i1; ++i) {
      counter.Add(1);
    }
  });
  EXPECT_EQ(counter.value(), 1000u);
}

TEST(MetricsRegistryTest, ResetZeroesValuesButKeepsRegistration) {
  MetricsRegistry reg;
  reg.GetCounter("c").Add(7);
  reg.GetGauge("g").Set(1.25);
  reg.GetHistogram("h").Observe(3.0);
  reg.Reset();
  EXPECT_EQ(reg.GetCounter("c").value(), 0u);
  EXPECT_EQ(reg.GetGauge("g").value(), 0.0);
  EXPECT_EQ(reg.GetHistogram("h").snapshot().count, 0u);

  JsonWriter w(0);
  reg.WriteJson(w);
  // Names survive a reset (so run records keep a stable schema across campaigns).
  EXPECT_NE(w.str().find("\"c\""), std::string::npos);
  EXPECT_NE(w.str().find("\"h\""), std::string::npos);
}

TEST(MetricsRegistryDeathTest, OneNameRegisteredAsTwoKindsIsChecked) {
  MetricsRegistry reg;
  reg.GetCounter("shared.name");
  EXPECT_DEATH(reg.GetGauge("shared.name"), "two kinds");
  EXPECT_DEATH(reg.GetHistogram("shared.name"), "two kinds");
  reg.GetGauge("other.name");
  EXPECT_DEATH(reg.GetCounter("other.name"), "two kinds");
}

TEST(MetricsRegistryTest, RunRecordsRoundTripThroughJsonReader) {
  const std::string path = ::testing::TempDir() + "/neuroc_registry_test.jsonl";
  std::remove(path.c_str());
  MetricsRegistry reg;
  reg.GetCounter("fuzz.cases").Add(10);
  reg.GetGauge("search.best_accuracy").Set(0.5);
  ASSERT_TRUE(reg.AppendRunRecord(path, "run_a"));
  reg.GetCounter("fuzz.cases").Add(5);
  ASSERT_TRUE(reg.AppendRunRecord(path, "run_b"));

  std::ifstream in(path);
  std::string text((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  std::vector<JsonValue> records;
  std::string error;
  ASSERT_TRUE(ParseJsonl(text, &records, &error)) << error;
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].Find("run")->text, "run_a");
  EXPECT_EQ(records[0].Find("counters")->Find("fuzz.cases")->AsDouble(), 10.0);
  EXPECT_EQ(records[1].Find("run")->text, "run_b");
  EXPECT_EQ(records[1].Find("counters")->Find("fuzz.cases")->AsDouble(), 15.0);
  EXPECT_EQ(records[1].Find("gauges")->Find("search.best_accuracy")->AsDouble(), 0.5);
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// JSON reader
// ---------------------------------------------------------------------------

TEST(JsonReaderTest, ParsesScalarsContainersAndEscapes) {
  JsonValue doc;
  std::string error;
  ASSERT_TRUE(ParseJson(
      R"({"a":[1,2.5,-3e2],"s":"x\nA","t":true,"nil":null,"o":{"k":"v"}})", &doc,
      &error))
      << error;
  const JsonValue* a = doc.Find("a");
  ASSERT_NE(a, nullptr);
  ASSERT_EQ(a->elements.size(), 3u);
  EXPECT_EQ(a->elements[2].AsDouble(), -300.0);
  EXPECT_EQ(doc.Find("s")->text, "x\nA");
  EXPECT_TRUE(doc.Find("t")->boolean);
  EXPECT_EQ(doc.Find("nil")->kind, JsonValue::Kind::kNull);
  ASSERT_NE(doc.FindPath("o.k"), nullptr);
  EXPECT_EQ(doc.FindPath("o.k")->text, "v");
  EXPECT_EQ(doc.Find("missing"), nullptr);
}

TEST(JsonReaderTest, RejectsMalformedDocuments) {
  for (const char* bad : {"{", "[1,", "{\"a\":}", "1 2", "\"unterminated", "{'a':1}"}) {
    JsonValue doc;
    std::string error;
    EXPECT_FALSE(ParseJson(bad, &doc, &error)) << bad;
    EXPECT_FALSE(error.empty()) << bad;
  }
}

TEST(JsonReaderTest, RoundTripsJsonWriterOutput) {
  const std::string json = ProfileJsonFor(26);
  JsonValue doc;
  std::string error;
  ASSERT_TRUE(ParseJson(json, &doc, &error)) << error;
  EXPECT_EQ(doc.Find("schema")->text, "neuroc.profile.v3");
  ASSERT_NE(doc.FindPath("summary.cycles"), nullptr);
  EXPECT_GT(doc.FindPath("summary.cycles")->AsDouble(), 0.0);
}

TEST(JsonReaderTest, ParseJsonlSkipsBlankLinesAndStopsAtBadRecord) {
  std::vector<JsonValue> records;
  std::string error;
  ASSERT_TRUE(ParseJsonl("{\"a\":1}\n\n{\"b\":2}\n", &records, &error)) << error;
  EXPECT_EQ(records.size(), 2u);
  records.clear();
  EXPECT_FALSE(ParseJsonl("{\"a\":1}\n{bad\n", &records, &error));
  EXPECT_FALSE(error.empty());
}

// ---------------------------------------------------------------------------
// Trace recorder abort paths
// ---------------------------------------------------------------------------

TEST(TraceTest, JsonStaysWellFormedWhenGuestFaultUnwindsSpans) {
  TraceRecorder rec;
  rec.set_enabled(true);
  rec.Start();
  try {
    TraceRecorder::Span outer(rec, "inference");
    TraceRecorder::Span inner(rec, "layer_1");
    throw GuestFault{ErrorCode::kUnmappedAccess, "synthetic fault", 0x2000'4000};
  } catch (const GuestFault&) {
    // The abort path a budget overrun / guest fault takes: spans close via unwinding.
  }
  EXPECT_EQ(rec.event_count(), 2u);
  const std::string json = rec.ToChromeTraceJson();
  EXPECT_TRUE(JsonChecker(json).Valid()) << json;
  EXPECT_NE(json.find("layer_1"), std::string::npos);
}

TEST(TraceTest, SerializingWithASpanStillOpenIsWellFormed) {
  TraceRecorder rec;
  rec.set_enabled(true);
  rec.Start();
  TraceRecorder::Span open(rec, "still_running");
  rec.AddCompleteEvent("done", "sim", 0.0, 10.0);
  // A trace written from a fault handler while outer spans are still alive must be
  // loadable; the open span simply is not in it yet.
  const std::string json = rec.ToChromeTraceJson();
  EXPECT_TRUE(JsonChecker(json).Valid()) << json;
  EXPECT_EQ(json.find("still_running"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Log-level env parsing
// ---------------------------------------------------------------------------

TEST(LoggingTest, ParseLogLevelAcceptsKnownNames) {
  LogLevel level = LogLevel::kInfo;
  EXPECT_TRUE(ParseLogLevel("debug", &level));
  EXPECT_EQ(level, LogLevel::kDebug);
  EXPECT_TRUE(ParseLogLevel("WARN", &level));
  EXPECT_EQ(level, LogLevel::kWarn);
  EXPECT_TRUE(ParseLogLevel("warning", &level));
  EXPECT_EQ(level, LogLevel::kWarn);
  EXPECT_TRUE(ParseLogLevel("Error", &level));
  EXPECT_EQ(level, LogLevel::kError);
  EXPECT_TRUE(ParseLogLevel("info", &level));
  EXPECT_EQ(level, LogLevel::kInfo);

  level = LogLevel::kError;
  EXPECT_FALSE(ParseLogLevel(nullptr, &level));
  EXPECT_FALSE(ParseLogLevel("", &level));
  EXPECT_FALSE(ParseLogLevel("verbose", &level));
  EXPECT_EQ(level, LogLevel::kError);  // untouched on failure
}

}  // namespace
}  // namespace neuroc
