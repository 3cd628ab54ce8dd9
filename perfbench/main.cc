// The repository benchmark's binary: set-up, timed phase, traced run and result line.
//
//   perfbench --workload <serve_mt|mcu_infer|fault_mid|search> --seed <n> --seconds <s>
//             --trace <0|1> [--trace-out <chrome_trace.json>]
//
// Untraced (--trace 0): sets the workload up kSetups times (set-up time is their median),
// runs its timed phase for --seconds and prints the end-to-end metrics. Traced
// (--trace 1): runs the timed phase twice for a quarter of --seconds each, without and
// with spans (their latency difference is the tracing overhead), computes span self
// times per module, then spends the remaining half on the per-layer probes. The last
// stdout line is the result: {"correct":..,"attempted":..,"failed":..,"metrics":{..}}.

#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <thread>

#include "bench.h"
#include "src/common/rng.h"
#include "src/core/synthetic.h"
#include "src/obs/json_writer.h"

namespace perfbench {

unsigned HostThreads() { return std::max(1u, std::thread::hardware_concurrency()); }

void Report::Add(const std::string& name, const std::string& unit, double value) {
  for (Metric& m : metrics_) {
    if (m.name == name) {
      m.unit = unit;
      m.value = value;
      return;
    }
  }
  metrics_.push_back(Metric{name, unit, value});
}

void Report::Mismatch(const std::string& what) {
  if (correct_) {
    std::fprintf(stderr, "perfbench: correctness check failed: %s\n", what.c_str());
  }
  correct_ = false;
}

void Report::Note(const std::string& line) { notes_.push_back(line); }

double Report::Get(const std::string& name) const {
  for (const Metric& m : metrics_) {
    if (m.name == name) {
      return m.value;
    }
  }
  return 0.0;
}

neuroc::NeuroCModel MakeTwoLayerModel(uint64_t seed, size_t in, size_t hidden, size_t out,
                                      double density, neuroc::EncodingKind encoding) {
  neuroc::Rng rng(seed);
  neuroc::SyntheticNeuroCLayerSpec l0;
  l0.in_dim = in;
  l0.out_dim = hidden;
  l0.density = density;
  l0.encoding = encoding;
  neuroc::SyntheticNeuroCLayerSpec l1 = l0;
  l1.in_dim = hidden;
  l1.out_dim = out;
  l1.relu = false;
  std::vector<neuroc::QuantNeuroCLayer> layers;
  layers.push_back(neuroc::MakeSyntheticNeuroCLayer(l0, rng));
  layers.push_back(neuroc::MakeSyntheticNeuroCLayer(l1, rng));
  return neuroc::NeuroCModel::FromLayers(std::move(layers));
}

std::string Fmt(double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g", value);
  return buf;
}

namespace {

constexpr int kSetups = 9;

// Modules whose span self time the traced run reports per operation.
constexpr const char* kTracedModules[] = {"serve", "runtime", "core", "data", "bench"};

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

std::unique_ptr<Workload> MakeWorkload(const Options& o) {
  if (o.workload == "serve_mt") return MakeServeMt(o);
  if (o.workload == "mcu_infer") return MakeMcuInfer(o);
  if (o.workload == "fault_mid") return MakeFaultMid(o);
  if (o.workload == "search") return MakeSearch(o);
  return nullptr;
}

bool ParseArgs(int argc, char** argv, Options* o) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    if (key == "--workload") {
      o->workload = value;
    } else if (key == "--seed") {
      o->seed = std::strtoull(value, nullptr, 10);
    } else if (key == "--seconds") {
      o->seconds = std::strtod(value, nullptr);
    } else if (key == "--trace") {
      o->trace = std::strcmp(value, "0") != 0;
    } else if (key == "--trace-out") {
      o->trace_out = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && o->seconds > 0.0 && !o->workload.empty();
}

void PrintResult(const Report& report) {
  for (const std::string& line : report.notes()) {
    std::printf("%s\n", line.c_str());
  }
  neuroc::JsonWriter w;
  w.BeginObject();
  w.Key("correct").Value(report.correct());
  w.Key("attempted").Value(report.ops.attempted);
  w.Key("failed").Value(report.ops.failed);
  w.Key("metrics").BeginObject();
  for (const Metric& m : report.metrics()) {
    w.Key(m.name).BeginObject();
    w.Key("value").Value(m.value, 17);
    w.Key("unit").Value(m.unit);
    w.EndObject();
  }
  w.EndObject();
  w.EndObject();
  std::string line = w.str();
  for (char& c : line) {
    if (c == '\n') c = ' ';
  }
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
}

// The traced run: overhead against an untraced pass, self times, then the probes.
void RunTraced(Workload& workload, const Options& o, Tracer& tracer, SpanLog* log,
               Report& report) {
  Report plain;
  workload.Run(0.25 * o.seconds, nullptr, nullptr, plain);
  Report traced;
  workload.Run(0.25 * o.seconds, &tracer, log, traced);
  for (const Report* r : {&plain, &traced}) {
    report.ops.Add(r->ops);
    if (!r->correct()) {
      report.Mismatch("workload outputs in the traced run");
    }
  }
  const double latency_plain = plain.Get("latency_ms");
  const double latency_traced = traced.Get("latency_ms");
  report.Add("bench.trace_overhead_pct", "%",
             latency_plain > 0.0 ? 100.0 * (latency_traced / latency_plain - 1.0) : 0.0);

  const std::vector<SpanRecord> spans = tracer.Merged();
  const std::map<std::string, double> self_ms = SelfMsByModule(spans);
  const double ops = static_cast<double>(std::max<uint64_t>(1, traced.ops.attempted));
  for (const char* module : kTracedModules) {
    const auto it = self_ms.find(module);
    report.Add(std::string("trace.self_us_per_op.") + module, "us",
               it == self_ms.end() ? 0.0 : 1e3 * it->second / ops);
  }
  report.Note("traced pass: " + std::to_string(spans.size()) + " spans, " +
              std::to_string(traced.ops.attempted) + " operations, latency " +
              Fmt(latency_traced) + " ms vs " + Fmt(latency_plain) + " ms untraced");
  if (!o.trace_out.empty()) {
    std::ofstream out(o.trace_out);
    out << ChromeTraceJson(spans, 50000);
    if (!out) {
      std::fprintf(stderr, "perfbench: cannot write %s\n", o.trace_out.c_str());
    }
  }
  RunLayerProbes(o, 0.5 * o.seconds, report);
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const Clock::time_point process_start = Clock::now();
  Options o;
  if (!ParseArgs(argc, argv, &o) || MakeWorkload(o) == nullptr) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <serve_mt|mcu_infer|fault_mid|search> "
                 "--seed <n> --seconds <s> --trace <0|1> [--trace-out <path>]\n");
    return 2;
  }

  Tracer tracer;
  SpanLog* log = o.trace ? tracer.NewLog() : nullptr;
  std::vector<double> setup_s;
  std::unique_ptr<Workload> workload;
  for (int k = 0; k < kSetups; ++k) {
    workload.reset();  // free the previous set-up first: peak RSS counts one copy
    const Clock::time_point t0 = k == 0 ? process_start : Clock::now();
    workload = MakeWorkload(o);
    // Spans of the last set-up only, so the trace holds one of each.
    workload->Setup(k + 1 == kSetups ? log : nullptr);
    setup_s.push_back(SecondsSince(t0));
  }

  Report report;
  if (o.trace) {
    RunTraced(*workload, o, tracer, log, report);
  } else {
    workload->Run(o.seconds, nullptr, nullptr, report);
    report.Add("setup_s", "s", Median(setup_s));
    report.Add("peak_rss_mb", "MB", PeakRssMb());
  }
  report.Note("setup_s samples: " + std::to_string(setup_s.size()) + ", median " +
              Fmt(Median(setup_s)) + " s");
  report.Note("error_rate: " + Fmt(report.ops.ErrorRate()) + " ratio (" +
              std::to_string(report.ops.failed) + " of " +
              std::to_string(report.ops.attempted) + " operations)");
  workload.reset();
  PrintResult(report);
  return 0;
}
