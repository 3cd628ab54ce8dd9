// Shared declarations of the benchmark binary: options, the metric report, the workload
// interface and the seeded model builders the workloads and layer probes share.

#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "spans.h"
#include "stats.h"
#include "src/core/neuroc_model.h"
#include "src/runtime/search.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}
inline double MsSince(Clock::time_point t0) { return 1e3 * SecondsSince(t0); }

// Worker threads for the parallel parts (the global pool, campaign and search), and the
// cap on load-generator threads: the host's hardware concurrency.
unsigned HostThreads();

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;  // Chrome trace path for --trace 1 (empty: not written)
};

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
};

// What one run prints: the correctness verdict, the operation counts and the metrics.
class Report {
 public:
  void Add(const std::string& name, const std::string& unit, double value);
  // Records a correctness failure: the run reports correct=false.
  void Mismatch(const std::string& what);
  // Human-readable line printed before the result (sample counts, extra metrics).
  void Note(const std::string& line);

  bool correct() const { return correct_; }
  const std::vector<Metric>& metrics() const { return metrics_; }
  const std::vector<std::string>& notes() const { return notes_; }
  double Get(const std::string& name) const;  // 0 when absent

  OpCounts ops;

 private:
  bool correct_ = true;
  std::vector<Metric> metrics_;
  std::vector<std::string> notes_;
};

// One workload: Setup builds every input, model and service the timed phase needs; Run
// measures for `seconds`, checks every output and adds the end-to-end metrics (all but
// setup_s and peak_rss_mb, which main() adds). With tracing on, `tracer` is non-null
// and `log` is the calling thread's span log.
class Workload {
 public:
  virtual ~Workload() = default;
  virtual void Setup(SpanLog* log) = 0;
  virtual void Run(double seconds, Tracer* tracer, SpanLog* log, Report& report) = 0;
};

std::unique_ptr<Workload> MakeServeMt(const Options& options);
std::unique_ptr<Workload> MakeMcuInfer(const Options& options);
std::unique_ptr<Workload> MakeFaultMid(const Options& options);
std::unique_ptr<Workload> MakeSearch(const Options& options);

// The per-layer probes of the traced run: every per-layer metric, measured around
// direct calls into each module with inputs derived from `options.seed`.
void RunLayerProbes(const Options& options, double seconds, Report& report);

// Seeded synthetic two-layer model in -> hidden -> out at the given density.
neuroc::NeuroCModel MakeTwoLayerModel(uint64_t seed, size_t in, size_t hidden, size_t out,
                                      double density,
                                      neuroc::EncodingKind encoding = neuroc::EncodingKind::kCsc);

// The mcu_infer models, shared with the sim/core/kernels probes: 784-128-10 at density
// 0.05 (re-encoded into each encoding) and 784-256-10 at density 0.15 requested as
// unrolled, which overflows flash.
neuroc::NeuroCModel McuModel128(uint64_t seed);
neuroc::NeuroCModel McuModel256Unrolled(uint64_t seed);

// The search workload's fixed space, training recipe and seeded data, shared with the
// train/search probes.
inline constexpr int kSearchTrials = 16;
inline constexpr size_t kSearchTrainExamples = 256;
struct SearchData {
  neuroc::Dataset train;
  neuroc::Dataset validation;
};
neuroc::SearchSpace BenchSearchSpace();
neuroc::TrainConfig BenchTrainConfig();
SearchData MakeSearchData(uint64_t seed, SpanLog* log);
bool SameSearchResult(const neuroc::SearchResult& a, const neuroc::SearchResult& b);

// Formats `value` with enough digits for the result line.
std::string Fmt(double value);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
