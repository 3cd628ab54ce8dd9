// The benchmark's one statistics helper: latency summaries, failure accounting and the
// serve ladder's service-level verdict.
//
// A timing is reported as its median and as the highest percentile (capped at p99) that
// still has at least kTailMinBeyond samples above it, together with the sample count.
// Its floor mirrors the tail: the lowest percentile (at least p1) that still has at least
// kTailMinBeyond samples below it. On a shared host, other tenants only ever slow a
// sample down, so the floor tracks the code's own speed when the median does not.
// Failed or refused operations count against the attempted ones and, for latency, as
// samples that miss any limit (+infinity).

#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

inline constexpr size_t kTailMinBeyond = 10;

struct Summary {
  size_t count = 0;        // samples, failures included
  double median = 0.0;
  double tail = 0.0;       // value at tail_pct
  double tail_pct = 0.0;   // percentile the tail was read at (<= 99)
  bool tail_ok = false;    // false when count <= kTailMinBeyond (no supported tail)
  double floor = 0.0;      // value at floor_pct
  double floor_pct = 0.0;  // percentile the floor was read at (>= 1)
};

// Nearest-rank median, tail and floor of `samples`. Record a failed or refused operation
// as a +infinity sample: it then misses any latency limit.
Summary Summarize(std::vector<double> samples);

// Median of a non-empty vector (nearest rank, lower middle on even counts).
double Median(std::vector<double> values);

// Latency summarized per chunk of consecutive samples: Add() samples in arrival order
// (from one thread; Merge() the chunks of several), and Result() gives the medians of the
// chunks' medians and tails (count: all samples added; tail_pct: the lowest chunk's; no
// floor). A host stall then moves the chunks it falls in, not the result. A trailing
// partial chunk counts only when no chunk is complete.
class ChunkedSummary {
 public:
  explicit ChunkedSummary(size_t chunk) : chunk_(chunk) {}
  void Add(double value);
  void Merge(const ChunkedSummary& other);
  Summary Result() const;

 private:
  void Close(std::vector<double> samples);

  size_t chunk_;
  size_t count_ = 0;
  std::vector<double> current_;
  std::vector<Summary> chunks_;
};

struct OpCounts {
  uint64_t attempted = 0;
  uint64_t failed = 0;  // errors, refusals and correctness mismatches
  void Add(const OpCounts& o) {
    attempted += o.attempted;
    failed += o.failed;
  }
  double ErrorRate() const {
    return attempted == 0 ? 0.0 : static_cast<double>(failed) / static_cast<double>(attempted);
  }
};

// Backlog test over queue depths sampled in send order: the backlog grows when the
// median depth of the last quarter of the samples exceeds the first quarter's by more
// than `slack` requests. Medians, so a transient spike from one stall does not count.
// Fewer than 8 samples never count as growing.
bool BacklogGrowing(const std::vector<size_t>& depth_samples, double slack);

// One open-loop step judged against the service-level objective: the tail latency
// (failures counted at +infinity) within `limit_ms`, no failed operation and no growing
// backlog.
struct StepVerdict {
  bool backlog_growing = false;
  bool meets_slo = false;
};
StepVerdict JudgeStep(const Summary& latency, const OpCounts& counts,
                      const std::vector<size_t>& depth_samples, double limit_ms,
                      double backlog_slack);

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
