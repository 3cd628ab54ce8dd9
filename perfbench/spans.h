// Spans for the traced run: recorded only in the benchmark's own files, around its calls
// into the repository's modules. Each span carries a name ("<module>.<call>"), start and
// end on the steady clock, the id of the span that caused it and a request id. Spans are
// buffered in memory, one log per recording thread (no locking on the hot path), and
// merged at exit to compute self times and to write Chrome trace JSON.
//
// With tracing off every recording call takes a null log and does nothing, so the
// untraced run executes the same benchmark code paths minus the clock reads.

#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

struct SpanRecord {
  const char* name = "";  // string literal
  uint64_t id = 0;        // unique within a Tracer, never 0
  uint64_t parent = 0;    // 0 for a root span
  uint64_t request = 0;   // request id, 0 when the span belongs to no request
  int64_t start_ns = 0;   // since the Tracer's origin
  int64_t end_ns = 0;
  uint32_t thread = 0;    // index of the log that recorded it
};

class Tracer;

// Single-thread span buffer; obtain one per recording thread from Tracer::NewLog.
class SpanLog {
 public:
  SpanLog(Tracer* tracer, uint32_t thread) : tracer_(tracer), thread_(thread) {}
  Tracer& tracer() { return *tracer_; }
  void Record(const SpanRecord& span);
  const std::vector<SpanRecord>& spans() const { return spans_; }

 private:
  Tracer* tracer_;
  uint32_t thread_;
  std::vector<SpanRecord> spans_;
};

class Tracer {
 public:
  Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  // A new log for one thread. The address stays valid for the Tracer's lifetime.
  SpanLog* NewLog();
  uint64_t NextId() { return next_id_.fetch_add(1, std::memory_order_relaxed); }
  int64_t NowNs() const;
  int64_t ToNs(std::chrono::steady_clock::time_point t) const;

  // Every recorded span, ordered by start time.
  std::vector<SpanRecord> Merged() const;

 private:
  std::chrono::steady_clock::time_point origin_;
  std::atomic<uint64_t> next_id_{1};
  std::mutex mutex_;  // guards logs_ (creation only; each log is single-writer)
  std::deque<SpanLog> logs_;
};

// RAII span on `log`; does nothing when `log` is null.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name, uint64_t parent = 0, uint64_t request = 0);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  uint64_t id() const { return span_.id; }

 private:
  SpanLog* log_;
  SpanRecord span_;
};

// Self time of each span, parallel to `spans`: its duration minus the part of its
// interval covered by the union of its direct children (clipped to the parent).
std::vector<int64_t> SelfTimesNs(const std::vector<SpanRecord>& spans);

// Self time summed by module, the span name's text before the first '.', in ms.
std::map<std::string, double> SelfMsByModule(const std::vector<SpanRecord>& spans);

// Chrome trace_event JSON of at most `max_events` spans (earliest first), each as a
// complete event with its id, parent and request in "args".
std::string ChromeTraceJson(const std::vector<SpanRecord>& spans, size_t max_events);

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H_
