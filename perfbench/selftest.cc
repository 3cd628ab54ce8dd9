// Tests of the benchmark's own arithmetic: the statistics helper, the backlog test and
// span self times. Run: .bench_build/perfbench_selftest (exit code 0 when all pass).

#include <cmath>
#include <cstdio>
#include <limits>
#include <vector>

#include "spans.h"
#include "src/obs/json_reader.h"
#include "stats.h"

namespace perfbench {
namespace {

int failures = 0;

void Expect(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FAIL: %s\n", what);
    ++failures;
  }
}

std::vector<double> Range(size_t n) {
  std::vector<double> v;
  for (size_t i = 1; i <= n; ++i) {
    v.push_back(static_cast<double>(i));
  }
  return v;
}

void TestSummary() {
  // 1000 samples: p99 is the 990th value and has exactly 10 samples beyond it.
  Summary s = Summarize(Range(1000));
  Expect(s.count == 1000 && s.median == 500.0, "median of 1..1000");
  Expect(s.tail_ok && s.tail == 990.0 && s.tail_pct == 99.0, "p99 of 1..1000");
  // 100 samples: p99 would leave 1 beyond; the tail drops to the 90th value.
  s = Summarize(Range(100));
  Expect(s.tail == 90.0 && s.tail_pct == 90.0, "tail of 1..100 keeps 10 beyond");
  // 11 samples: the first with a supported tail, the lowest value.
  s = Summarize(Range(11));
  Expect(s.tail_ok && s.tail == 1.0, "tail of 1..11");
  s = Summarize(Range(10));
  Expect(!s.tail_ok && s.tail == 10.0, "no supported tail at 10 samples");
  // The floor mirrors the tail: p1 of 1..2000 has 20 samples below it; 1..1000 and
  // 1..100 raise it to keep 10 below; 10 samples fall back to the lowest.
  s = Summarize(Range(2000));
  Expect(s.floor == 21.0 && s.floor_pct == 1.05, "p1 of 1..2000");
  s = Summarize(Range(1000));
  Expect(s.floor == 11.0 && s.floor_pct == 1.1, "floor of 1..1000 keeps 10 below");
  s = Summarize(Range(100));
  Expect(s.floor == 11.0 && s.floor_pct == 11.0, "floor of 1..100 keeps 10 below");
  s = Summarize(Range(10));
  Expect(s.floor == 1.0 && s.floor_pct == 10.0, "floor of 10 samples is the lowest");
  // Shuffled input gives the same answer.
  std::vector<double> v = Range(1000);
  std::swap(v[0], v[999]);
  std::swap(v[10], v[500]);
  Expect(Summarize(v).tail == 990.0 && Summarize(v).floor == 11.0, "order independence");
  Expect(Median({3.0, 1.0, 2.0}) == 2.0, "Median");
}

void TestFailuresMissTheLimit() {
  // 990 fast samples plus 10 failures: p99 is still finite; 11 failures push it to +inf.
  const double kFailed = std::numeric_limits<double>::infinity();
  std::vector<double> fast(990, 0.1);
  std::vector<double> with10 = fast;
  with10.insert(with10.end(), 10, kFailed);
  std::vector<double> with11 = fast;
  with11.insert(with11.end(), 11, kFailed);
  Expect(std::isfinite(Summarize(with10).tail), "10 failures beyond p99");
  Expect(std::isinf(Summarize(with11).tail), "11 failures reach p99");
  OpCounts c{1000, 11};
  Expect(std::fabs(c.ErrorRate() - 0.011) < 1e-12, "error rate");
  Expect(!JudgeStep(Summarize(with10), c, {}, 1.0, 64.0).meets_slo,
         "failed requests fail the step");
  OpCounts clean{990, 0};
  Expect(JudgeStep(Summarize(fast), clean, {}, 1.0, 64.0).meets_slo,
         "clean fast step meets the SLO");
  Expect(!JudgeStep(Summarize(fast), clean, {}, 0.05, 64.0).meets_slo,
         "slow step misses the SLO");
  Expect(!JudgeStep(Summarize(Range(5)), OpCounts{5, 0}, {}, 100.0, 64.0).meets_slo,
         "a step without a supported tail misses the SLO");
}

void TestBacklog() {
  std::vector<size_t> flat(400, 3);
  Expect(!BacklogGrowing(flat, 64.0), "flat depth");
  std::vector<size_t> growing;
  for (size_t i = 0; i < 400; ++i) {
    growing.push_back(i);
  }
  Expect(BacklogGrowing(growing, 64.0), "linearly growing depth");
  Expect(!BacklogGrowing(growing, 400.0), "growth within the slack");
  Expect(!BacklogGrowing({1, 1000, 1}, 0.0), "too few samples");
  OpCounts clean{990, 0};
  Expect(!JudgeStep(Summarize(std::vector<double>(990, 0.1)), clean, growing, 1.0, 64.0)
              .meets_slo,
         "growing backlog fails the step");
}

ChunkedSummary Chunked(const std::vector<double>& values, size_t chunk) {
  ChunkedSummary c(chunk);
  for (double v : values) {
    c.Add(v);
  }
  return c;
}

void TestChunks() {
  // Four chunks of 100 samples; one holds a stall (all samples 50). The median of the
  // chunk tails ignores it; the plain tail does not. The 50-sample remainder is dropped.
  std::vector<double> values;
  for (int i = 0; i < 450; ++i) {
    values.push_back(i < 100 ? 50.0 : 1.0 + (i % 100) * 0.01);
  }
  const Summary c = Chunked(values, 100).Result();
  Expect(c.count == 450 && c.tail_ok && c.tail_pct == 90.0, "chunk count and percentile");
  Expect(std::fabs(c.tail - 1.89) < 1e-12 && std::fabs(c.median - 1.49) < 1e-12,
         "median of chunk tails and medians");
  Expect(Summarize(values).tail == 50.0, "plain tail sees the stall");
  // No complete chunk: the partial one is the result.
  Expect(Chunked(values, 1000).Result().tail == Summarize(values).tail,
         "one partial chunk when none completes");
  // Merging two streams pools their chunks.
  ChunkedSummary a = Chunked(std::vector<double>(200, 1.0), 100);
  a.Merge(Chunked(std::vector<double>(100, 3.0), 100));
  const Summary m = a.Result();
  Expect(m.count == 300 && m.median == 1.0 && m.tail == 1.0, "merged chunks");
}

SpanRecord Span(uint64_t id, uint64_t parent, int64_t start, int64_t end) {
  SpanRecord s;
  s.name = "m.x";
  s.id = id;
  s.parent = parent;
  s.start_ns = start;
  s.end_ns = end;
  return s;
}

void TestSelfTimes() {
  // Root [0,100) with children [10,30) and [20,50) (overlapping: union 40) and a child
  // [90,120) clipped to 10; grandchild [12,18) belongs to the first child only.
  std::vector<SpanRecord> spans = {Span(1, 0, 0, 100), Span(2, 1, 10, 30),
                                   Span(3, 1, 20, 50), Span(4, 1, 90, 120),
                                   Span(5, 2, 12, 18)};
  const std::vector<int64_t> self = SelfTimesNs(spans);
  Expect(self[0] == 50, "root self time: 100 - union(40) - clipped(10)");
  Expect(self[1] == 14, "child self time: 20 - grandchild 6");
  Expect(self[2] == 30 && self[3] == 30 && self[4] == 6, "leaf self times");
  // Self times by module sum to the root's duration when children nest inside it.
  std::vector<SpanRecord> nested = {Span(1, 0, 0, 100), Span(2, 1, 10, 30)};
  nested[0].name = "bench.op";
  nested[1].name = "runtime.predict";
  const auto by_module = SelfMsByModule(nested);
  Expect(std::fabs(by_module.at("bench") - 80e-6) < 1e-12 &&
             std::fabs(by_module.at("runtime") - 20e-6) < 1e-12,
         "self ms by module");
  // A span whose parent was never recorded is a root.
  Expect(SelfTimesNs({Span(7, 99, 0, 10)})[0] == 10, "orphan span");
}

void TestTracerLogs() {
  Tracer tracer;
  SpanLog* a = tracer.NewLog();
  uint64_t parent = 0;
  {
    ScopedSpan outer(a, "bench.op");
    parent = outer.id();
    ScopedSpan inner(a, "runtime.call", parent, 42);
  }
  ScopedSpan off(nullptr, "ignored");
  Expect(off.id() == 0, "null log records nothing");
  const std::vector<SpanRecord> spans = tracer.Merged();
  Expect(spans.size() == 2 && spans[0].id == parent && spans[1].parent == parent &&
             spans[1].request == 42,
         "scoped spans carry parent and request");
  neuroc::JsonValue trace;
  std::string error;
  Expect(neuroc::ParseJson(ChromeTraceJson(spans, 1), &trace, &error) &&
             trace.Find("traceEvents")->elements.size() == 1 &&
             trace.Find("spans_recorded")->AsDouble() == 2.0,
         "chrome trace holds max_events spans and counts all");
}

}  // namespace
}  // namespace perfbench

int main() {
  perfbench::TestSummary();
  perfbench::TestFailuresMissTheLimit();
  perfbench::TestBacklog();
  perfbench::TestChunks();
  perfbench::TestSelfTimes();
  perfbench::TestTracerLogs();
  if (perfbench::failures == 0) {
    std::printf("perfbench_selftest: all passed\n");
  }
  return perfbench::failures == 0 ? 0 : 1;
}
