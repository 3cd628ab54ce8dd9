// Unified metrics registry: named counters, gauges and histograms shared by every
// subsystem (sim, runtime, trainer, search, fuzz, fault campaigns), exported as one JSON
// object or appended as a JSONL run record (`neuroc report` aggregates those files).
//
// Determinism contract: metrics are emitted in registration order, so output is
// byte-identical across runs as long as registration order is — register (Get*) on the
// main thread before fanning work out, then update from anywhere. Counter updates are
// relaxed atomics (integer adds commute, so totals are thread-count-independent); gauges
// are last-write-wins and histograms take a per-histogram mutex, so keep
// order-sensitive updates (float sums) on one thread when byte-identical output matters
// — the same rule the rest of the repo's determinism contracts follow.
//
// Handles returned by Get* are stable for the registry's lifetime (metrics live in
// deques and are never erased by Reset, which only zeroes values).

#ifndef NEUROC_SRC_OBS_REGISTRY_H_
#define NEUROC_SRC_OBS_REGISTRY_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/obs/json_writer.h"

namespace neuroc {

class MetricsRegistry {
 public:
  class Counter {
   public:
    void Add(uint64_t delta = 1) { value_.fetch_add(delta, std::memory_order_relaxed); }
    uint64_t value() const { return value_.load(std::memory_order_relaxed); }
    void Reset() { value_.store(0, std::memory_order_relaxed); }

   private:
    std::atomic<uint64_t> value_{0};
  };

  class Gauge {
   public:
    void Set(double v) { value_.store(v, std::memory_order_relaxed); }
    double value() const { return value_.load(std::memory_order_relaxed); }
    void Reset() { value_.store(0.0, std::memory_order_relaxed); }

   private:
    std::atomic<double> value_{0.0};
  };

  class Histogram {
   public:
    struct Snapshot {
      uint64_t count = 0;
      double sum = 0.0;
      double min = 0.0;  // 0 when empty
      double max = 0.0;
      double mean() const { return count == 0 ? 0.0 : sum / static_cast<double>(count); }
    };

    void Observe(double v);
    Snapshot snapshot() const;
    void Reset();

   private:
    mutable std::mutex mutex_;
    Snapshot snap_;
  };

  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  // Finds or registers the named metric. Registering the same name as two different
  // kinds is a programming error (checked).
  Counter& GetCounter(std::string_view name);
  Gauge& GetGauge(std::string_view name);
  Histogram& GetHistogram(std::string_view name);

  // One JSON object ({"counters":{...},"gauges":{...},"histograms":{...}}), each section
  // in registration order.
  void WriteJson(JsonWriter& w) const;
  // Appends one compact JSONL run record ({"run":label,<sections>}) to `path`; returns
  // false (and logs) on I/O failure. The format is what `neuroc report` aggregates.
  bool AppendRunRecord(const std::string& path, std::string_view run_label) const;
  // Zeroes every value; registration (names + order) is retained.
  void Reset();

  // Process-wide registry used by the subsystems' default instrumentation.
  static MetricsRegistry& Global();

 private:
  struct Named {
    std::string name;
    size_t index;  // into the kind's deque
  };
  template <typename T>
  T& GetOrRegister(std::string_view name, std::vector<Named>& names, std::deque<T>& store);

  mutable std::mutex mutex_;
  std::vector<Named> counter_names_;
  std::vector<Named> gauge_names_;
  std::vector<Named> histogram_names_;
  std::deque<Counter> counters_;
  std::deque<Gauge> gauges_;
  std::deque<Histogram> histograms_;
};

// A handle that registers its metric on first use and afterwards costs one atomic load:
// for hot paths that must not scan every registered name under the registry mutex per
// event. Registering at first use, not at construction, gives the metric the same place
// in registration order (and so in the JSON) that a Get* call at that spot would.
template <typename Metric>
class LazyMetric {
 public:
  LazyMetric(MetricsRegistry& registry, std::string name)
      : registry_(&registry), name_(std::move(name)) {}
  LazyMetric(const LazyMetric&) = delete;
  LazyMetric& operator=(const LazyMetric&) = delete;

  Metric* operator->() {
    Metric* m = metric_.load(std::memory_order_acquire);
    if (m == nullptr) {
      // Racing first uses resolve the same metric; the registry orders them.
      if constexpr (std::is_same_v<Metric, MetricsRegistry::Counter>) {
        m = &registry_->GetCounter(name_);
      } else {
        m = &registry_->GetHistogram(name_);
      }
      metric_.store(m, std::memory_order_release);
    }
    return m;
  }

 private:
  MetricsRegistry* registry_;
  std::string name_;
  std::atomic<Metric*> metric_{nullptr};
};
using LazyCounter = LazyMetric<MetricsRegistry::Counter>;
using LazyHistogram = LazyMetric<MetricsRegistry::Histogram>;

}  // namespace neuroc

#endif  // NEUROC_SRC_OBS_REGISTRY_H_
