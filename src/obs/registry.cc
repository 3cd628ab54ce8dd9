#include "src/obs/registry.h"

#include <cstdio>

#include "src/common/check.h"
#include "src/common/logging.h"

namespace neuroc {

void MetricsRegistry::Histogram::Observe(double v) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (snap_.count == 0 || v < snap_.min) {
    snap_.min = v;
  }
  if (snap_.count == 0 || v > snap_.max) {
    snap_.max = v;
  }
  ++snap_.count;
  snap_.sum += v;
}

MetricsRegistry::Histogram::Snapshot MetricsRegistry::Histogram::snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return snap_;
}

void MetricsRegistry::Histogram::Reset() {
  std::lock_guard<std::mutex> lock(mutex_);
  snap_ = Snapshot{};
}

template <typename T>
T& MetricsRegistry::GetOrRegister(std::string_view name, std::vector<Named>& names,
                                  std::deque<T>& store) {
  std::lock_guard<std::mutex> lock(mutex_);
  for (const Named& n : names) {
    if (n.name == name) {
      return store[n.index];
    }
  }
  // Registration only (a lookup of an existing metric returned above): one name must
  // not name two kinds.
  for (const std::vector<Named>* kind : {&counter_names_, &gauge_names_, &histogram_names_}) {
    for (const Named& n : *kind) {
      NEUROC_CHECK_MSG(n.name != name, "metric name registered as two kinds");
    }
  }
  names.push_back(Named{std::string(name), store.size()});
  store.emplace_back();
  return store.back();
}

MetricsRegistry::Counter& MetricsRegistry::GetCounter(std::string_view name) {
  return GetOrRegister(name, counter_names_, counters_);
}

MetricsRegistry::Gauge& MetricsRegistry::GetGauge(std::string_view name) {
  return GetOrRegister(name, gauge_names_, gauges_);
}

MetricsRegistry::Histogram& MetricsRegistry::GetHistogram(std::string_view name) {
  return GetOrRegister(name, histogram_names_, histograms_);
}

void MetricsRegistry::WriteJson(JsonWriter& w) const {
  std::lock_guard<std::mutex> lock(mutex_);
  w.BeginObject();
  w.Key("counters").BeginObject();
  for (const Named& n : counter_names_) {
    w.Key(n.name).Value(counters_[n.index].value());
  }
  w.EndObject();
  w.Key("gauges").BeginObject();
  for (const Named& n : gauge_names_) {
    w.Key(n.name).Value(gauges_[n.index].value());
  }
  w.EndObject();
  w.Key("histograms").BeginObject();
  for (const Named& n : histogram_names_) {
    const Histogram::Snapshot s = histograms_[n.index].snapshot();
    w.Key(n.name).BeginObject();
    w.Key("count").Value(s.count);
    w.Key("sum").Value(s.sum);
    w.Key("min").Value(s.min);
    w.Key("max").Value(s.max);
    w.Key("mean").Value(s.mean());
    w.EndObject();
  }
  w.EndObject();
  w.EndObject();
}

bool MetricsRegistry::AppendRunRecord(const std::string& path,
                                      std::string_view run_label) const {
  JsonWriter inner(/*indent=*/0);
  WriteJson(inner);
  // Compose the run label in front of the sections: {"run":"...",<sections>}.
  std::string record = "{\"run\":\"" + JsonWriter::Escape(run_label) + "\",";
  record += inner.str().substr(1);  // drop the sections object's opening brace
  record += "\n";
  std::FILE* f = std::fopen(path.c_str(), "ab");
  if (f == nullptr) {
    NEUROC_LOG_WARN("cannot open metrics run record file %s", path.c_str());
    return false;
  }
  const bool ok = std::fwrite(record.data(), 1, record.size(), f) == record.size();
  std::fclose(f);
  if (!ok) {
    NEUROC_LOG_WARN("short write to metrics run record file %s", path.c_str());
  }
  return ok;
}

void MetricsRegistry::Reset() {
  std::lock_guard<std::mutex> lock(mutex_);
  for (Counter& c : counters_) {
    c.Reset();
  }
  for (Gauge& g : gauges_) {
    g.Reset();
  }
  for (Histogram& h : histograms_) {
    h.Reset();
  }
}

MetricsRegistry& MetricsRegistry::Global() {
  static MetricsRegistry* registry = new MetricsRegistry();  // leaked: alive for exit paths
  return *registry;
}

}  // namespace neuroc
