#include "spans.h"

#include <algorithm>
#include <unordered_map>
#include <utility>

#include "src/obs/json_writer.h"

namespace perfbench {

void SpanLog::Record(const SpanRecord& span) {
  spans_.push_back(span);
  spans_.back().thread = thread_;
}

Tracer::Tracer() : origin_(std::chrono::steady_clock::now()) {}

SpanLog* Tracer::NewLog() {
  std::lock_guard<std::mutex> lock(mutex_);
  logs_.emplace_back(this, static_cast<uint32_t>(logs_.size()));
  return &logs_.back();
}

int64_t Tracer::ToNs(std::chrono::steady_clock::time_point t) const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin_).count();
}

int64_t Tracer::NowNs() const { return ToNs(std::chrono::steady_clock::now()); }

std::vector<SpanRecord> Tracer::Merged() const {
  std::vector<SpanRecord> all;
  for (const SpanLog& log : logs_) {
    all.insert(all.end(), log.spans().begin(), log.spans().end());
  }
  std::stable_sort(all.begin(), all.end(), [](const SpanRecord& a, const SpanRecord& b) {
    return a.start_ns < b.start_ns;
  });
  return all;
}

ScopedSpan::ScopedSpan(SpanLog* log, const char* name, uint64_t parent, uint64_t request)
    : log_(log) {
  if (log_ == nullptr) {
    return;
  }
  span_.name = name;
  span_.id = log_->tracer().NextId();
  span_.parent = parent;
  span_.request = request;
  span_.start_ns = log_->tracer().NowNs();
}

ScopedSpan::~ScopedSpan() {
  if (log_ == nullptr) {
    return;
  }
  span_.end_ns = log_->tracer().NowNs();
  log_->Record(span_);
}

std::vector<int64_t> SelfTimesNs(const std::vector<SpanRecord>& spans) {
  std::unordered_map<uint64_t, size_t> index_of;
  for (size_t i = 0; i < spans.size(); ++i) {
    index_of.emplace(spans[i].id, i);
  }
  // Children intervals per parent, clipped to the parent's own interval.
  std::vector<std::vector<std::pair<int64_t, int64_t>>> covered(spans.size());
  for (const SpanRecord& s : spans) {
    const auto it = index_of.find(s.parent);
    if (s.parent == 0 || it == index_of.end()) {
      continue;
    }
    const SpanRecord& p = spans[it->second];
    const int64_t lo = std::max(s.start_ns, p.start_ns);
    const int64_t hi = std::min(s.end_ns, p.end_ns);
    if (hi > lo) {
      covered[it->second].emplace_back(lo, hi);
    }
  }
  std::vector<int64_t> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    auto& iv = covered[i];
    std::sort(iv.begin(), iv.end());
    int64_t union_ns = 0;
    int64_t cur_lo = 0;
    int64_t cur_hi = 0;
    bool open = false;
    for (const auto& [lo, hi] : iv) {
      if (open && lo <= cur_hi) {
        cur_hi = std::max(cur_hi, hi);
        continue;
      }
      if (open) {
        union_ns += cur_hi - cur_lo;
      }
      cur_lo = lo;
      cur_hi = hi;
      open = true;
    }
    if (open) {
      union_ns += cur_hi - cur_lo;
    }
    self[i] = (spans[i].end_ns - spans[i].start_ns) - union_ns;
  }
  return self;
}

std::map<std::string, double> SelfMsByModule(const std::vector<SpanRecord>& spans) {
  const std::vector<int64_t> self = SelfTimesNs(spans);
  std::map<std::string, double> by_module;
  for (size_t i = 0; i < spans.size(); ++i) {
    const std::string name = spans[i].name;
    by_module[name.substr(0, name.find('.'))] += static_cast<double>(self[i]) * 1e-6;
  }
  return by_module;
}

std::string ChromeTraceJson(const std::vector<SpanRecord>& spans, size_t max_events) {
  neuroc::JsonWriter w;
  w.BeginObject();
  w.Key("traceEvents").BeginArray();
  const size_t n = std::min(spans.size(), max_events);
  for (size_t i = 0; i < n; ++i) {
    const SpanRecord& s = spans[i];
    w.BeginObject();
    w.Key("name").Value(s.name);
    w.Key("ph").Value("X");
    w.Key("pid").Value(1);
    w.Key("tid").Value(s.thread);
    w.Key("ts").ValueFixed(static_cast<double>(s.start_ns) * 1e-3, 3);
    w.Key("dur").ValueFixed(static_cast<double>(s.end_ns - s.start_ns) * 1e-3, 3);
    w.Key("args").BeginObject();
    w.Key("id").Value(s.id);
    w.Key("parent").Value(s.parent);
    w.Key("request").Value(s.request);
    w.EndObject();
    w.EndObject();
  }
  w.EndArray();
  w.Key("spans_recorded").Value(static_cast<uint64_t>(spans.size()));
  w.EndObject();
  return w.str();
}

}  // namespace perfbench
