#include "stats.h"

#include <algorithm>
#include <cmath>

namespace perfbench {

Summary Summarize(std::vector<double> samples) {
  Summary s;
  s.count = samples.size();
  if (samples.empty()) {
    return s;
  }
  std::sort(samples.begin(), samples.end());
  const size_t n = samples.size();
  s.median = samples[(n - 1) / 2];
  if (n <= kTailMinBeyond) {
    s.tail = samples.back();
    s.tail_pct = 100.0;
    s.floor = samples.front();
    s.floor_pct = 100.0 / static_cast<double>(n);
    return s;
  }
  // The mirror of the tail: p1 sits at floor(0.01 n), which has that many samples below
  // it; keeping kTailMinBeyond below raises the index to at least 10.
  const size_t floor_index =
      std::max(static_cast<size_t>(std::floor(0.01 * static_cast<double>(n))), kTailMinBeyond);
  s.floor = samples[floor_index];
  s.floor_pct = 100.0 * static_cast<double>(floor_index + 1) / static_cast<double>(n);
  // Nearest rank: the value at index i is the (i+1)/n quantile. p99 sits at
  // ceil(0.99 n) - 1; keeping kTailMinBeyond samples above caps the index at n - 11.
  const size_t p99_index = static_cast<size_t>(std::ceil(0.99 * static_cast<double>(n))) - 1;
  const size_t index = std::min(p99_index, n - kTailMinBeyond - 1);
  s.tail = samples[index];
  s.tail_pct = 100.0 * static_cast<double>(index + 1) / static_cast<double>(n);
  s.tail_ok = true;
  return s;
}

double Median(std::vector<double> values) { return Summarize(std::move(values)).median; }

bool BacklogGrowing(const std::vector<size_t>& depth_samples, double slack) {
  const size_t n = depth_samples.size();
  if (n < 8) {
    return false;
  }
  const size_t quarter = n / 4;
  std::vector<double> first(depth_samples.begin(), depth_samples.begin() + quarter);
  std::vector<double> last(depth_samples.end() - quarter, depth_samples.end());
  return Median(std::move(last)) - Median(std::move(first)) > slack;
}

void ChunkedSummary::Add(double value) {
  ++count_;
  current_.push_back(value);
  if (current_.size() == chunk_) {
    Close(std::move(current_));
    current_.clear();
  }
}

void ChunkedSummary::Close(std::vector<double> samples) {
  chunks_.push_back(Summarize(std::move(samples)));
}

void ChunkedSummary::Merge(const ChunkedSummary& other) {
  count_ += other.count_;
  chunks_.insert(chunks_.end(), other.chunks_.begin(), other.chunks_.end());
}

Summary ChunkedSummary::Result() const {
  std::vector<Summary> chunks = chunks_;
  if (chunks.empty()) {
    chunks.push_back(Summarize(current_));
  }
  Summary out;
  out.count = count_;
  out.tail_ok = true;
  out.tail_pct = 100.0;
  std::vector<double> medians;
  std::vector<double> tails;
  for (const Summary& c : chunks) {
    medians.push_back(c.median);
    tails.push_back(c.tail);
    out.tail_ok = out.tail_ok && c.tail_ok;
    out.tail_pct = std::min(out.tail_pct, c.tail_pct);
  }
  out.median = Median(std::move(medians));
  out.tail = Median(std::move(tails));
  return out;
}

StepVerdict JudgeStep(const Summary& latency, const OpCounts& counts,
                      const std::vector<size_t>& depth_samples, double limit_ms,
                      double backlog_slack) {
  StepVerdict v;
  v.backlog_growing = BacklogGrowing(depth_samples, backlog_slack);
  v.meets_slo = latency.tail_ok && latency.tail <= limit_ms && counts.failed == 0 &&
                counts.attempted > 0 && !v.backlog_growing;
  return v;
}

}  // namespace perfbench
