// search: RandomSearch over a fixed SearchSpace on MakeMnistLike digits, kSearchTrials
// candidates per search, trials spread over the global pool.
//
// One operation is one search. Searches are deterministic, so every repetition in a run
// must return byte-identical candidates; a difference, or a candidate whose deployment
// faulted, counts as failed. The benchmark's throughput is candidates per second.

#include "bench.h"
#include "src/data/synth.h"
#include "src/runtime/search.h"

namespace perfbench {

neuroc::SearchSpace BenchSearchSpace() {
  neuroc::SearchSpace space;
  space.width_choices = {16, 24, 32, 40};
  space.min_hidden_layers = 1;
  space.max_hidden_layers = 1;
  space.density_choices = {0.05f, 0.1f, 0.15f, 0.2f};
  return space;
}

neuroc::TrainConfig BenchTrainConfig() {
  neuroc::TrainConfig cfg;
  cfg.epochs = 1;
  cfg.batch_size = 32;
  cfg.learning_rate = 3e-3f;
  return cfg;
}

SearchData MakeSearchData(uint64_t seed, SpanLog* log) {
  SearchData d;
  ScopedSpan span(log, "data.make_mnist_like");
  d.train = neuroc::MakeMnistLike(kSearchTrainExamples, seed * 2 + 1);
  d.validation = neuroc::MakeMnistLike(kSearchTrainExamples / 2, seed * 2 + 2);
  return d;
}

bool SameSearchResult(const neuroc::SearchResult& a, const neuroc::SearchResult& b) {
  if (a.candidates.size() != b.candidates.size() || a.pareto != b.pareto ||
      a.best != b.best) {
    return false;
  }
  for (size_t i = 0; i < a.candidates.size(); ++i) {
    const neuroc::SearchCandidate& x = a.candidates[i];
    const neuroc::SearchCandidate& y = b.candidates[i];
    if (x.description != y.description || x.accuracy != y.accuracy ||
        x.program_bytes != y.program_bytes || x.latency_ms != y.latency_ms ||
        x.feasible != y.feasible || x.fault != y.fault) {
      return false;
    }
  }
  return true;
}

namespace {

class Search : public Workload {
 public:
  explicit Search(const Options& o) : options_(o) {}

  void Setup(SpanLog* log) override { data_ = MakeSearchData(options_.seed, log); }

  void Run(double seconds, Tracer*, SpanLog* log, Report& report) override {
    const neuroc::SearchSpace space = BenchSearchSpace();
    const neuroc::TrainConfig cfg = BenchTrainConfig();
    std::vector<double> latency_ms;
    uint64_t candidates = 0;
    neuroc::SearchResult first;
    const Clock::time_point start = Clock::now();
    double elapsed = 0.0;
    while (elapsed < seconds) {
      neuroc::SearchResult r;
      const Clock::time_point t0 = Clock::now();
      {
        ScopedSpan span(log, "runtime.random_search", 0, latency_ms.size() + 1);
        r = neuroc::RandomSearch(data_.train, data_.validation, space, {}, kSearchTrials,
                                 cfg, options_.seed);
      }
      latency_ms.push_back(MsSince(t0));
      candidates += r.candidates.size();
      report.ops.attempted += r.candidates.size();
      for (const neuroc::SearchCandidate& c : r.candidates) {
        report.ops.failed += c.fault.empty() ? 0 : 1;
      }
      if (latency_ms.size() == 1) {
        first = std::move(r);
      } else if (!SameSearchResult(first, r)) {
        report.ops.failed += r.candidates.size();
        report.Mismatch("search: a repeated search returned different candidates");
      }
      elapsed = SecondsSince(start);
    }

    const double clock_hz = neuroc::Stm32f072rb().ToMachineConfig().clock_hz;
    double cycles = 0.0;
    double flash = 0.0;
    size_t feasible = 0;
    for (const neuroc::SearchCandidate& c : first.candidates) {
      if (c.feasible) {
        cycles += c.latency_ms * 1e-3 * clock_hz;
        flash += static_cast<double>(c.program_bytes);
        ++feasible;
      }
    }
    if (feasible == 0 || first.best < 0) {
      report.Mismatch("search: no feasible candidate");
      feasible = 1;
    }
    const Summary s = Summarize(latency_ms);
    report.Add("latency_ms", "ms", s.median);
    report.Add("latency_p99_ms", "ms", s.tail);
    report.Add("throughput_per_s", "1/s", static_cast<double>(candidates) / elapsed);
    report.Add("target_cycles_per_op", "cycles", cycles / static_cast<double>(feasible));
    report.Add("target_flash_bytes", "bytes", flash / static_cast<double>(feasible));
    report.Note("search: " + std::to_string(latency_ms.size()) + " searches of " +
                std::to_string(kSearchTrials) + " trials; latency samples " +
                std::to_string(s.count) + ", tail at p" + Fmt(s.tail_pct));
    if (first.best >= 0) {
      const neuroc::SearchCandidate& best = first.candidates[static_cast<size_t>(first.best)];
      report.Note("accuracy: " + Fmt(best.accuracy) + " ratio (best feasible candidate " +
                  best.description + ")");
    }
  }

 private:
  Options options_;
  SearchData data_;
};

}  // namespace

std::unique_ptr<Workload> MakeSearch(const Options& options) {
  return std::make_unique<Search>(options);
}

}  // namespace perfbench
