#include "src/runtime/search.h"

#include <algorithm>
#include <set>
#include <vector>

#include "src/common/check.h"
#include "src/common/logging.h"
#include "src/common/rng.h"
#include "src/common/thread_pool.h"
#include "src/obs/registry.h"
#include "src/runtime/deployed_model.h"

namespace neuroc {

namespace {

std::string Describe(const NeuroCSpec& spec) {
  std::string s = "h[";
  for (size_t i = 0; i < spec.hidden.size(); ++i) {
    if (i > 0) {
      s += ",";
    }
    s += std::to_string(spec.hidden[i]);
  }
  char buf[24];
  std::snprintf(buf, sizeof(buf), "] d=%.2f", spec.layer.ternary.target_density);
  return s + buf;
}

}  // namespace

SearchResult RandomSearch(const Dataset& train, const Dataset& validation,
                          const SearchSpace& space, const SearchConstraints& constraints,
                          int trials, const TrainConfig& train_cfg, uint64_t seed,
                          const PlatformSpec& platform) {
  NEUROC_CHECK(!space.width_choices.empty() && !space.density_choices.empty());
  NEUROC_CHECK(space.min_hidden_layers >= 1 &&
               space.min_hidden_layers <= space.max_hidden_layers);
  SearchResult result;
  const QuantizedDataset qval = QuantizeInputs(validation);

  // Phase 1 — sample every trial's configuration up front, sequentially. Sampling costs
  // microseconds per trial, so doing it serially keeps the dedup set trivially correct,
  // while the per-trial RNG streams make each draw independent of execution order.
  struct TrialPlan {
    NeuroCSpec spec;
    std::string key;
    uint64_t train_seed = 0;
  };
  std::vector<TrialPlan> plan(static_cast<size_t>(trials));
  std::set<std::string> seen;
  for (int t = 0; t < trials; ++t) {
    TrialPlan& p = plan[static_cast<size_t>(t)];
    Rng rng(SubSeed(seed, static_cast<uint64_t>(t)));
    // Sample a distinct configuration (bounded retries to stay deterministic and finite).
    for (int attempt = 0; attempt < 50; ++attempt) {
      p.spec.hidden.clear();
      const int layers = static_cast<int>(
          rng.NextInt(space.min_hidden_layers, space.max_hidden_layers));
      for (int l = 0; l < layers; ++l) {
        p.spec.hidden.push_back(
            space.width_choices[rng.NextBounded(space.width_choices.size())]);
      }
      p.spec.layer.ternary.target_density =
          space.density_choices[rng.NextBounded(space.density_choices.size())];
      p.key = Describe(p.spec);
      if (seen.insert(p.key).second) {
        break;
      }
    }
    p.train_seed = rng.NextU64();
  }

  // Phase 2 — train and simulate the candidates on the shared pool. Every trial owns the
  // pre-sized slot candidates[t] and builds its own Network/Machine/DeployedModel; the
  // training kernels are bit-identical for any worker count (nested ParallelFor runs
  // in-line on a worker), so the result vector is byte-identical to a sequential search
  // at any NEUROC_NUM_THREADS. Grain 1: a trial is seconds of training, so each chunk
  // should hold exactly one.
  result.candidates.assign(static_cast<size_t>(trials), SearchCandidate{});
  ParallelFor(0, static_cast<size_t>(trials), 1, [&](size_t t0, size_t t1) {
    for (size_t t = t0; t < t1; ++t) {
      const TrialPlan& p = plan[t];
      SearchCandidate cand;
      cand.spec = p.spec;
      cand.description = p.key;
      Rng train_rng(p.train_seed);
      Network net = BuildNeuroC(train.input_dim(), static_cast<size_t>(train.num_classes),
                                p.spec, train_rng);
      Train(net, train, validation, train_cfg);
      NeuroCModel model = NeuroCModel::FromTrained(net, train);
      cand.accuracy = model.EvaluateAccuracy(qval);
      // One build: the program that is sized is the one deployed.
      DeployedModel::Program program(model, platform.ToMachineConfig());
      cand.program_bytes = program.bytes();
      if (cand.program_bytes <= constraints.max_program_bytes &&
          cand.program_bytes <= platform.flash_bytes) {
        // Fault-isolated: a degenerate candidate that fails to deploy or faults on the
        // simulator is recorded as infeasible with a reason instead of killing the search.
        StatusOr<DeployedModel> deployed = DeployedModel::TryDeploy(std::move(program));
        if (deployed.ok()) {
          StatusOr<double> latency = deployed->TryMeasureLatencyMs();
          if (latency.ok()) {
            cand.latency_ms = *latency;
            cand.feasible = cand.latency_ms <= constraints.max_latency_ms;
          } else {
            cand.fault = latency.status().ToString();
          }
        } else {
          cand.fault = deployed.status().ToString();
        }
      }
      NEUROC_LOG_DEBUG("search %zu/%d %s acc=%.4f bytes=%zu lat=%.2f feasible=%d", t + 1,
                       trials, cand.description.c_str(), cand.accuracy, cand.program_bytes,
                       cand.latency_ms, cand.feasible ? 1 : 0);
      result.candidates[t] = std::move(cand);
    }
  });

  // Pareto front over feasible candidates: ascending program bytes, strictly increasing
  // accuracy.
  std::vector<size_t> feasible;
  for (size_t i = 0; i < result.candidates.size(); ++i) {
    if (result.candidates[i].feasible) {
      feasible.push_back(i);
    }
  }
  std::sort(feasible.begin(), feasible.end(), [&](size_t a, size_t b) {
    const auto& ca = result.candidates[a];
    const auto& cb = result.candidates[b];
    if (ca.program_bytes != cb.program_bytes) {
      return ca.program_bytes < cb.program_bytes;
    }
    return ca.accuracy > cb.accuracy;
  });
  float best_acc = -1.0f;
  for (size_t i : feasible) {
    if (result.candidates[i].accuracy > best_acc) {
      best_acc = result.candidates[i].accuracy;
      result.pareto.push_back(i);
    }
  }
  for (size_t i : feasible) {
    if (result.best < 0 ||
        result.candidates[i].accuracy >
            result.candidates[static_cast<size_t>(result.best)].accuracy) {
      result.best = static_cast<int>(i);
    }
  }
  MetricsRegistry& reg = MetricsRegistry::Global();
  reg.GetCounter("search.trials").Add(result.candidates.size());
  reg.GetCounter("search.feasible").Add(feasible.size());
  if (result.best >= 0) {
    reg.GetGauge("search.best_accuracy")
        .Set(result.candidates[static_cast<size_t>(result.best)].accuracy);
  }
  return result;
}

}  // namespace neuroc
