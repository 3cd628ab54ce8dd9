#include "src/train/trainer.h"

#include <algorithm>
#include <chrono>
#include <memory>

#include "src/common/check.h"
#include "src/common/logging.h"
#include "src/common/thread_pool.h"
#include "src/obs/registry.h"
#include "src/obs/trace.h"
#include "src/train/loss.h"
#include "src/train/metrics.h"

namespace neuroc {

namespace {

// A row copy costs about one op per float, so the gather grain comes straight from the
// shared cost-based heuristic. Typical batches (64 rows x 256 floats = 16k ops) land far
// under one chunk and gather in-line — parallel gathers only pay off for the huge
// evaluation batches.
size_t GrainForRowCopy(size_t dim) { return GrainForOps(dim); }

// Mean nonzero fraction of the ternarized weight matrices — the paper's density knob as it
// actually lands after thresholding. 0 when the network has no Neuro-C layers.
float MeanTernaryDensity(const Network& net) {
  double density_sum = 0.0;
  size_t layers = 0;
  for (const auto& mod : net.modules()) {
    const auto* layer = dynamic_cast<const NeuroCLayer*>(mod.get());
    if (layer == nullptr) {
      continue;
    }
    const size_t weights = layer->in_dim() * layer->out_dim();
    if (weights == 0) {
      continue;
    }
    density_sum +=
        static_cast<double>(layer->NonZeroCount()) / static_cast<double>(weights);
    ++layers;
  }
  return layers == 0 ? 0.0f : static_cast<float>(density_sum / static_cast<double>(layers));
}

}  // namespace

void GatherBatch(const Dataset& ds, std::span<const size_t> indices, Tensor& batch_x,
                 std::vector<int>& batch_y) {
  const size_t dim = ds.input_dim();
  if (batch_x.rank() != 2 || batch_x.rows() != indices.size() || batch_x.cols() != dim) {
    batch_x = Tensor({indices.size(), dim});
  }
  batch_y.resize(indices.size());
  ParallelFor(0, indices.size(), GrainForRowCopy(dim), [&](size_t i0, size_t i1) {
    for (size_t i = i0; i < i1; ++i) {
      NEUROC_CHECK(indices[i] < ds.num_examples());
      std::copy(ds.images.row(indices[i]).begin(), ds.images.row(indices[i]).end(),
                batch_x.row(i).begin());
      batch_y[i] = ds.labels[indices[i]];
    }
  });
}

float EvaluateAccuracy(Network& net, const Dataset& ds, size_t batch_size) {
  size_t correct = 0;
  Tensor batch_x;
  std::vector<int> batch_y;
  std::vector<size_t> idx;
  for (size_t start = 0; start < ds.num_examples(); start += batch_size) {
    const size_t end = std::min(start + batch_size, ds.num_examples());
    idx.resize(end - start);
    for (size_t i = start; i < end; ++i) {
      idx[i - start] = i;
    }
    GatherBatch(ds, idx, batch_x, batch_y);
    const Tensor& logits = net.Forward(batch_x, /*training=*/false);
    correct += CountCorrect(logits, batch_y);  // exact integer count per batch
  }
  return ds.num_examples() == 0
             ? 0.0f
             : static_cast<float>(correct) / static_cast<float>(ds.num_examples());
}

TrainResult Train(Network& net, const Dataset& train, const Dataset& test,
                  const TrainConfig& cfg) {
  NEUROC_CHECK(train.num_examples() > 0);
  std::unique_ptr<Optimizer> opt;
  if (cfg.use_adam) {
    opt = std::make_unique<AdamOptimizer>(cfg.learning_rate, 0.9f, 0.999f, 1e-8f,
                                          cfg.weight_decay);
  } else {
    opt = std::make_unique<SgdOptimizer>(cfg.learning_rate, cfg.momentum, cfg.weight_decay);
  }
  std::vector<ParamRef> params = net.Params();
  Rng rng(cfg.shuffle_seed);
  std::vector<size_t> order(train.num_examples());
  for (size_t i = 0; i < order.size(); ++i) {
    order[i] = i;
  }
  TrainResult result;
  Tensor batch_x, grad;
  std::vector<int> batch_y;
  float lr = cfg.learning_rate;
  MetricsRegistry& reg = MetricsRegistry::Global();
  for (int epoch = 0; epoch < cfg.epochs; ++epoch) {
    const auto epoch_start = std::chrono::steady_clock::now();
    rng.Shuffle(order);
    double loss_sum = 0.0;
    double acc_sum = 0.0;
    size_t batches = 0;
    {
      NEUROC_TRACE_SCOPE("train_epoch");
      for (size_t start = 0; start < order.size(); start += cfg.batch_size) {
        const size_t end = std::min(start + cfg.batch_size, order.size());
        GatherBatch(train, std::span<const size_t>(order.data() + start, end - start),
                    batch_x, batch_y);
        const Tensor& logits = net.Forward(batch_x, /*training=*/true);
        const float loss = SoftmaxCrossEntropy(logits, batch_y, &grad);
        loss_sum += loss;
        acc_sum += Accuracy(logits, batch_y);
        ++batches;
        net.Backward(grad);
        opt->Step(params);
      }
    }
    EpochStats stats;
    stats.epoch_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - epoch_start)
            .count();
    stats.examples_per_sec =
        stats.epoch_seconds > 0.0
            ? static_cast<double>(order.size()) / stats.epoch_seconds
            : 0.0;
    stats.train_loss = static_cast<float>(loss_sum / std::max<size_t>(batches, 1));
    stats.train_accuracy = static_cast<float>(acc_sum / std::max<size_t>(batches, 1));
    {
      NEUROC_TRACE_SCOPE("evaluate");
      stats.test_accuracy = test.num_examples() > 0 ? EvaluateAccuracy(net, test) : 0.0f;
    }
    stats.ternary_density = MeanTernaryDensity(net);
    result.history.push_back(stats);
    result.best_test_accuracy = std::max(result.best_test_accuracy, stats.test_accuracy);
    if (cfg.verbose) {
      NEUROC_LOG_INFO("epoch %d/%d loss=%.4f train_acc=%.4f test_acc=%.4f", epoch + 1,
                      cfg.epochs, stats.train_loss, stats.train_accuracy,
                      stats.test_accuracy);
    }
    reg.GetHistogram("train.epoch_ms").Observe(stats.epoch_seconds * 1000.0);
    reg.GetHistogram("train.examples_per_sec").Observe(stats.examples_per_sec);
    reg.GetGauge("train.train_loss").Set(stats.train_loss);
    reg.GetGauge("train.train_accuracy").Set(stats.train_accuracy);
    reg.GetGauge("train.test_accuracy").Set(stats.test_accuracy);
    reg.GetGauge("train.ternary_density").Set(stats.ternary_density);
    reg.GetGauge("train.learning_rate").Set(lr);
    TraceRecorder::Global().Counter("train_loss", static_cast<double>(stats.train_loss));
    TraceRecorder::Global().Counter("test_accuracy",
                                    static_cast<double>(stats.test_accuracy));
    lr *= cfg.lr_decay;
    opt->set_learning_rate(lr);
  }
  result.final_test_accuracy =
      result.history.empty() ? 0.0f : result.history.back().test_accuracy;
  reg.GetCounter("train.epochs").Add(result.history.size());
  reg.GetCounter("train.runs").Add(1);
  reg.GetGauge("train.final_test_accuracy").Set(result.final_test_accuracy);
  return result;
}

}  // namespace neuroc
