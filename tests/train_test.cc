#include <gtest/gtest.h>

#include <cmath>

#include "src/data/synth.h"
#include "src/obs/registry.h"
#include "src/tensor/matrix_ops.h"
#include "src/train/layers.h"
#include "src/train/loss.h"
#include "src/train/network.h"
#include "src/train/neuroc_layer.h"
#include "src/train/optimizer.h"
#include "src/train/ternary.h"
#include "src/train/trainer.h"

namespace neuroc {
namespace {

Tensor RandomBatch(size_t n, size_t d, Rng& rng) {
  Tensor t({n, d});
  for (float& v : t.flat()) {
    v = rng.NextUniform(-1.0f, 1.0f);
  }
  return t;
}

// Scalar loss used for gradient checks: sum of squares of the module output.
// Training-mode forward: Backward requires the activation caches a training forward fills.
float HalfSquaredOutput(Module& m, const Tensor& x, Tensor* grad_out = nullptr) {
  const Tensor& y = m.Forward(x, /*training=*/true);
  float loss = 0.0f;
  for (float v : y.flat()) {
    loss += 0.5f * v * v;
  }
  if (grad_out != nullptr) {
    *grad_out = y;  // d(0.5 y^2)/dy = y
  }
  return loss;
}

// Numerically checks the analytic gradient of one parameter tensor.
void CheckParamGradient(Module& m, const Tensor& x, const ParamRef& param,
                        float tolerance = 2e-2f) {
  Tensor grad_out;
  HalfSquaredOutput(m, x, &grad_out);
  m.Backward(grad_out);
  Tensor analytic = *param.grad;
  const float eps = 1e-3f;
  size_t checked = 0;
  for (size_t i = 0; i < param.value->size() && checked < 24; i += 1 + param.value->size() / 24) {
    float& w = (*param.value)[i];
    const float orig = w;
    w = orig + eps;
    const float lp = HalfSquaredOutput(m, x);
    w = orig - eps;
    const float lm = HalfSquaredOutput(m, x);
    w = orig;
    const float numeric = (lp - lm) / (2.0f * eps);
    EXPECT_NEAR(analytic[i], numeric, tolerance * std::max(1.0f, std::fabs(numeric)))
        << param.name << " index " << i;
    ++checked;
  }
}

TEST(DenseLayerTest, ForwardMatchesManualComputation) {
  Rng rng(1);
  DenseLayer layer(2, 2, rng);
  Tensor x = Tensor::FromData(1, 2, {1.0f, 2.0f});
  const Tensor& y = layer.Forward(x, false);
  const Tensor& w = layer.weights();
  EXPECT_NEAR(y.at(0, 0), w.at(0, 0) + 2.0f * w.at(1, 0), 1e-5f);
  EXPECT_NEAR(y.at(0, 1), w.at(0, 1) + 2.0f * w.at(1, 1), 1e-5f);
}

TEST(DenseLayerTest, GradientCheck) {
  Rng rng(2);
  DenseLayer layer(5, 4, rng);
  Tensor x = RandomBatch(3, 5, rng);
  std::vector<ParamRef> params;
  layer.CollectParams(params);
  for (const ParamRef& p : params) {
    CheckParamGradient(layer, x, p);
  }
}

TEST(DenseLayerTest, InputGradientCheck) {
  Rng rng(3);
  DenseLayer layer(4, 3, rng);
  Tensor x = RandomBatch(2, 4, rng);
  Tensor grad_out;
  HalfSquaredOutput(layer, x, &grad_out);
  const Tensor analytic = layer.Backward(grad_out);
  const float eps = 1e-3f;
  for (size_t i = 0; i < x.size(); ++i) {
    const float orig = x[i];
    x[i] = orig + eps;
    const float lp = HalfSquaredOutput(layer, x);
    x[i] = orig - eps;
    const float lm = HalfSquaredOutput(layer, x);
    x[i] = orig;
    EXPECT_NEAR(analytic[i], (lp - lm) / (2 * eps), 2e-2f);
  }
}

TEST(ReluLayerTest, ForwardAndBackward) {
  ReluLayer relu;
  Tensor x = Tensor::FromData(1, 4, {-1.0f, 0.0f, 2.0f, -0.5f});
  const Tensor& y = relu.Forward(x, false);
  EXPECT_EQ(y[0], 0.0f);
  EXPECT_EQ(y[2], 2.0f);
  Tensor g = Tensor::FromData(1, 4, {1, 1, 1, 1});
  const Tensor& gx = relu.Backward(g);
  EXPECT_EQ(gx[0], 0.0f);
  EXPECT_EQ(gx[2], 1.0f);
}

TEST(DropoutLayerTest, InferenceIsIdentity) {
  Rng rng(4);
  DropoutLayer drop(0.5f, rng);
  Tensor x = RandomBatch(2, 8, rng);
  const Tensor& y = drop.Forward(x, /*training=*/false);
  for (size_t i = 0; i < x.size(); ++i) {
    EXPECT_EQ(y[i], x[i]);
  }
}

TEST(DropoutLayerTest, TrainingZeroesApproxRateFraction) {
  Rng rng(5);
  DropoutLayer drop(0.5f, rng);
  Tensor x({10, 100});
  x.Fill(1.0f);
  const Tensor& y = drop.Forward(x, /*training=*/true);
  size_t zeros = 0;
  for (float v : y.flat()) {
    if (v == 0.0f) {
      ++zeros;
    } else {
      EXPECT_NEAR(v, 2.0f, 1e-5f);  // inverted dropout scaling 1/(1-rate)
    }
  }
  const double frac = static_cast<double>(zeros) / static_cast<double>(y.size());
  EXPECT_NEAR(frac, 0.5, 0.07);
}

TEST(BatchNormTest, NormalizesTrainingBatch) {
  BatchNorm1dLayer bn(3);
  Rng rng(6);
  Tensor x({64, 3});
  for (size_t r = 0; r < 64; ++r) {
    x.at(r, 0) = rng.NextGaussian(5.0f, 2.0f);
    x.at(r, 1) = rng.NextGaussian(-1.0f, 0.5f);
    x.at(r, 2) = rng.NextGaussian(0.0f, 3.0f);
  }
  const Tensor& y = bn.Forward(x, /*training=*/true);
  for (size_t c = 0; c < 3; ++c) {
    double mean = 0.0, var = 0.0;
    for (size_t r = 0; r < 64; ++r) {
      mean += y.at(r, c);
    }
    mean /= 64;
    for (size_t r = 0; r < 64; ++r) {
      var += (y.at(r, c) - mean) * (y.at(r, c) - mean);
    }
    var /= 64;
    EXPECT_NEAR(mean, 0.0, 1e-4);
    EXPECT_NEAR(var, 1.0, 1e-3);
  }
}

TEST(BatchNormTest, GradientCheck) {
  BatchNorm1dLayer bn(4);
  Rng rng(7);
  Tensor x = RandomBatch(8, 4, rng);
  // Warm the layer so gamma/beta are exercised at non-default values.
  std::vector<ParamRef> params;
  bn.CollectParams(params);
  (*params[0].value)[1] = 1.3f;
  (*params[1].value)[2] = -0.4f;
  // Gradient-check in training mode requires batch statistics; use a fixed wrapper.
  Tensor grad_out;
  const Tensor& y = bn.Forward(x, true);
  grad_out = y;
  bn.Backward(grad_out);
  const Tensor analytic_gamma = *params[0].grad;
  const float eps = 1e-3f;
  for (size_t i = 0; i < 4; ++i) {
    float& g = (*params[0].value)[i];
    const float orig = g;
    auto loss_at = [&](float val) {
      g = val;
      const Tensor& out = bn.Forward(x, true);
      float l = 0.0f;
      for (float v : out.flat()) {
        l += 0.5f * v * v;
      }
      return l;
    };
    const float lp = loss_at(orig + eps);
    const float lm = loss_at(orig - eps);
    g = orig;
    EXPECT_NEAR(analytic_gamma[i], (lp - lm) / (2 * eps), 2e-2f * std::max(1.0f, analytic_gamma[i]));
  }
}

TEST(TernaryTest, TernarizeRespectsThreshold) {
  Tensor w = Tensor::FromData(1, 5, {-0.9f, -0.1f, 0.0f, 0.2f, 0.8f});
  Tensor out;
  Ternarize(w, 0.5f, out);
  EXPECT_EQ(out[0], -1.0f);
  EXPECT_EQ(out[1], 0.0f);
  EXPECT_EQ(out[2], 0.0f);
  EXPECT_EQ(out[3], 0.0f);
  EXPECT_EQ(out[4], 1.0f);
}

TEST(TernaryTest, ThresholdScalesWithMeanAbs) {
  Tensor w = Tensor::FromData(1, 4, {1.0f, -1.0f, 1.0f, -1.0f});
  TernaryConfig cfg;
  cfg.target_density = 0.0f;  // classic TWN threshold mode
  EXPECT_NEAR(TernaryThreshold(w, cfg), 0.7f, 1e-6f);
}

TEST(TernaryTest, TargetDensityControlsSparsity) {
  Rng rng(77);
  Tensor w({64, 64});
  for (float& v : w.flat()) {
    v = rng.NextGaussian(0.0f, 1.0f);
  }
  for (float density : {0.05f, 0.2f, 0.5f}) {
    TernaryConfig cfg;
    cfg.target_density = density;
    const float t = TernaryThreshold(w, cfg);
    const double actual =
        static_cast<double>(CountNonZero(w, t)) / static_cast<double>(w.size());
    EXPECT_NEAR(actual, density, 0.02) << "density " << density;
  }
}

TEST(TernaryTest, SteClipZeroesLargeLatents) {
  Tensor w = Tensor::FromData(1, 3, {0.5f, 1.5f, -2.0f});
  Tensor g = Tensor::FromData(1, 3, {1.0f, 1.0f, 1.0f});
  ApplySteClip(w, 1.0f, g);
  EXPECT_EQ(g[0], 1.0f);
  EXPECT_EQ(g[1], 0.0f);
  EXPECT_EQ(g[2], 0.0f);
}

TEST(TernaryTest, CountNonZeroMatchesTernarize) {
  Rng rng(8);
  Tensor w({16, 16});
  for (float& v : w.flat()) {
    v = rng.NextGaussian(0.0f, 1.0f);
  }
  const float t = 0.4f;
  Tensor tern;
  Ternarize(w, t, tern);
  size_t nnz = 0;
  for (float v : tern.flat()) {
    if (v != 0.0f) {
      ++nnz;
    }
  }
  EXPECT_EQ(CountNonZero(w, t), nnz);
}

TEST(NeuroCLayerTest, ForwardMatchesManualTernaryComputation) {
  Rng rng(9);
  NeuroCLayer layer(6, 3, rng);
  Tensor x = RandomBatch(2, 6, rng);
  const Tensor& y = layer.Forward(x, false);
  const Tensor& a = layer.Adjacency();
  for (size_t r = 0; r < 2; ++r) {
    for (size_t j = 0; j < 3; ++j) {
      float z = 0.0f;
      for (size_t i = 0; i < 6; ++i) {
        z += x.at(r, i) * a.at(i, j);
      }
      const float expected = z * layer.scale()[j] + layer.bias()[j];
      EXPECT_NEAR(y.at(r, j), expected, 1e-5f);
    }
  }
}

TEST(NeuroCLayerTest, ScaleAndBiasGradientCheck) {
  // The latent gradient is a straight-through estimate (not checkable numerically), but the
  // scale and bias gradients are exact given a fixed adjacency — verify them.
  Rng rng(10);
  NeuroCLayer layer(8, 4, rng);
  Tensor x = RandomBatch(3, 8, rng);
  std::vector<ParamRef> params;
  layer.CollectParams(params);
  for (const ParamRef& p : params) {
    if (p.name.find(".latent") != std::string::npos) {
      continue;
    }
    CheckParamGradient(layer, x, p);
  }
}

TEST(NeuroCLayerTest, TnnVariantHasNoScaleParam) {
  Rng rng(11);
  NeuroCLayerConfig cfg;
  cfg.use_per_neuron_scale = false;
  NeuroCLayer layer(8, 4, rng, cfg);
  std::vector<ParamRef> params;
  layer.CollectParams(params);
  for (const ParamRef& p : params) {
    EXPECT_EQ(p.name.find(".scale"), std::string::npos);
  }
  EXPECT_EQ(layer.Name().substr(0, 3), "tnn");
}

TEST(NeuroCLayerTest, DeployedParameterCountTracksSparsity) {
  Rng rng(12);
  NeuroCLayer layer(32, 16, rng);
  const size_t nnz = layer.NonZeroCount();
  EXPECT_EQ(layer.DeployedParameterCount(), nnz + 2 * 16);
  EXPECT_GT(nnz, 0u);
  EXPECT_LT(nnz, 32u * 16u);  // threshold should zero a meaningful fraction
}

class FixedAdjacencyStrategyTest : public ::testing::TestWithParam<AdjacencyStrategy> {};

TEST_P(FixedAdjacencyStrategyTest, BuildsTernaryAdjacency) {
  Rng rng(13);
  FixedAdjacencyConfig cfg;
  cfg.strategy = GetParam();
  cfg.density = 0.2;
  cfg.fan_in = 8;
  cfg.image_width = 8;
  FixedAdjacencyLayer layer(64, 10, rng, cfg);
  size_t nnz = 0;
  for (float v : layer.adjacency().flat()) {
    EXPECT_TRUE(v == 0.0f || v == 1.0f || v == -1.0f);
    if (v != 0.0f) {
      ++nnz;
    }
  }
  EXPECT_GT(nnz, 0u);
  EXPECT_EQ(layer.NonZeroCount(), nnz);
}

TEST_P(FixedAdjacencyStrategyTest, GradientsFlowToScaleAndBias) {
  Rng rng(14);
  FixedAdjacencyConfig cfg;
  cfg.strategy = GetParam();
  cfg.density = 0.3;
  cfg.fan_in = 6;
  cfg.image_width = 4;
  FixedAdjacencyLayer layer(16, 5, rng, cfg);
  Tensor x = RandomBatch(2, 16, rng);
  std::vector<ParamRef> params;
  layer.CollectParams(params);
  for (const ParamRef& p : params) {
    CheckParamGradient(layer, x, p);
  }
}

INSTANTIATE_TEST_SUITE_P(AllStrategies, FixedAdjacencyStrategyTest,
                         ::testing::Values(AdjacencyStrategy::kRandom,
                                           AdjacencyStrategy::kConstrainedRandom,
                                           AdjacencyStrategy::kSpatialLocal));

TEST(FixedAdjacencyTest, ConstrainedRandomHasExactFanIn) {
  Rng rng(15);
  FixedAdjacencyConfig cfg;
  cfg.strategy = AdjacencyStrategy::kConstrainedRandom;
  cfg.fan_in = 7;
  FixedAdjacencyLayer layer(32, 9, rng, cfg);
  const Tensor& a = layer.adjacency();
  for (size_t j = 0; j < 9; ++j) {
    size_t fan = 0;
    for (size_t i = 0; i < 32; ++i) {
      if (a.at(i, j) != 0.0f) {
        ++fan;
      }
    }
    EXPECT_EQ(fan, 7u);
  }
}

TEST(LossTest, SoftmaxCrossEntropyKnownValue) {
  Tensor logits = Tensor::FromData(1, 2, {0.0f, 0.0f});
  std::vector<int> labels{0};
  const float loss = SoftmaxCrossEntropy(logits, labels, nullptr);
  EXPECT_NEAR(loss, std::log(2.0f), 1e-5f);
}

TEST(LossTest, GradientMatchesNumeric) {
  Rng rng(16);
  Tensor logits = RandomBatch(4, 5, rng);
  std::vector<int> labels{0, 2, 4, 1};
  Tensor grad;
  SoftmaxCrossEntropy(logits, labels, &grad);
  const float eps = 1e-3f;
  for (size_t i = 0; i < logits.size(); ++i) {
    const float orig = logits[i];
    logits[i] = orig + eps;
    const float lp = SoftmaxCrossEntropy(logits, labels, nullptr);
    logits[i] = orig - eps;
    const float lm = SoftmaxCrossEntropy(logits, labels, nullptr);
    logits[i] = orig;
    EXPECT_NEAR(grad[i], (lp - lm) / (2 * eps), 1e-3f);
  }
}

TEST(LossTest, AccuracyCountsArgmaxMatches) {
  Tensor logits = Tensor::FromData(2, 3, {1.0f, 2.0f, 0.0f, 5.0f, 1.0f, 1.0f});
  std::vector<int> labels{1, 0};
  EXPECT_EQ(Accuracy(logits, labels), 1.0f);
  labels = {0, 0};
  EXPECT_EQ(Accuracy(logits, labels), 0.5f);
}

TEST(OptimizerTest, SgdStepsDownhill) {
  Tensor w = Tensor::FromData(1, 1, {1.0f});
  Tensor g = Tensor::FromData(1, 1, {2.0f});
  std::vector<ParamRef> params{{&w, &g, "w"}};
  SgdOptimizer opt(0.1f);
  opt.Step(params);
  EXPECT_NEAR(w[0], 0.8f, 1e-6f);
}

TEST(OptimizerTest, AdamConvergesOnQuadratic) {
  Tensor w = Tensor::FromData(1, 2, {3.0f, -2.0f});
  Tensor g({1, 2});
  std::vector<ParamRef> params{{&w, &g, "w"}};
  AdamOptimizer opt(0.1f);
  for (int i = 0; i < 300; ++i) {
    g[0] = 2.0f * (w[0] - 1.0f);
    g[1] = 2.0f * (w[1] + 1.0f);
    opt.Step(params);
  }
  EXPECT_NEAR(w[0], 1.0f, 1e-2f);
  EXPECT_NEAR(w[1], -1.0f, 1e-2f);
}

TEST(TrainerTest, MlpLearnsDigits) {
  Dataset all = MakeDigits8x8(1200, 42);
  Rng rng(1);
  auto [train, test] = all.Split(0.2, rng);
  Network net = BuildMlp(64, 10, {{32}, 0.0f, false}, rng);
  TrainConfig cfg;
  cfg.epochs = 8;
  cfg.batch_size = 32;
  cfg.learning_rate = 2e-3f;
  TrainResult result = Train(net, train, test, cfg);
  EXPECT_GT(result.final_test_accuracy, 0.8f)
      << "MLP failed to learn synthetic digits: " << result.final_test_accuracy;
}

TEST(TrainerTest, NeuroCLearnsDigits) {
  Dataset all = MakeDigits8x8(1200, 43);
  Rng rng(2);
  auto [train, test] = all.Split(0.2, rng);
  NeuroCSpec spec;
  spec.hidden = {48};
  Network net = BuildNeuroC(64, 10, spec, rng);
  TrainConfig cfg;
  cfg.epochs = 10;
  cfg.batch_size = 32;
  cfg.learning_rate = 3e-3f;
  TrainResult result = Train(net, train, test, cfg);
  EXPECT_GT(result.final_test_accuracy, 0.75f)
      << "Neuro-C failed to learn synthetic digits: " << result.final_test_accuracy;
}

TEST(TrainerTest, LossDecreasesDuringTraining) {
  Dataset all = MakeDigits8x8(600, 44);
  Rng rng(3);
  auto [train, test] = all.Split(0.2, rng);
  Network net = BuildMlp(64, 10, {{16}, 0.0f, false}, rng);
  TrainConfig cfg;
  cfg.epochs = 6;
  cfg.batch_size = 32;
  TrainResult result = Train(net, train, test, cfg);
  EXPECT_LT(result.history.back().train_loss, result.history.front().train_loss);
}

TEST(TrainerTest, EveryEpochIsRecordedInTheMetricsRegistry) {
  Dataset all = MakeDigits8x8(300, 47);
  Rng rng(10);
  auto [train, test] = all.Split(0.2, rng);
  NeuroCSpec spec;
  spec.hidden = {16};
  Network net = BuildNeuroC(64, 10, spec, rng);
  TrainConfig cfg;
  cfg.epochs = 2;
  cfg.batch_size = 32;
  cfg.learning_rate = 4e-3f;
  cfg.lr_decay = 0.5f;
  MetricsRegistry& reg = MetricsRegistry::Global();
  const MetricsRegistry::Histogram::Snapshot epoch_ms =
      reg.GetHistogram("train.epoch_ms").snapshot();
  const uint64_t rates = reg.GetHistogram("train.examples_per_sec").snapshot().count;

  const TrainResult r = Train(net, train, test, cfg);
  ASSERT_EQ(r.history.size(), 2u);
  const MetricsRegistry::Histogram::Snapshot after =
      reg.GetHistogram("train.epoch_ms").snapshot();
  EXPECT_EQ(after.count, epoch_ms.count + 2);
  EXPECT_DOUBLE_EQ(after.sum, epoch_ms.sum + r.history[0].epoch_seconds * 1000.0 +
                                  r.history[1].epoch_seconds * 1000.0);
  EXPECT_EQ(reg.GetHistogram("train.examples_per_sec").snapshot().count, rates + 2);
  // The gauges hold the last epoch, as TrainResult::history does.
  const EpochStats& last = r.history.back();
  EXPECT_EQ(reg.GetGauge("train.train_loss").value(), last.train_loss);
  EXPECT_EQ(reg.GetGauge("train.train_accuracy").value(), last.train_accuracy);
  EXPECT_EQ(reg.GetGauge("train.test_accuracy").value(), last.test_accuracy);
  EXPECT_EQ(reg.GetGauge("train.ternary_density").value(), last.ternary_density);
  EXPECT_GT(last.ternary_density, 0.0f);
  EXPECT_EQ(reg.GetGauge("train.learning_rate").value(), 4e-3f * 0.5f);
}

TEST(NetworkTest, SummaryAndParamCollection) {
  Rng rng(4);
  Network net = BuildMlp(10, 3, {{8, 4}, 0.1f, true}, rng);
  EXPECT_NE(net.Summary().find("dense"), std::string::npos);
  EXPECT_NE(net.Summary().find("batchnorm"), std::string::npos);
  // 2 hidden dense (W+b) + 2 bn (gamma+beta) + output dense (W+b) = 10 tensors.
  EXPECT_EQ(net.Params().size(), 10u);
}

TEST(NetworkTest, DeployedParameterCountForMlp) {
  Rng rng(5);
  Network net = BuildMlp(10, 3, {{8}, 0.0f, false}, rng);
  // dense 10x8 + 8 bias + dense 8x3 + 3 bias.
  EXPECT_EQ(net.DeployedParameterCount(), 10u * 8 + 8 + 8 * 3 + 3);
}


TEST(TrainerTest, GatherBatchCopiesRowsAndLabels) {
  Dataset ds = MakeDigits8x8(10, 3);
  Tensor x;
  std::vector<int> y;
  const std::vector<size_t> idx{9, 0, 4};
  GatherBatch(ds, idx, x, y);
  ASSERT_EQ(x.rows(), 3u);
  ASSERT_EQ(y.size(), 3u);
  EXPECT_EQ(y[0], ds.labels[9]);
  EXPECT_EQ(y[2], ds.labels[4]);
  for (size_t c = 0; c < ds.input_dim(); ++c) {
    EXPECT_EQ(x.at(1, c), ds.images.at(0, c));
  }
}

TEST(TrainerTest, LrDecayReducesStepSizeOverEpochs) {
  // With aggressive decay, late epochs barely move the weights: train loss trajectory
  // should flatten rather than oscillate.
  Dataset all = MakeDigits8x8(600, 46);
  Rng rng(9);
  auto [train, test] = all.Split(0.2, rng);
  Network net = BuildMlp(64, 10, {{16}, 0.0f, false}, rng);
  TrainConfig cfg;
  cfg.epochs = 8;
  cfg.batch_size = 32;
  cfg.learning_rate = 5e-3f;
  cfg.lr_decay = 0.5f;
  TrainResult r = Train(net, train, test, cfg);
  const float late_delta =
      std::fabs(r.history[7].train_loss - r.history[6].train_loss);
  const float early_delta =
      std::fabs(r.history[1].train_loss - r.history[0].train_loss);
  EXPECT_LT(late_delta, early_delta);
}

TEST(TrainerTest, SgdMomentumAlsoLearns) {
  Dataset all = MakeDigits8x8(800, 47);
  Rng rng(10);
  auto [train, test] = all.Split(0.2, rng);
  Network net = BuildMlp(64, 10, {{24}, 0.0f, false}, rng);
  TrainConfig cfg;
  cfg.epochs = 10;
  cfg.batch_size = 32;
  cfg.use_adam = false;
  cfg.learning_rate = 5e-2f;
  cfg.momentum = 0.9f;
  TrainResult r = Train(net, train, test, cfg);
  EXPECT_GT(r.final_test_accuracy, 0.7f);
}

TEST(TrainerTest, EvaluateAccuracyMatchesManualLoop) {
  Dataset all = MakeDigits8x8(300, 48);
  Rng rng(11);
  Network net = BuildMlp(64, 10, {{16}, 0.0f, false}, rng);
  const float fast = EvaluateAccuracy(net, all, /*batch_size=*/64);
  // Manual single-example evaluation.
  size_t correct = 0;
  Tensor x;
  std::vector<int> y;
  for (size_t i = 0; i < all.num_examples(); ++i) {
    const std::vector<size_t> idx{i};
    GatherBatch(all, idx, x, y);
    const Tensor& logits = net.Forward(x, false);
    if (ArgMax(logits.row(0)) == static_cast<size_t>(y[0])) {
      ++correct;
    }
  }
  EXPECT_NEAR(fast, static_cast<float>(correct) / all.num_examples(), 1e-6f);
}

TEST(NeuroCLayerTest, AdjacencyRespectsTargetDensityDuringTraining) {
  Rng rng(50);
  NeuroCLayerConfig cfg;
  cfg.ternary.target_density = 0.1f;
  NeuroCLayer layer(100, 50, rng, cfg);
  const double density =
      static_cast<double>(layer.NonZeroCount()) / (100.0 * 50.0);
  EXPECT_NEAR(density, 0.1, 0.02);
}

TEST(NetworkTest, BuildersProduceChainedDimensions) {
  Rng rng(51);
  NeuroCSpec spec;
  spec.hidden = {32, 16};
  Network net = BuildNeuroC(100, 7, spec, rng);
  Tensor x({2, 100});
  const Tensor& out = net.Forward(x, false);
  EXPECT_EQ(out.rows(), 2u);
  EXPECT_EQ(out.cols(), 7u);
  Network mlp = BuildMlp(100, 7, {{32, 16}, 0.2f, true}, rng);
  const Tensor& out2 = mlp.Forward(x, false);
  EXPECT_EQ(out2.cols(), 7u);
}

TEST(FixedAdjacencyTest, SpatialWindowsAreLocal) {
  // Every connection of a spatial-local layer must lie within the window radius of some
  // center — verified indirectly: each column's active rows span at most (2r+1)^2 cells of
  // the image, all within a (2r+1)-sized bounding box.
  Rng rng(52);
  FixedAdjacencyConfig cfg;
  cfg.strategy = AdjacencyStrategy::kSpatialLocal;
  cfg.image_width = 8;
  cfg.window_radius = 1;
  FixedAdjacencyLayer layer(64, 12, rng, cfg);
  const Tensor& a = layer.adjacency();
  for (size_t j = 0; j < 12; ++j) {
    int min_x = 8, max_x = -1, min_y = 8, max_y = -1;
    for (size_t i = 0; i < 64; ++i) {
      if (a.at(i, j) != 0.0f) {
        const int x = static_cast<int>(i % 8);
        const int y = static_cast<int>(i / 8);
        min_x = std::min(min_x, x);
        max_x = std::max(max_x, x);
        min_y = std::min(min_y, y);
        max_y = std::max(max_y, y);
      }
    }
    if (max_x >= 0) {
      EXPECT_LE(max_x - min_x, 2 * cfg.window_radius) << "column " << j;
      EXPECT_LE(max_y - min_y, 2 * cfg.window_radius) << "column " << j;
    }
  }
}

}  // namespace
}  // namespace neuroc
