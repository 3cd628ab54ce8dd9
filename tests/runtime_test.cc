#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>

#include "src/core/synthetic.h"
#include "src/data/synth.h"
#include "src/runtime/c_emitter.h"
#include "src/runtime/deployed_model.h"
#include "src/runtime/platform.h"
#include "src/train/trainer.h"
#include "tests/test_util.h"

namespace neuroc {
namespace {

TEST(PlatformTest, RegistryCoversAllClasses) {
  bool low = false, medium = false, advanced = false;
  for (const PlatformSpec& p : AllPlatforms()) {
    low |= p.mcu_class == McuClass::kLow;
    medium |= p.mcu_class == McuClass::kMedium;
    advanced |= p.mcu_class == McuClass::kAdvanced;
  }
  EXPECT_TRUE(low);
  EXPECT_TRUE(medium);
  EXPECT_TRUE(advanced);
}

TEST(PlatformTest, LowClassMatchesPaperTable1) {
  for (const PlatformSpec& p : AllPlatforms()) {
    if (p.mcu_class == McuClass::kLow) {
      EXPECT_FALSE(p.has_fpu) << p.name;
      EXPECT_FALSE(p.has_dsp_mac) << p.name;
      EXPECT_FALSE(p.has_simd) << p.name;
      EXPECT_LT(p.ram_bytes, 128u * 1024) << p.name;
      EXPECT_LT(p.flash_bytes, 512u * 1024) << p.name;
    }
  }
}

TEST(PlatformTest, EvaluationBoardIsStm32f072) {
  const PlatformSpec& p = Stm32f072rb();
  EXPECT_EQ(p.core, "Cortex-M0");
  EXPECT_EQ(p.ram_bytes, 16u * 1024);
  EXPECT_EQ(p.flash_bytes, 128u * 1024);
  EXPECT_DOUBLE_EQ(p.clock_hz, 8e6);
  const MachineConfig cfg = p.ToMachineConfig();
  EXPECT_EQ(cfg.ram_size, 16u * 1024);
  EXPECT_EQ(cfg.cycle_model.mul, 1);
}

TEST(PlatformTest, LookupByNameAbortsOnUnknown) {
  EXPECT_EQ(PlatformByName("STM32F072RB").core, "Cortex-M0");
  EXPECT_DEATH(PlatformByName("Z80"), "Z80");
}

// ---------------------------------------------------------------------------
// C emitter: generated sources must compile (host cc) and match host predictions.
// ---------------------------------------------------------------------------

NeuroCModel MakeSmallModel(uint64_t seed, EncodingKind kind) {
  testutil::TestModelSpec spec;
  spec.encoding = kind;
  return testutil::MakeTestModel(seed, spec);
}

TEST(CEmitterTest, HeaderAndSourceContainApi) {
  NeuroCModel model = MakeSmallModel(1, EncodingKind::kBlock);
  const CSources src = EmitCSources(model, "demo");
  EXPECT_NE(src.header.find("int demo_predict(const int8_t* input);"), std::string::npos);
  EXPECT_NE(src.header.find("#define demo_INPUT_DIM 64"), std::string::npos);
  EXPECT_NE(src.header.find("#define demo_OUTPUT_DIM 10"), std::string::npos);
  EXPECT_NE(src.source.find("nc_run_layer"), std::string::npos);
  EXPECT_NE(src.source.find("demo_layers"), std::string::npos);
}

class CEmitterCompileTest : public ::testing::TestWithParam<EncodingKind> {};

TEST_P(CEmitterCompileTest, CompiledCodeMatchesHostPredictions) {
  NeuroCModel model = MakeSmallModel(7 + static_cast<uint64_t>(GetParam()), GetParam());
  const CSources src = EmitCSources(model, "m");

  const std::string dir = ::testing::TempDir() + "/neuroc_cgen_" +
                          std::to_string(static_cast<int>(GetParam()));
  std::system(("mkdir -p " + dir).c_str());
  std::ofstream(dir + "/m.h") << src.header;
  std::ofstream(dir + "/m.c") << src.source;

  // Driver: read q7 inputs from stdin as ints, print predicted class per line.
  std::ofstream(dir + "/main.c") << R"(
#include <stdio.h>
#include "m.h"
int main(void) {
  int8_t input[m_INPUT_DIM];
  for (;;) {
    for (int i = 0; i < m_INPUT_DIM; ++i) {
      int v;
      if (scanf("%d", &v) != 1) { return 0; }
      input[i] = (int8_t)v;
    }
    printf("%d\n", m_predict(input));
  }
}
)";
  const std::string exe = dir + "/runner";
  const std::string cmd = "cc -std=c99 -O1 -Wall -o " + exe + " " + dir + "/main.c " + dir +
                          "/m.c 2> " + dir + "/cc.log";
  ASSERT_EQ(std::system(cmd.c_str()), 0) << "generated C failed to compile";

  // Feed 20 random inputs, compare against the host model.
  Rng rng(99);
  std::vector<std::vector<int8_t>> inputs;
  std::string stdin_data;
  for (int t = 0; t < 20; ++t) {
    inputs.push_back(MakeRandomInput(model.in_dim(), rng));
    for (int8_t v : inputs.back()) {
      stdin_data += std::to_string(static_cast<int>(v)) + " ";
    }
  }
  std::ofstream(dir + "/inputs.txt") << stdin_data;
  ASSERT_EQ(std::system((exe + " < " + dir + "/inputs.txt > " + dir + "/out.txt").c_str()), 0);
  std::ifstream out(dir + "/out.txt");
  for (int t = 0; t < 20; ++t) {
    int predicted = -1;
    ASSERT_TRUE(out >> predicted) << "missing output line " << t;
    EXPECT_EQ(predicted, model.Predict(inputs[static_cast<size_t>(t)])) << "input " << t;
  }
}

INSTANTIATE_TEST_SUITE_P(AllEncodings, CEmitterCompileTest,
                         ::testing::ValuesIn(std::vector<EncodingKind>(
                             std::begin(kAllEncodingKinds), std::end(kAllEncodingKinds))));

// ---------------------------------------------------------------------------
// Flash-budget guard and encoding fallback.
// ---------------------------------------------------------------------------

NeuroCModel MakeWideLayerModel(EncodingKind kind, size_t in_dim, size_t out_dim,
                               double density) {
  Rng rng(41);
  SyntheticNeuroCLayerSpec spec;
  spec.in_dim = in_dim;
  spec.out_dim = out_dim;
  spec.density = density;
  spec.encoding = kind;
  std::vector<QuantNeuroCLayer> layers;
  layers.push_back(MakeSyntheticNeuroCLayer(spec, rng));
  return NeuroCModel::FromLayers(std::move(layers));
}

TEST(DeployFallbackTest, FittingModelDeploysWithoutFallback) {
  NeuroCModel model = MakeSmallModel(3, EncodingKind::kUnrolled);
  DeployFallbackReport report;
  StatusOr<DeployedModel> deployed = DeployedModel::TryDeployWithFallback(model, {}, &report);
  ASSERT_TRUE(deployed.ok()) << deployed.status().ToString();
  EXPECT_FALSE(report.fell_back);
  EXPECT_EQ(report.requested, EncodingKind::kUnrolled);
  EXPECT_EQ(report.selected, EncodingKind::kUnrolled);
  EXPECT_TRUE(report.overflow.ok());
}

TEST(DeployFallbackTest, SizesEachEncodingByTheBuildItDeploys) {
  // TryDeployWithFallback sizes a model by the build it then deploys; the estimate and a
  // plain TryDeploy must report the same program bytes for every encoding.
  for (const EncodingKind kind : kAllEncodingKinds) {
    const NeuroCModel model = MakeSmallModel(5, kind);
    StatusOr<DeployedModel> deployed = DeployedModel::TryDeploy(model);
    ASSERT_TRUE(deployed.ok()) << EncodingKindName(kind);
    const size_t bytes = deployed->report().program_bytes;
    EXPECT_EQ(DeployedModel::EstimateProgramBytes(model), bytes) << EncodingKindName(kind);
    DeployFallbackReport report;
    StatusOr<DeployedModel> guarded = DeployedModel::TryDeployWithFallback(model, {}, &report);
    ASSERT_TRUE(guarded.ok()) << EncodingKindName(kind);
    EXPECT_EQ(report.requested_bytes, bytes) << EncodingKindName(kind);
    EXPECT_EQ(report.selected_bytes, bytes) << EncodingKindName(kind);
    EXPECT_EQ(guarded->report().program_bytes, bytes) << EncodingKindName(kind);
    EXPECT_EQ(guarded->kernel_program().bytes, deployed->kernel_program().bytes)
        << EncodingKindName(kind);
    EXPECT_EQ(guarded->image().flash, deployed->image().flash) << EncodingKindName(kind);
  }
}

TEST(DeployFallbackTest, OversizedUnrolledFallsBackToBestFittingEncoding) {
  // 784x256 at density 0.115 is ~139 KB as unrolled code — past the 128 KB budget —
  // but ~25 KB as a delta stream.
  NeuroCModel model = MakeWideLayerModel(EncodingKind::kUnrolled, 784, 256, 0.115);
  DeployFallbackReport report;
  StatusOr<DeployedModel> deployed = DeployedModel::TryDeployWithFallback(model, {}, &report);
  ASSERT_TRUE(deployed.ok()) << deployed.status().ToString();
  EXPECT_TRUE(report.fell_back);
  EXPECT_EQ(report.requested, EncodingKind::kUnrolled);
  EXPECT_EQ(report.selected, EncodingKind::kDelta);  // fastest stream format that fits
  EXPECT_GT(report.requested_bytes, report.flash_budget);
  EXPECT_EQ(report.requested_bytes, DeployedModel::EstimateProgramBytes(model));
  EXPECT_LE(report.selected_bytes, report.flash_budget);
  EXPECT_EQ(report.selected_bytes, deployed->report().program_bytes);
  // The overflow is reported as a structured status naming the failure, not an abort.
  EXPECT_EQ(report.overflow.code(), ErrorCode::kResourceExhausted);
  EXPECT_NE(report.overflow.ToString().find("flash budget overflow"), std::string::npos);
  // The fallback deployment must still match the host bit-for-bit.
  Rng rng(5);
  std::vector<int8_t> expected;
  for (int t = 0; t < 3; ++t) {
    const std::vector<int8_t> input = MakeRandomInput(model.in_dim(), rng);
    model.Forward(input, expected);
    deployed->Predict(input);
    EXPECT_EQ(deployed->LastOutput(), expected);
  }
}

TEST(DeployFallbackTest, NothingFitsReportsResourceExhausted) {
  NeuroCModel model = MakeWideLayerModel(EncodingKind::kUnrolled, 784, 256, 0.115);
  MachineConfig tiny;
  tiny.flash_size = 4 * 1024;
  DeployFallbackReport report;
  StatusOr<DeployedModel> deployed =
      DeployedModel::TryDeployWithFallback(model, tiny, &report);
  ASSERT_FALSE(deployed.ok());
  EXPECT_EQ(deployed.status().code(), ErrorCode::kResourceExhausted);
  EXPECT_NE(deployed.status().ToString().find("no encoding fits"), std::string::npos);
}

// ---------------------------------------------------------------------------
// End-to-end integration: train → quantize → deploy → simulate.
// ---------------------------------------------------------------------------

TEST(EndToEndTest, TrainQuantizeDeploySimulate) {
  Dataset all = MakeDigits8x8(900, 2024);
  Rng rng(3);
  auto [train, test] = all.Split(0.2, rng);
  NeuroCSpec spec;
  spec.hidden = {40};
  Network net = BuildNeuroC(64, 10, spec, rng);
  TrainConfig cfg;
  cfg.epochs = 8;
  cfg.batch_size = 32;
  cfg.learning_rate = 3e-3f;
  Train(net, train, test, cfg);

  NeuroCModel model = NeuroCModel::FromTrained(net, train);
  QuantizedDataset qtest = QuantizeInputs(test);
  const float host_acc = model.EvaluateAccuracy(qtest);
  EXPECT_GT(host_acc, 0.7f);

  DeployedModel deployed = DeployedModel::Deploy(model, Stm32f072rb().ToMachineConfig());
  // Simulated predictions must equal host predictions example by example.
  size_t sim_correct = 0;
  const size_t n = std::min<size_t>(qtest.num_examples(), 40);
  for (size_t i = 0; i < n; ++i) {
    std::span<const int8_t> x(qtest.example(i), qtest.input_dim);
    const int sim_class = deployed.Predict(x);
    EXPECT_EQ(sim_class, model.Predict(x)) << "example " << i;
    if (sim_class == qtest.labels[i]) {
      ++sim_correct;
    }
  }
  EXPECT_GT(static_cast<float>(sim_correct) / static_cast<float>(n), 0.6f);
  // Deployment fits the paper's board budget and runs in sane time.
  EXPECT_LE(deployed.report().program_bytes, 128u * 1024);
  EXPECT_GT(deployed.report().latency_ms, 0.01);
  EXPECT_LT(deployed.report().latency_ms, 200.0);
}

TEST(EndToEndTest, MlpBaselineDeploysAndMatches) {
  Dataset all = MakeDigits8x8(700, 2025);
  Rng rng(4);
  auto [train, test] = all.Split(0.2, rng);
  Network net = BuildMlp(64, 10, {{24}, 0.0f, false}, rng);
  TrainConfig cfg;
  cfg.epochs = 6;
  cfg.batch_size = 32;
  Train(net, train, test, cfg);
  MlpModel model = MlpModel::FromTrained(net, train);
  DeployedModel deployed = DeployedModel::Deploy(model, Stm32f072rb().ToMachineConfig());
  QuantizedDataset qtest = QuantizeInputs(test);
  for (size_t i = 0; i < 20; ++i) {
    std::span<const int8_t> x(qtest.example(i), qtest.input_dim);
    EXPECT_EQ(deployed.Predict(x), model.Predict(x)) << "example " << i;
  }
}

TEST(EndToEndTest, NeuroCBeatsMlpOnLatencyAtSimilarSetup) {
  // Miniature of the paper's headline: same task, Neuro-C inference is several times
  // faster and smaller than the dense MLP at a comparable hidden size.
  Dataset all = MakeDigits8x8(900, 2026);
  Rng rng(5);
  auto [train, test] = all.Split(0.2, rng);

  Network mlp = BuildMlp(64, 10, {{48}, 0.0f, false}, rng);
  NeuroCSpec nspec;
  nspec.hidden = {48};
  Network ncn = BuildNeuroC(64, 10, nspec, rng);
  TrainConfig cfg;
  cfg.epochs = 8;
  cfg.batch_size = 32;
  Train(mlp, train, test, cfg);
  Train(ncn, train, test, cfg);

  MlpModel mlp_q = MlpModel::FromTrained(mlp, train);
  NeuroCModel ncn_q = NeuroCModel::FromTrained(ncn, train);
  DeployedModel mlp_d = DeployedModel::Deploy(mlp_q);
  DeployedModel ncn_d = DeployedModel::Deploy(ncn_q);
  const double mlp_ms = mlp_d.MeasureLatencyMs();
  const double ncn_ms = ncn_d.MeasureLatencyMs();
  EXPECT_LT(ncn_ms, mlp_ms * 0.5) << "Neuro-C should be at least 2x faster";
  EXPECT_LT(ncn_d.report().program_bytes, mlp_d.report().program_bytes);
}

}  // namespace
}  // namespace neuroc
