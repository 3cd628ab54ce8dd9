#include <gtest/gtest.h>

#include "src/core/synthetic.h"
#include "src/isa/assembler.h"
#include "src/kernels/conv_desc.h"
#include "src/kernels/kernel_set.h"
#include "src/kernels/kernel_sources.h"
#include "src/runtime/deployed_model.h"

namespace neuroc {
namespace {

// ---------------------------------------------------------------------------
// Kernel source generation sanity.
// ---------------------------------------------------------------------------

TEST(KernelSourcesTest, AllVariantsAssemble) {
  for (EncodingKind kind : kAllEncodingKinds) {
    if (kind == EncodingKind::kUnrolled) {
      continue;  // per-model codegen, covered by UnrolledKernel* below
    }
    for (int mw : {1, 2}) {
      for (int iw : {1, 2}) {
        for (bool scale : {false, true}) {
          if (kind == EncodingKind::kBlock && (mw != 1 || iw != 1)) {
            continue;
          }
          KernelVariant v;
          v.kind = kind;
          v.meta_width = static_cast<uint8_t>(mw);
          v.idx_width = static_cast<uint8_t>(iw);
          v.has_scale = scale;
          const std::string src = GenerateKernelSource(v);
          const AssembledProgram p = Assemble(src, 0x08000000);
          EXPECT_GT(p.bytes.size(), 40u) << KernelFunctionName(v);
          EXPECT_LT(p.bytes.size(), 1200u) << KernelFunctionName(v);
        }
      }
    }
  }
  KernelVariant dense;
  dense.is_dense = true;
  const AssembledProgram p = Assemble(GenerateKernelSource(dense), 0x08000000);
  EXPECT_GT(p.bytes.size(), 40u);
}

TEST(KernelSourcesTest, ConvKernelAssembles) {
  const AssembledProgram p = Assemble(GenerateConvKernelSource(), 0x08000000);
  EXPECT_GT(p.bytes.size(), 100u);
}

TEST(KernelSetTest, DeduplicatesVariants) {
  KernelVariant a;
  a.kind = EncodingKind::kDelta;
  KernelVariant b = a;
  const KernelVariant variants[] = {a, b, a};
  KernelSet set = KernelSet::Build(variants, 0x08000000);
  // One copy of the kernel only; entry resolvable.
  EXPECT_EQ(set.EntryFor(a), 0x08000000u);
}

TEST(KernelSetTest, VariantNamesAreUnique) {
  std::set<std::string> names;
  for (EncodingKind kind : kAllEncodingKinds) {
    if (kind == EncodingKind::kUnrolled) {
      continue;
    }
    for (int mw : {1, 2}) {
      for (int iw : {1, 2}) {
        for (bool scale : {false, true}) {
          KernelVariant v;
          v.kind = kind;
          v.meta_width = static_cast<uint8_t>(mw);
          v.idx_width = static_cast<uint8_t>(iw);
          v.has_scale = scale;
          names.insert(KernelFunctionName(v));
        }
      }
    }
  }
  // Unrolled kernels are named per model layer, so distinct layers never collide.
  for (int layer : {0, 1, 2}) {
    for (bool scale : {false, true}) {
      KernelVariant v;
      v.kind = EncodingKind::kUnrolled;
      v.unrolled_layer = static_cast<int16_t>(layer);
      v.has_scale = scale;
      names.insert(KernelFunctionName(v));
    }
  }
  EXPECT_EQ(names.size(), 4u * 2 * 2 * 2 + 3u * 2);
}

// ---------------------------------------------------------------------------
// Unrolled per-model codegen.
// ---------------------------------------------------------------------------

TEST(UnrolledKernelTest, GeneratesAndAssembles) {
  Rng rng(321);
  const TernaryMatrix m = TernaryMatrix::Random(300, 24, 0.1, rng);
  const UnrolledEncoding enc(m);
  KernelVariant v;
  v.kind = EncodingKind::kUnrolled;
  v.unrolled_layer = 0;
  v.has_scale = true;
  const std::string src = GenerateUnrolledKernelSource(v, enc);
  const AssembledProgram p = Assemble(src, 0x08000000);
  EXPECT_GT(p.bytes.size(), 100u);
  EXPECT_TRUE(p.symbols.contains("nc_unrolled_l0_s1"));
}

TEST(UnrolledKernelTest, SizeModelPinsAssembledBytes) {
  // The contract that keeps UnrolledEncoding::Sizes() honest: assembled kernel bytes must
  // equal the marginal size model plus the fixed scaffold, for any adjacency.
  Rng rng(987);
  for (const auto& [in, out, density] :
       {std::tuple<size_t, size_t, double>{64, 16, 0.2}, {300, 24, 0.05}, {17, 3, 0.9},
        {784, 32, 0.02}, {40, 8, 0.0}}) {
    for (const bool scale : {false, true}) {
      const TernaryMatrix m = TernaryMatrix::Random(in, out, density, rng);
      const UnrolledEncoding enc(m);
      KernelVariant v;
      v.kind = EncodingKind::kUnrolled;
      v.unrolled_layer = 3;
      v.has_scale = scale;
      const AssembledProgram p = Assemble(GenerateUnrolledKernelSource(v, enc), 0x08000000);
      EXPECT_EQ(p.bytes.size(), enc.Sizes().total() + UnrolledKernelFixedBytes(scale))
          << in << "x" << out << " d=" << density << " scale=" << scale;
    }
  }
}

TEST(UnrolledKernelTest, RoundTripDecode) {
  Rng rng(654);
  const TernaryMatrix m = TernaryMatrix::Random(120, 20, 0.15, rng);
  const UnrolledEncoding enc(m);
  EXPECT_EQ(enc.Decode(), m);
  EXPECT_EQ(enc.NonZeroCount(), m.NonZeroCount());
}

TEST(UnrolledKernelTest, PerLayerKernelsDoNotDeduplicate) {
  // Two unrolled layers with identical shape classes must still get distinct kernels —
  // their instruction streams differ because the adjacencies differ.
  Rng rng(4321);
  SyntheticNeuroCLayerSpec l0;
  l0.in_dim = 48;
  l0.out_dim = 48;
  l0.density = 0.2;
  l0.encoding = EncodingKind::kUnrolled;
  SyntheticNeuroCLayerSpec l1 = l0;
  l1.relu = false;
  std::vector<QuantNeuroCLayer> layers;
  layers.push_back(MakeSyntheticNeuroCLayer(l0, rng));
  layers.push_back(MakeSyntheticNeuroCLayer(l1, rng));
  NeuroCModel model = NeuroCModel::FromLayers(std::move(layers));
  DeployedModel deployed = DeployedModel::Deploy(model);
  const AssembledProgram& p = deployed.kernel_program();
  EXPECT_TRUE(p.symbols.contains("nc_unrolled_l0_s1"));
  EXPECT_TRUE(p.symbols.contains("nc_unrolled_l1_s1"));
  for (int trial = 0; trial < 3; ++trial) {
    const std::vector<int8_t> input = MakeRandomInput(48, rng);
    std::vector<int8_t> expected;
    model.Forward(input, expected);
    deployed.Predict(input);
    EXPECT_EQ(deployed.LastOutput(), expected);
  }
}

// ---------------------------------------------------------------------------
// THE load-bearing property: simulated Thumb kernels match the host reference bit-for-bit.
// ---------------------------------------------------------------------------

struct EquivalenceCase {
  EncodingKind kind;
  size_t in_dim;
  size_t out_dim;
  double density;
  bool has_scale;
  bool relu;
  int shift;
};

class KernelEquivalenceTest : public ::testing::TestWithParam<EquivalenceCase> {};

TEST_P(KernelEquivalenceTest, SimulatorMatchesHostReference) {
  const EquivalenceCase p = GetParam();
  Rng rng(static_cast<uint64_t>(p.in_dim * 131 + p.out_dim * 7 +
                                static_cast<uint64_t>(p.kind) + (p.has_scale ? 1000 : 0)));
  SyntheticNeuroCLayerSpec spec;
  spec.in_dim = p.in_dim;
  spec.out_dim = p.out_dim;
  spec.density = p.density;
  spec.encoding = p.kind;
  spec.has_scale = p.has_scale;
  spec.relu = p.relu;
  spec.requant_shift = p.shift;
  std::vector<QuantNeuroCLayer> layers;
  layers.push_back(MakeSyntheticNeuroCLayer(spec, rng));
  NeuroCModel model = NeuroCModel::FromLayers(std::move(layers));

  DeployedModel deployed = DeployedModel::Deploy(model);
  for (int trial = 0; trial < 5; ++trial) {
    const std::vector<int8_t> input = MakeRandomInput(p.in_dim, rng);
    std::vector<int8_t> expected;
    model.Forward(input, expected);
    deployed.Predict(input);
    const std::vector<int8_t> actual = deployed.LastOutput();
    ASSERT_EQ(actual.size(), expected.size());
    for (size_t i = 0; i < expected.size(); ++i) {
      ASSERT_EQ(actual[i], expected[i])
          << "mismatch at output " << i << " trial " << trial << " kind "
          << EncodingKindName(p.kind);
    }
  }
}

TEST_P(KernelEquivalenceTest, LatencyIsInputIndependent) {
  // The paper's predictability claim: identical cycle count for any input.
  const EquivalenceCase p = GetParam();
  Rng rng(99 + static_cast<uint64_t>(p.kind));
  SyntheticNeuroCLayerSpec spec;
  spec.in_dim = p.in_dim;
  spec.out_dim = p.out_dim;
  spec.density = p.density;
  spec.encoding = p.kind;
  spec.has_scale = p.has_scale;
  spec.relu = p.relu;
  spec.requant_shift = p.shift;
  std::vector<QuantNeuroCLayer> layers;
  layers.push_back(MakeSyntheticNeuroCLayer(spec, rng));
  NeuroCModel model = NeuroCModel::FromLayers(std::move(layers));
  DeployedModel deployed = DeployedModel::Deploy(model);
  deployed.Predict(MakeRandomInput(p.in_dim, rng));
  const uint64_t first = deployed.report().cycles_per_inference;
  for (int trial = 0; trial < 3; ++trial) {
    deployed.Predict(MakeRandomInput(p.in_dim, rng));
    EXPECT_EQ(deployed.report().cycles_per_inference, first);
  }
}

std::vector<EquivalenceCase> EquivalenceCases() {
  std::vector<EquivalenceCase> cases;
  for (EncodingKind kind : kAllEncodingKinds) {
    cases.push_back({kind, 64, 16, 0.2, true, true, 9});
    cases.push_back({kind, 300, 24, 0.1, true, false, 10});   // 16-bit indices
    cases.push_back({kind, 784, 32, 0.05, true, true, 11});   // large sparse
    cases.push_back({kind, 64, 16, 0.2, false, true, 5});     // TNN ablation (no scale)
    cases.push_back({kind, 40, 8, 0.9, true, true, 12});      // dense adjacency
    cases.push_back({kind, 17, 3, 0.5, true, false, 0});      // odd sizes, zero shift
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(AllVariants, KernelEquivalenceTest,
                         ::testing::ValuesIn(EquivalenceCases()));

TEST(KernelEquivalenceTest, MultiLayerNetworkMatchesHost) {
  Rng rng(4242);
  SyntheticNeuroCLayerSpec l0;
  l0.in_dim = 128;
  l0.out_dim = 48;
  l0.density = 0.15;
  l0.encoding = EncodingKind::kBlock;
  SyntheticNeuroCLayerSpec l1 = l0;
  l1.in_dim = 48;
  l1.out_dim = 10;
  l1.relu = false;
  std::vector<QuantNeuroCLayer> layers;
  layers.push_back(MakeSyntheticNeuroCLayer(l0, rng));
  layers.push_back(MakeSyntheticNeuroCLayer(l1, rng));
  NeuroCModel model = NeuroCModel::FromLayers(std::move(layers));
  DeployedModel deployed = DeployedModel::Deploy(model);
  for (int trial = 0; trial < 5; ++trial) {
    const std::vector<int8_t> input = MakeRandomInput(128, rng);
    std::vector<int8_t> expected;
    model.Forward(input, expected);
    const int cls = deployed.Predict(input);
    EXPECT_EQ(cls, model.Predict(input));
    const std::vector<int8_t> actual = deployed.LastOutput();
    for (size_t i = 0; i < expected.size(); ++i) {
      ASSERT_EQ(actual[i], expected[i]);
    }
  }
}

TEST(KernelEquivalenceTest, DenseKernelMatchesHost) {
  Rng rng(777);
  for (auto [in, out] : {std::pair<size_t, size_t>{64, 16}, {100, 10}, {17, 5}}) {
    std::vector<QuantDenseLayer> layers;
    layers.push_back(MakeSyntheticDenseLayer(in, out, true, 10, rng));
    MlpModel model = MlpModel::FromLayers(std::move(layers));
    DeployedModel deployed = DeployedModel::Deploy(model);
    for (int trial = 0; trial < 5; ++trial) {
      const std::vector<int8_t> input = MakeRandomInput(in, rng);
      std::vector<int8_t> expected;
      model.Forward(input, expected);
      deployed.Predict(input);
      const std::vector<int8_t> actual = deployed.LastOutput();
      for (size_t i = 0; i < expected.size(); ++i) {
        ASSERT_EQ(actual[i], expected[i]) << in << "x" << out << " output " << i;
      }
    }
  }
}

TEST(KernelEquivalenceTest, DenseMultiLayerMatchesHost) {
  Rng rng(778);
  std::vector<QuantDenseLayer> layers;
  layers.push_back(MakeSyntheticDenseLayer(96, 32, true, 11, rng));
  layers.push_back(MakeSyntheticDenseLayer(32, 10, false, 11, rng));
  MlpModel model = MlpModel::FromLayers(std::move(layers));
  DeployedModel deployed = DeployedModel::Deploy(model);
  const std::vector<int8_t> input = MakeRandomInput(96, rng);
  std::vector<int8_t> expected;
  model.Forward(input, expected);
  deployed.Predict(input);
  const std::vector<int8_t> actual = deployed.LastOutput();
  for (size_t i = 0; i < expected.size(); ++i) {
    ASSERT_EQ(actual[i], expected[i]);
  }
}

TEST(KernelEquivalenceTest, RandomizedArchitectureSweepMatchesHost) {
  // Differential fuzzing at the model level: random depths, widths, densities, and a
  // DIFFERENT encoding per layer — every sampled architecture must agree with the host
  // reference bit-for-bit on every output.
  Rng rng(0xF00D);
  for (int trial = 0; trial < 12; ++trial) {
    const int depth = static_cast<int>(rng.NextInt(1, 3));
    size_t in_dim = static_cast<size_t>(rng.NextInt(8, 200));
    const size_t first_in = in_dim;
    std::vector<QuantNeuroCLayer> layers;
    for (int d = 0; d < depth; ++d) {
      SyntheticNeuroCLayerSpec spec;
      spec.in_dim = in_dim;
      spec.out_dim = static_cast<size_t>(rng.NextInt(1, 48));
      spec.density = rng.NextUniform(0.02f, 0.9f);
      spec.encoding = kAllEncodingKinds[rng.NextBounded(std::size(kAllEncodingKinds))];
      spec.has_scale = rng.NextBool(0.8);
      spec.relu = d + 1 < depth ? true : rng.NextBool(0.5);
      spec.requant_shift = static_cast<int>(rng.NextInt(0, 14));
      layers.push_back(MakeSyntheticNeuroCLayer(spec, rng));
      in_dim = spec.out_dim;
    }
    NeuroCModel model = NeuroCModel::FromLayers(std::move(layers));
    DeployedModel deployed = DeployedModel::Deploy(model);
    for (int input_trial = 0; input_trial < 3; ++input_trial) {
      const std::vector<int8_t> input = MakeRandomInput(first_in, rng);
      std::vector<int8_t> expected;
      model.Forward(input, expected);
      deployed.Predict(input);
      ASSERT_EQ(deployed.LastOutput(), expected)
          << "trial " << trial << " model " << model.Summary();
    }
  }
}

// ---------------------------------------------------------------------------
// Convolution kernel.
// ---------------------------------------------------------------------------

TEST(ConvKernelTest, SimulatorMatchesHostReference) {
  Rng rng(555);
  for (const ConvLayerSpec spec : {ConvLayerSpec{16, 1, 3, 4, 7}, ConvLayerSpec{8, 2, 3, 3, 8},
                                   ConvLayerSpec{12, 1, 5, 2, 9}}) {
    const int m = spec.input_size - spec.kernel_size + 1;
    const size_t field = static_cast<size_t>(spec.channels) * spec.kernel_size *
                         spec.kernel_size;
    std::vector<int8_t> weights(field * spec.filters);
    for (auto& w : weights) {
      w = static_cast<int8_t>(rng.NextInt(-128, 127));
    }
    std::vector<int32_t> bias(spec.filters);
    for (auto& b : bias) {
      b = static_cast<int32_t>(rng.NextInt(-1000, 1000));
    }
    const std::vector<int8_t> input = MakeRandomInput(
        static_cast<size_t>(spec.channels) * spec.input_size * spec.input_size, rng);

    Machine machine;
    KernelSet kernels = KernelSet::Build({}, 0x08000000, /*include_conv=*/true);
    machine.LoadBytes(0x08000000, kernels.program().bytes);
    const uint32_t data_base = 0x08000000 + ((static_cast<uint32_t>(kernels.code_bytes()) + 3u) & ~3u);
    PackedConvLayer packed = PackConvLayer(machine, spec, weights, bias, data_base, 0x20000000);
    machine.LoadBytes(packed.input_addr,
                      std::span<const uint8_t>(
                          reinterpret_cast<const uint8_t*>(input.data()), input.size()));
    machine.CallFunction(kernels.ConvEntry(), {packed.desc_addr});

    std::vector<int8_t> expected;
    RunConvReference(spec, weights, bias, input, expected);
    std::vector<int8_t> actual(static_cast<size_t>(spec.filters) * m * m);
    machine.memory().HostRead(packed.output_addr,
                              std::span<uint8_t>(reinterpret_cast<uint8_t*>(actual.data()),
                                                 actual.size()));
    for (size_t i = 0; i < expected.size(); ++i) {
      ASSERT_EQ(actual[i], expected[i])
          << "conv mismatch at " << i << " (N=" << spec.input_size << ")";
    }
  }
}

TEST(ConvKernelTest, MaccCountMatchesPaperFormula) {
  ConvLayerSpec spec{16, 1, 3, 8, 7};
  Machine machine;
  std::vector<int8_t> weights(static_cast<size_t>(spec.filters) * spec.kernel_size *
                              spec.kernel_size);
  std::vector<int32_t> bias(spec.filters, 0);
  PackedConvLayer packed =
      PackConvLayer(machine, spec, weights, bias, 0x08001000, 0x20000000);
  // Paper Eq. 7: MACCs = K * C * S^2 * M^2 with M = N - S + 1 = 14.
  EXPECT_EQ(packed.macc_count, 8u * 1 * 9 * 14 * 14);
  EXPECT_EQ(packed.output_size, 14);
}

// ---------------------------------------------------------------------------
// DeployedModel reporting.
// ---------------------------------------------------------------------------

TEST(DeployedModelTest, ReportAccountsCodeImageAndOverhead) {
  Rng rng(12);
  SyntheticNeuroCLayerSpec spec;
  spec.in_dim = 100;
  spec.out_dim = 20;
  std::vector<QuantNeuroCLayer> layers;
  layers.push_back(MakeSyntheticNeuroCLayer(spec, rng));
  NeuroCModel model = NeuroCModel::FromLayers(std::move(layers));
  const size_t estimate = DeployedModel::EstimateProgramBytes(model);
  DeployedModel deployed = DeployedModel::Deploy(model);
  EXPECT_EQ(deployed.report().program_bytes, estimate);
  EXPECT_EQ(deployed.report().program_bytes,
            deployed.report().code_bytes + deployed.report().image_bytes +
                kRuntimeOverheadBytes);
  EXPECT_GT(deployed.report().ram_bytes, 0u);
  deployed.MeasureLatencyMs();
  EXPECT_GT(deployed.report().cycles_per_inference, 0u);
  EXPECT_GT(deployed.report().latency_ms, 0.0);
}

TEST(DeployedModelTest, OversizedModelAbortsAtDeploy) {
  Rng rng(13);
  // Two layers of 16-bit CSC totalling ~140 KB: beyond the 128 KB flash budget.
  SyntheticNeuroCLayerSpec l0;
  l0.in_dim = 700;
  l0.out_dim = 460;
  l0.density = 0.12;
  l0.encoding = EncodingKind::kCsc;
  SyntheticNeuroCLayerSpec l1 = l0;
  l1.in_dim = 460;
  l1.out_dim = 460;
  l1.density = 0.15;
  std::vector<QuantNeuroCLayer> layers;
  layers.push_back(MakeSyntheticNeuroCLayer(l0, rng));
  layers.push_back(MakeSyntheticNeuroCLayer(l1, rng));
  NeuroCModel model = NeuroCModel::FromLayers(std::move(layers));
  EXPECT_GT(DeployedModel::EstimateProgramBytes(model), 128u * 1024);
  EXPECT_DEATH(DeployedModel::Deploy(model), "does not fit program memory");
}

TEST(DeployedModelTest, ScaleRemovalShrinksFootprintAndLatencyMarginally) {
  // The paper's Fig. 8b/8c finding in miniature: removing w_j saves <1 ms and only a few
  // hundred bytes.
  Rng rng(14);
  SyntheticNeuroCLayerSpec spec;
  spec.in_dim = 784;
  spec.out_dim = 128;
  spec.density = 0.12;
  SyntheticNeuroCLayerSpec tnn = spec;
  tnn.has_scale = false;
  std::vector<QuantNeuroCLayer> a;
  a.push_back(MakeSyntheticNeuroCLayer(spec, rng));
  std::vector<QuantNeuroCLayer> b;
  b.push_back(MakeSyntheticNeuroCLayer(tnn, rng));
  NeuroCModel scaled = NeuroCModel::FromLayers(std::move(a));
  NeuroCModel plain = NeuroCModel::FromLayers(std::move(b));
  DeployedModel ds = DeployedModel::Deploy(scaled);
  DeployedModel dp = DeployedModel::Deploy(plain);
  const double ls = ds.MeasureLatencyMs();
  const double lp = dp.MeasureLatencyMs();
  EXPECT_LT(lp, ls);
  EXPECT_LT(ls - lp, 1.0);  // < 1 ms
  EXPECT_LT(dp.report().program_bytes, ds.report().program_bytes);
  EXPECT_LT(ds.report().program_bytes - dp.report().program_bytes, 600u);
}

}  // namespace
}  // namespace neuroc
