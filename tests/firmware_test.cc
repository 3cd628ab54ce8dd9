#include <gtest/gtest.h>

#include "src/common/thread_pool.h"
#include "src/core/synthetic.h"
#include "src/runtime/firmware_image.h"
#include "src/runtime/profile.h"
#include "src/data/synth.h"
#include "src/runtime/search.h"
#include "tests/test_util.h"

namespace neuroc {
namespace {

TEST(IntelHexTest, EmitsEofRecord) {
  const std::string hex = EmitIntelHex({});
  EXPECT_EQ(hex, ":00000001FF\n");
}

TEST(IntelHexTest, SingleChunkRoundTrip) {
  FirmwareChunk chunk;
  chunk.addr = 0x08000000;
  for (int i = 0; i < 100; ++i) {
    chunk.bytes.push_back(static_cast<uint8_t>(i * 7));
  }
  const std::vector<FirmwareChunk> chunks{chunk};
  const std::string hex = EmitIntelHex(chunks);
  auto parsed = ParseIntelHex(hex);
  ASSERT_TRUE(parsed.has_value());
  ASSERT_EQ(parsed->size(), 1u);
  EXPECT_EQ((*parsed)[0].addr, 0x08000000u);
  EXPECT_EQ((*parsed)[0].bytes, chunk.bytes);
}

TEST(IntelHexTest, MultiChunkRoundTripSorted) {
  FirmwareChunk a{0x08002000, {1, 2, 3}};
  FirmwareChunk b{0x08000000, {9, 8, 7, 6}};
  const std::vector<FirmwareChunk> chunks{a, b};
  auto parsed = ParseIntelHex(EmitIntelHex(chunks));
  ASSERT_TRUE(parsed.has_value());
  ASSERT_EQ(parsed->size(), 2u);
  EXPECT_EQ((*parsed)[0].addr, 0x08000000u);
  EXPECT_EQ((*parsed)[1].addr, 0x08002000u);
  EXPECT_EQ((*parsed)[0].bytes, b.bytes);
  EXPECT_EQ((*parsed)[1].bytes, a.bytes);
}

TEST(IntelHexTest, CrossesSegmentBoundaryWithElaRecords) {
  // Data spanning a 64 KiB boundary must be split with a new type-04 record.
  FirmwareChunk chunk;
  chunk.addr = 0x0800FFF8;
  for (int i = 0; i < 32; ++i) {
    chunk.bytes.push_back(static_cast<uint8_t>(i));
  }
  const std::vector<FirmwareChunk> chunks{chunk};
  const std::string hex = EmitIntelHex(chunks);
  // Two ELA records: 0x0800 and 0x0801.
  EXPECT_NE(hex.find(":020000040800F2"), std::string::npos);
  EXPECT_NE(hex.find(":020000040801F1"), std::string::npos);
  auto parsed = ParseIntelHex(hex);
  ASSERT_TRUE(parsed.has_value());
  ASSERT_EQ(parsed->size(), 1u);  // merged back into one contiguous chunk
  EXPECT_EQ((*parsed)[0].addr, chunk.addr);
  EXPECT_EQ((*parsed)[0].bytes, chunk.bytes);
}

TEST(IntelHexTest, ChecksumValidation) {
  const std::vector<FirmwareChunk> cs{{0x08000000, {0xAA, 0xBB}}};
  std::string hex = EmitIntelHex(cs);
  // Corrupt one data nibble: checksum must fail.
  const size_t pos = hex.find("AABB");
  ASSERT_NE(pos, std::string::npos);
  hex[pos] = hex[pos] == 'A' ? 'B' : 'A';
  EXPECT_FALSE(ParseIntelHex(hex).has_value());
}

TEST(IntelHexTest, RejectsGarbage) {
  EXPECT_FALSE(ParseIntelHex("hello world").has_value());
  EXPECT_FALSE(ParseIntelHex(":zz").has_value());
  EXPECT_FALSE(ParseIntelHex("").has_value());  // no EOF record
}

TEST(IntelHexTest, KnownRecordBytes) {
  // 4 bytes {01,02,03,04} at address 0x0010:
  // checksum = -(0x04 + 0x00 + 0x10 + 0x00 + 0x01 + 0x02 + 0x03 + 0x04) = 0xE2.
  const std::vector<FirmwareChunk> cs{{0x00000010, {1, 2, 3, 4}}};
  const std::string hex = EmitIntelHex(cs);
  EXPECT_NE(hex.find(":0400100001020304E2"), std::string::npos) << hex;
}

TEST(FirmwareTest, ModelFirmwareMatchesSimulatorMemory) {
  // The emitted firmware, parsed back, must reproduce the exact flash content the
  // DeployedModel path creates, in every encoding (unrolled kernels are built per model).
  for (const EncodingKind kind : kAllEncodingKinds) {
    SCOPED_TRACE(EncodingKindName(kind));
    testutil::TestModelSpec spec;
    spec.dims = {64, 16};
    spec.encoding = kind;
    spec.final_relu = true;
    NeuroCModel model = testutil::MakeTestModel(21, spec);

    const std::string hex = FirmwareHex(DeployedModel::Program(model, MachineConfig{}));
    auto chunks = ParseIntelHex(hex);
    ASSERT_TRUE(chunks.has_value());
    ASSERT_GE(chunks->size(), 1u);

    DeployedModel deployed = DeployedModel::Deploy(model);
    size_t bytes = 0;
    for (const FirmwareChunk& chunk : *chunks) {
      std::vector<uint8_t> actual(chunk.bytes.size());
      deployed.machine().memory().HostRead(chunk.addr, actual);
      EXPECT_EQ(actual, chunk.bytes) << "chunk at 0x" << std::hex << chunk.addr;
      bytes += chunk.bytes.size();
    }
    // Everything the deployment loaded, kernels and image, is in the firmware.
    EXPECT_EQ(bytes, deployed.report().code_bytes + deployed.report().image_bytes);
  }
}

TEST(ProfileTest, CategoriesSumToInstructionCount) {
  testutil::TestModelSpec spec;
  spec.dims = {128, 32};
  spec.density = 0.15;
  spec.final_relu = true;
  NeuroCModel model = testutil::MakeTestModel(22, spec);
  DeployedModel deployed = DeployedModel::Deploy(model);
  const ExecutionProfile p = ProfileInference(deployed);
  EXPECT_GT(p.instructions, 0u);
  EXPECT_EQ(p.loads + p.stores + p.alu + p.multiplies + p.branches + p.stack_ops,
            p.instructions);
  EXPECT_GT(p.CyclesPerInstruction(), 1.0);
  EXPECT_LT(p.CyclesPerInstruction(), 3.0);
  // One multiply per output neuron (the per-neuron scale) — the MAC-free property.
  EXPECT_EQ(p.multiplies, 32u);
  const std::string report = FormatProfile(p);
  EXPECT_NE(report.find("CPI"), std::string::npos);
}

TEST(ProfileTest, MlpIsMultiplyHeavyNeuroCIsNot) {
  // The paper's core claim, measured at the instruction level: the dense MLP executes one
  // multiply per connection, Neuro-C one per neuron.
  Rng rng(23);
  std::vector<QuantDenseLayer> dense;
  dense.push_back(MakeSyntheticDenseLayer(128, 32, true, 10, rng));
  MlpModel mlp = MlpModel::FromLayers(std::move(dense));
  DeployedModel dm = DeployedModel::Deploy(mlp);
  const ExecutionProfile mp = ProfileInference(dm);
  EXPECT_EQ(mp.multiplies, 128u * 32u);

  SyntheticNeuroCLayerSpec spec;
  spec.in_dim = 128;
  spec.out_dim = 32;
  spec.density = 0.15;
  std::vector<QuantNeuroCLayer> layers;
  layers.push_back(MakeSyntheticNeuroCLayer(spec, rng));
  NeuroCModel nc = NeuroCModel::FromLayers(std::move(layers));
  DeployedModel dn = DeployedModel::Deploy(nc);
  const ExecutionProfile np = ProfileInference(dn);
  EXPECT_EQ(np.multiplies, 32u);
  EXPECT_LT(np.multiplies * 100, mp.multiplies);
}

TEST(SearchTest, FindsFeasibleConfigurationsOnDigits) {
  Dataset all = MakeDigits8x8(800, 5);
  Rng rng(6);
  auto [train, test] = all.Split(0.25, rng);
  SearchSpace space;
  space.width_choices = {16, 32};
  space.max_hidden_layers = 1;
  space.density_choices = {0.1f, 0.2f};
  TrainConfig cfg;
  cfg.epochs = 4;
  cfg.batch_size = 32;
  cfg.learning_rate = 3e-3f;
  const SearchResult result = RandomSearch(train, test, space, {}, 4, cfg, 77);
  EXPECT_EQ(result.candidates.size(), 4u);
  ASSERT_GE(result.best, 0);
  const SearchCandidate& best = result.candidates[static_cast<size_t>(result.best)];
  EXPECT_TRUE(best.feasible);
  EXPECT_GT(best.accuracy, 0.5f);
  EXPECT_LE(best.program_bytes, 128u * 1024);
  EXPECT_FALSE(result.pareto.empty());
}

TEST(SearchTest, ParetoFrontIsMonotone) {
  Dataset all = MakeDigits8x8(800, 6);
  Rng rng(7);
  auto [train, test] = all.Split(0.25, rng);
  SearchSpace space;
  space.width_choices = {8, 16, 32, 64};
  space.max_hidden_layers = 1;
  space.density_choices = {0.1f, 0.25f};
  TrainConfig cfg;
  cfg.epochs = 4;
  cfg.batch_size = 32;
  cfg.learning_rate = 3e-3f;
  const SearchResult result = RandomSearch(train, test, space, {}, 6, cfg, 99);
  // Along the Pareto front: bytes ascend, accuracy strictly ascends.
  for (size_t i = 1; i < result.pareto.size(); ++i) {
    const auto& prev = result.candidates[result.pareto[i - 1]];
    const auto& cur = result.candidates[result.pareto[i]];
    EXPECT_LE(prev.program_bytes, cur.program_bytes);
    EXPECT_LT(prev.accuracy, cur.accuracy);
  }
}

TEST(SearchTest, LatencyConstraintFiltersCandidates) {
  Dataset all = MakeDigits8x8(600, 8);
  Rng rng(9);
  auto [train, test] = all.Split(0.25, rng);
  SearchSpace space;
  space.width_choices = {64};
  space.max_hidden_layers = 1;
  space.density_choices = {0.3f};
  TrainConfig cfg;
  cfg.epochs = 2;
  cfg.batch_size = 32;
  SearchConstraints constraints;
  constraints.max_latency_ms = 0.001;  // impossible
  const SearchResult result = RandomSearch(train, test, space, constraints, 1, cfg, 3);
  EXPECT_EQ(result.best, -1);
  EXPECT_TRUE(result.pareto.empty());
  EXPECT_FALSE(result.candidates[0].feasible);
}

// Trials run on the shared pool with per-trial RNG streams and slot-addressed results, so
// the full SearchResult must be byte-identical no matter how many workers execute it.
TEST(SearchTest, ResultsByteIdenticalAcrossThreadCounts) {
  Dataset all = MakeDigits8x8(500, 11);
  Rng rng(12);
  auto [train, test] = all.Split(0.25, rng);
  SearchSpace space;
  space.width_choices = {16, 32};
  space.max_hidden_layers = 1;
  space.density_choices = {0.1f, 0.2f};
  TrainConfig cfg;
  cfg.epochs = 2;
  cfg.batch_size = 32;
  cfg.learning_rate = 3e-3f;

  auto run = [&](unsigned threads) {
    ThreadPool::SetGlobalThreads(threads);
    return RandomSearch(train, test, space, {}, 4, cfg, 123);
  };
  const SearchResult seq = run(1);
  const SearchResult par = run(4);
  ThreadPool::SetGlobalThreads(DefaultThreadCount());

  ASSERT_EQ(seq.candidates.size(), par.candidates.size());
  for (size_t i = 0; i < seq.candidates.size(); ++i) {
    const SearchCandidate& a = seq.candidates[i];
    const SearchCandidate& b = par.candidates[i];
    EXPECT_EQ(a.description, b.description) << i;
    EXPECT_EQ(a.spec.hidden, b.spec.hidden) << i;
    EXPECT_EQ(a.accuracy, b.accuracy) << i;  // bitwise: training is thread-invariant
    EXPECT_EQ(a.program_bytes, b.program_bytes) << i;
    EXPECT_EQ(a.latency_ms, b.latency_ms) << i;
    EXPECT_EQ(a.feasible, b.feasible) << i;
  }
  EXPECT_EQ(seq.pareto, par.pareto);
  EXPECT_EQ(seq.best, par.best);
}

}  // namespace
}  // namespace neuroc
