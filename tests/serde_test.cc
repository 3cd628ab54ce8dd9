#include <gtest/gtest.h>

#include <cstdio>

#include "src/core/model_serde.h"
#include "src/core/synthetic.h"

namespace neuroc {
namespace {

NeuroCModel MakeModel(uint64_t seed, EncodingKind kind, bool with_scale = true) {
  Rng rng(seed);
  SyntheticNeuroCLayerSpec l0;
  l0.in_dim = 96;
  l0.out_dim = 32;
  l0.density = 0.18;
  l0.encoding = kind;
  l0.has_scale = with_scale;
  SyntheticNeuroCLayerSpec l1 = l0;
  l1.in_dim = 32;
  l1.out_dim = 10;
  l1.relu = false;
  std::vector<QuantNeuroCLayer> layers;
  layers.push_back(MakeSyntheticNeuroCLayer(l0, rng));
  layers.push_back(MakeSyntheticNeuroCLayer(l1, rng));
  return NeuroCModel::FromLayers(std::move(layers));
}

class SerdeEncodingTest : public ::testing::TestWithParam<EncodingKind> {};

TEST_P(SerdeEncodingTest, NeuroCRoundTripPreservesPredictions) {
  NeuroCModel model = MakeModel(11 + static_cast<uint64_t>(GetParam()), GetParam());
  const std::vector<uint8_t> bytes = SerializeModel(model);
  auto loaded = DeserializeNeuroCModel(bytes);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->layers().size(), model.layers().size());
  EXPECT_EQ(loaded->WeightBytes(), model.WeightBytes());
  Rng rng(5);
  for (int t = 0; t < 20; ++t) {
    const std::vector<int8_t> input = MakeRandomInput(model.in_dim(), rng);
    std::vector<int8_t> a, b;
    model.Forward(input, a);
    loaded->Forward(input, b);
    ASSERT_EQ(a, b) << "trial " << t;
  }
}

TEST_P(SerdeEncodingTest, RoundTripPreservesLayerMetadata) {
  NeuroCModel model = MakeModel(23, GetParam());
  auto loaded = DeserializeNeuroCModel(SerializeModel(model));
  ASSERT_TRUE(loaded.has_value());
  for (size_t k = 0; k < model.layers().size(); ++k) {
    const auto& a = model.layers()[k];
    const auto& b = loaded->layers()[k];
    EXPECT_EQ(a.in_dim, b.in_dim);
    EXPECT_EQ(a.out_dim, b.out_dim);
    EXPECT_EQ(a.encoding->kind(), b.encoding->kind());
    EXPECT_EQ(a.in_frac, b.in_frac);
    EXPECT_EQ(a.out_frac, b.out_frac);
    EXPECT_EQ(a.scale_frac, b.scale_frac);
    EXPECT_EQ(a.requant_shift, b.requant_shift);
    EXPECT_EQ(a.relu, b.relu);
    EXPECT_EQ(a.scale_q, b.scale_q);
    EXPECT_EQ(a.bias_q, b.bias_q);
    EXPECT_TRUE(a.encoding->Decode() == b.encoding->Decode());
  }
}

INSTANTIATE_TEST_SUITE_P(AllEncodings, SerdeEncodingTest,
                         ::testing::ValuesIn(std::vector<EncodingKind>(
                             std::begin(kAllEncodingKinds), std::end(kAllEncodingKinds))));

TEST(SerdeTest, TnnVariantRoundTrips) {
  NeuroCModel model = MakeModel(31, EncodingKind::kBlock, /*with_scale=*/false);
  auto loaded = DeserializeNeuroCModel(SerializeModel(model));
  ASSERT_TRUE(loaded.has_value());
  EXPECT_FALSE(loaded->layers()[0].has_scale());
}

TEST(SerdeTest, MlpRoundTripPreservesPredictions) {
  Rng rng(7);
  std::vector<QuantDenseLayer> layers;
  layers.push_back(MakeSyntheticDenseLayer(48, 24, true, 10, rng));
  layers.push_back(MakeSyntheticDenseLayer(24, 10, false, 10, rng));
  MlpModel model = MlpModel::FromLayers(std::move(layers));
  auto loaded = DeserializeMlpModel(SerializeModel(model));
  ASSERT_TRUE(loaded.has_value());
  for (int t = 0; t < 20; ++t) {
    const std::vector<int8_t> input = MakeRandomInput(48, rng);
    EXPECT_EQ(model.Predict(input), loaded->Predict(input));
  }
}

TEST(SerdeTest, RejectsWrongMagic) {
  NeuroCModel model = MakeModel(3, EncodingKind::kCsc);
  std::vector<uint8_t> bytes = SerializeModel(model);
  bytes[0] ^= 0xFF;
  EXPECT_FALSE(DeserializeNeuroCModel(bytes).has_value());
  // A NeuroC blob is not an MLP blob.
  bytes[0] ^= 0xFF;
  EXPECT_FALSE(DeserializeMlpModel(bytes).has_value());
}

TEST(SerdeTest, RejectsTruncation) {
  NeuroCModel model = MakeModel(4, EncodingKind::kDelta);
  const std::vector<uint8_t> bytes = SerializeModel(model);
  for (size_t cut : {size_t{3}, size_t{8}, bytes.size() / 2, bytes.size() - 1}) {
    std::vector<uint8_t> truncated(bytes.begin(), bytes.begin() + static_cast<long>(cut));
    EXPECT_FALSE(DeserializeNeuroCModel(truncated).has_value()) << "cut at " << cut;
  }
}

TEST(SerdeTest, RejectsTrailingGarbage) {
  NeuroCModel model = MakeModel(5, EncodingKind::kMixed);
  std::vector<uint8_t> bytes = SerializeModel(model);
  bytes.push_back(0xAB);
  EXPECT_FALSE(DeserializeNeuroCModel(bytes).has_value());
}

TEST(SerdeTest, RejectsEmptyInput) {
  EXPECT_FALSE(DeserializeNeuroCModel({}).has_value());
  EXPECT_FALSE(DeserializeMlpModel({}).has_value());
}

TEST(SerdeTest, FuzzRandomBytesNeverCrash) {
  Rng rng(99);
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<uint8_t> junk(rng.NextBounded(256));
    for (auto& b : junk) {
      b = static_cast<uint8_t>(rng.NextBounded(256));
    }
    // Must return nullopt or a valid model, never crash.
    auto m = DeserializeNeuroCModel(junk);
    auto m2 = DeserializeMlpModel(junk);
    (void)m;
    (void)m2;
  }
}

TEST(SerdeTest, FuzzBitFlippedValidBlobsNeverCrash) {
  NeuroCModel model = MakeModel(6, EncodingKind::kBlock);
  const std::vector<uint8_t> bytes = SerializeModel(model);
  Rng rng(123);
  for (int trial = 0; trial < 300; ++trial) {
    std::vector<uint8_t> mutated = bytes;
    const size_t pos = rng.NextBounded(mutated.size());
    mutated[pos] ^= static_cast<uint8_t>(1u << rng.NextBounded(8));
    auto m = DeserializeNeuroCModel(mutated);
    if (m.has_value()) {
      // If it still parses, it must at least be structurally sound.
      EXPECT_GT(m->layers().size(), 0u);
    }
  }
}

TEST(SerdeTest, FileSaveLoadRoundTrip) {
  NeuroCModel model = MakeModel(8, EncodingKind::kBlock);
  const std::string path = ::testing::TempDir() + "/neuroc_model.bin";
  ASSERT_TRUE(SaveModel(model, path));
  auto loaded = LoadNeuroCModel(path);
  ASSERT_TRUE(loaded.has_value());
  Rng rng(1);
  const std::vector<int8_t> input = MakeRandomInput(model.in_dim(), rng);
  EXPECT_EQ(model.Predict(input), loaded->Predict(input));
  std::remove(path.c_str());
  EXPECT_FALSE(LoadNeuroCModel(path).has_value());
}

TEST(SerdeTest, SaveToUnwritablePathFails) {
  NeuroCModel model = MakeModel(9, EncodingKind::kCsc);
  EXPECT_FALSE(SaveModel(model, "/nonexistent_dir_xyz/model.bin"));
}

// Rewrites a serialized v2 blob ("NCM2"/"MLM2" + CRC trailer) into its legacy v1 shape:
// same body, v1 magic, no trailer. Exercises the parser's per-section diagnostics, which
// on v2 blobs are shadowed by the whole-file CRC check.
void ToLegacyV1(std::vector<uint8_t>& bytes) {
  const size_t size = bytes.size();
  ASSERT_GE(size, 8u);
  ASSERT_EQ(bytes[3], '2');
  bytes[3] = '1';
  bytes.resize(size - 4);  // drop the CRC trailer
}

TEST(SerdeStructuredErrorTest, WrongMagicIsMalformedImage) {
  NeuroCModel model = MakeModel(41, EncodingKind::kCsc);
  std::vector<uint8_t> bytes = SerializeModel(model);
  bytes[0] ^= 0xFF;
  StatusOr<NeuroCModel> loaded = DeserializeNeuroCModel(bytes);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), ErrorCode::kMalformedImage);
  EXPECT_NE(loaded.status().ToString().find("bad magic"), std::string::npos);
  // A NeuroC blob fed to the MLP loader is the same class of error.
  bytes[0] ^= 0xFF;
  EXPECT_EQ(DeserializeMlpModel(bytes).status().code(), ErrorCode::kMalformedImage);
}

TEST(SerdeStructuredErrorTest, CrcTrailerCatchesEverySingleBitFlip) {
  // The v2 trailer digests the whole file: every single-bit corruption of a valid blob
  // must be rejected with a structured code — kMalformedImage when the magic itself is
  // hit, kIntegrityFailure everywhere else. Exhaustive over the full blob.
  NeuroCModel model = MakeModel(42, EncodingKind::kMixed);
  const std::vector<uint8_t> bytes = SerializeModel(model);
  for (size_t pos = 0; pos < bytes.size(); ++pos) {
    for (int bit = 0; bit < 8; ++bit) {
      std::vector<uint8_t> mutated = bytes;
      mutated[pos] ^= static_cast<uint8_t>(1u << bit);
      StatusOr<NeuroCModel> loaded = DeserializeNeuroCModel(mutated);
      ASSERT_FALSE(loaded.ok()) << "flip at byte " << pos << " bit " << bit;
      const ErrorCode code = loaded.status().code();
      if (pos < 4) {
        EXPECT_EQ(code, ErrorCode::kMalformedImage) << "magic flip at bit " << bit;
      } else {
        EXPECT_EQ(code, ErrorCode::kIntegrityFailure)
            << "flip at byte " << pos << " bit " << bit;
      }
    }
  }
}

TEST(SerdeStructuredErrorTest, TruncationOfV2BlobIsCaught) {
  NeuroCModel model = MakeModel(43, EncodingKind::kDelta);
  const std::vector<uint8_t> bytes = SerializeModel(model);
  for (size_t cut = 0; cut < bytes.size(); ++cut) {
    std::vector<uint8_t> truncated(bytes.begin(), bytes.begin() + static_cast<long>(cut));
    StatusOr<NeuroCModel> loaded = DeserializeNeuroCModel(truncated);
    ASSERT_FALSE(loaded.ok()) << "cut at " << cut;
    // Below 8 bytes there is no complete magic+trailer: malformed. From there on the
    // trailing 4 bytes parse as a CRC that cannot match the shortened body.
    EXPECT_EQ(loaded.status().code(),
              cut < 8 ? ErrorCode::kMalformedImage : ErrorCode::kIntegrityFailure)
        << "cut at " << cut;
  }
}

TEST(SerdeStructuredErrorTest, LegacyV1BlobLoadsWithoutTrailer) {
  NeuroCModel model = MakeModel(44, EncodingKind::kBlock);
  std::vector<uint8_t> v1 = SerializeModel(model);
  ASSERT_NO_FATAL_FAILURE(ToLegacyV1(v1));
  StatusOr<NeuroCModel> loaded = DeserializeNeuroCModel(v1);
  ASSERT_TRUE(loaded.ok());
  Rng rng(2);
  const std::vector<int8_t> input = MakeRandomInput(model.in_dim(), rng);
  EXPECT_EQ(model.Predict(input), loaded->Predict(input));
}

TEST(SerdeStructuredErrorTest, V1TruncationAtEveryOffsetIsMalformed) {
  // Without the CRC shield, every truncation point must still land in a structured
  // kMalformedImage ("truncated scale array", "truncated weight matrix", ...) — the
  // parser bounds-checks every section read.
  NeuroCModel model = MakeModel(45, EncodingKind::kCsc);
  std::vector<uint8_t> v1 = SerializeModel(model);
  ASSERT_NO_FATAL_FAILURE(ToLegacyV1(v1));
  for (size_t cut = 0; cut < v1.size(); ++cut) {
    std::vector<uint8_t> truncated(v1.begin(), v1.begin() + static_cast<long>(cut));
    StatusOr<NeuroCModel> loaded = DeserializeNeuroCModel(truncated);
    ASSERT_FALSE(loaded.ok()) << "cut at " << cut;
    EXPECT_EQ(loaded.status().code(), ErrorCode::kMalformedImage) << "cut at " << cut;
  }
}

TEST(SerdeStructuredErrorTest, V1HeaderFieldCorruptionNamesTheSection) {
  NeuroCModel model = MakeModel(46, EncodingKind::kCsc);
  std::vector<uint8_t> v1 = SerializeModel(model);
  ASSERT_NO_FATAL_FAILURE(ToLegacyV1(v1));
  // Layer count word (offset 4): zero and absurd values are both "bad layer count".
  for (uint32_t count : {0u, 0xFFFFu}) {
    std::vector<uint8_t> mutated = v1;
    for (int i = 0; i < 4; ++i) {
      mutated[4 + i] = static_cast<uint8_t>((count >> (8 * i)) & 0xFF);
    }
    StatusOr<NeuroCModel> loaded = DeserializeNeuroCModel(mutated);
    ASSERT_FALSE(loaded.ok());
    EXPECT_NE(loaded.status().ToString().find("bad layer count"), std::string::npos);
  }
  // First layer's in_dim (offset 8): a zero dimension is a "bad layer header".
  std::vector<uint8_t> mutated = v1;
  mutated[8] = mutated[9] = mutated[10] = mutated[11] = 0;
  StatusOr<NeuroCModel> loaded = DeserializeNeuroCModel(mutated);
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().ToString().find("bad layer header"), std::string::npos);
}

TEST(SerdeStructuredErrorTest, MissingFileIsIoError) {
  StatusOr<NeuroCModel> loaded = LoadNeuroCModel("/nonexistent_dir_xyz/model.bin");
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), ErrorCode::kIoError);
  EXPECT_EQ(LoadMlpModel("/nonexistent_dir_xyz/model.bin").status().code(),
            ErrorCode::kIoError);
}

}  // namespace
}  // namespace neuroc
