#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <set>

#include "src/data/dataset.h"
#include "src/data/idx_loader.h"
#include "src/data/raster.h"
#include "src/data/stroke_font.h"
#include "src/data/synth.h"

namespace neuroc {
namespace {

TEST(RasterTest, ClearAndPixelAccess) {
  Raster r(4, 4);
  r.Clear(0.5f);
  EXPECT_EQ(r.px(0, 0), 0.5f);
  r.px(3, 3) = 1.0f;
  EXPECT_EQ(r.px(3, 3), 1.0f);
}

TEST(RasterTest, SplatPointMarksCenter) {
  Raster r(9, 9);
  r.SplatPoint({0.5f, 0.5f}, 0.1f, 1.0f);
  EXPECT_GT(r.px(4, 4), 0.5f);
  EXPECT_EQ(r.px(0, 0), 0.0f);
}

TEST(RasterTest, DrawPolylineCoversEndpoints) {
  Raster r(16, 16);
  const Vec2 pts[2] = {{0.1f, 0.5f}, {0.9f, 0.5f}};
  r.DrawPolyline(pts, 0.08f, 1.0f);
  EXPECT_GT(r.px(2, 8), 0.3f);
  EXPECT_GT(r.px(13, 8), 0.3f);
  EXPECT_EQ(r.px(8, 1), 0.0f);  // far from the line
}

TEST(RasterTest, FillRectFillsInterior) {
  Raster r(10, 10);
  r.FillRect({0.2f, 0.2f}, {0.8f, 0.8f}, 1.0f);
  EXPECT_EQ(r.px(5, 5), 1.0f);
  EXPECT_EQ(r.px(0, 0), 0.0f);
}

TEST(RasterTest, FillEllipseRespectsRadii) {
  Raster r(20, 20);
  r.FillEllipse({0.5f, 0.5f}, 0.4f, 0.15f, 1.0f);
  EXPECT_EQ(r.px(10, 10), 1.0f);
  // Inside horizontally, outside vertically.
  EXPECT_EQ(r.px(10, 2), 0.0f);
}

TEST(RasterTest, AffineTranslationMovesShape) {
  Raster a(16, 16), b(16, 16);
  a.FillRect({0.4f, 0.4f}, {0.6f, 0.6f}, 1.0f);
  const Affine shift = Affine::Compose(0, 1, 1, 0, {0.25f, 0.0f});
  b.FillRect({0.4f, 0.4f}, {0.6f, 0.6f}, 1.0f, shift);
  EXPECT_EQ(a.px(8, 8), 1.0f);
  EXPECT_EQ(b.px(8 + 4, 8), 1.0f);
  EXPECT_EQ(b.px(8 - 3, 8), 0.0f);
}

TEST(RasterTest, Clamp01Bounds) {
  Raster r(4, 4);
  Rng rng(1);
  r.AddGaussianNoise(rng, 3.0f);
  r.Clamp01();
  for (float v : r.pixels()) {
    EXPECT_GE(v, 0.0f);
    EXPECT_LE(v, 1.0f);
  }
}

TEST(StrokeFontTest, AllDigitsRenderNonEmpty) {
  for (int d = 0; d <= 9; ++d) {
    Raster r(16, 16);
    RenderGlyph(DigitGlyph(d), r, Affine::Identity(), 0.08f, 1.0f);
    float total = 0.0f;
    for (float v : r.pixels()) {
      total += v;
    }
    EXPECT_GT(total, 2.0f) << "digit " << d << " rendered almost nothing";
  }
}

TEST(StrokeFontTest, DigitsAreVisuallyDistinct) {
  // Pairwise pixel distance between rendered digits should be nonzero.
  std::vector<Raster> rendered;
  for (int d = 0; d <= 9; ++d) {
    Raster r(16, 16);
    RenderGlyph(DigitGlyph(d), r, Affine::Identity(), 0.08f, 1.0f);
    rendered.push_back(r);
  }
  for (int a = 0; a < 10; ++a) {
    for (int b = a + 1; b < 10; ++b) {
      float dist = 0.0f;
      for (int i = 0; i < 16 * 16; ++i) {
        const float d = rendered[a].pixels()[i] - rendered[b].pixels()[i];
        dist += d * d;
      }
      EXPECT_GT(dist, 1.0f) << "digits " << a << " and " << b << " look identical";
    }
  }
}

class SynthDatasetTest : public ::testing::TestWithParam<int> {
 protected:
  Dataset Make(size_t n, uint64_t seed) {
    switch (GetParam()) {
      case 0:
        return MakeDigits8x8(n, seed);
      case 1:
        return MakeMnistLike(n, seed);
      case 2:
        return MakeFashionLike(n, seed);
      case 3:
        return MakeCifar5Like(n, seed);
      default:
        return MakeEventDetection(n, seed);
    }
  }
};

TEST_P(SynthDatasetTest, ShapesAndRanges) {
  Dataset ds = Make(64, 7);
  ds.Validate();
  EXPECT_EQ(ds.num_examples(), 64u);
  EXPECT_EQ(ds.images.cols(), ds.input_dim());
  for (float v : ds.images.flat()) {
    EXPECT_GE(v, 0.0f);
    EXPECT_LE(v, 1.0f);
  }
}

TEST_P(SynthDatasetTest, DeterministicFromSeed) {
  Dataset a = Make(16, 99);
  Dataset b = Make(16, 99);
  EXPECT_EQ(a.labels, b.labels);
  for (size_t i = 0; i < a.images.size(); ++i) {
    EXPECT_EQ(a.images[i], b.images[i]);
  }
}

TEST_P(SynthDatasetTest, DifferentSeedsDiffer) {
  Dataset a = Make(16, 1);
  Dataset b = Make(16, 2);
  float diff = 0.0f;
  for (size_t i = 0; i < a.images.size(); ++i) {
    diff += std::abs(a.images[i] - b.images[i]);
  }
  EXPECT_GT(diff, 1.0f);
}

TEST_P(SynthDatasetTest, AllClassesPresent) {
  Dataset ds = Make(400, 3);
  std::set<int> classes(ds.labels.begin(), ds.labels.end());
  EXPECT_EQ(static_cast<int>(classes.size()), ds.num_classes);
}

INSTANTIATE_TEST_SUITE_P(AllGenerators, SynthDatasetTest, ::testing::Values(0, 1, 2, 3, 4));

TEST(DatasetTest, SubsetSelectsRows) {
  Dataset ds = MakeDigits8x8(20, 5);
  Dataset sub = ds.Subset({3, 7, 11});
  EXPECT_EQ(sub.num_examples(), 3u);
  EXPECT_EQ(sub.labels[1], ds.labels[7]);
  for (size_t c = 0; c < ds.input_dim(); ++c) {
    EXPECT_EQ(sub.images.at(0, c), ds.images.at(3, c));
  }
}

TEST(DatasetTest, SplitPartitionsAllExamples) {
  Dataset ds = MakeDigits8x8(100, 5);
  Rng rng(1);
  auto [train, test] = ds.Split(0.25, rng);
  EXPECT_EQ(test.num_examples(), 25u);
  EXPECT_EQ(train.num_examples(), 75u);
}

TEST(DatasetTest, FilterClassesKeepsPrefix) {
  Dataset ds = MakeDigits8x8(200, 5);
  Dataset five = ds.FilterClasses(5);
  EXPECT_EQ(five.num_classes, 5);
  for (int label : five.labels) {
    EXPECT_LT(label, 5);
  }
}

TEST(DatasetTest, QuantizeInputsMatchesFloat) {
  Dataset ds = MakeDigits8x8(10, 5);
  QuantizedDataset q = QuantizeInputs(ds, 7);
  EXPECT_EQ(q.num_examples(), 10u);
  EXPECT_EQ(q.input_dim, ds.input_dim());
  for (size_t i = 0; i < q.images.size(); ++i) {
    const float expected = ds.images[i] * 128.0f;
    EXPECT_NEAR(static_cast<float>(q.images[i]), expected, 1.0f);
  }
}

TEST(IdxLoaderTest, MissingFilesReturnNullopt) {
  EXPECT_FALSE(LoadIdxDataset("/nonexistent/images", "/nonexistent/labels", "x").has_value());
}

TEST(IdxLoaderTest, LoadsWellFormedFiles) {
  // Write a tiny 2-example 3x3 IDX pair and read it back.
  const char* img_path = "/tmp/neuroc_test_images.idx";
  const char* lab_path = "/tmp/neuroc_test_labels.idx";
  {
    std::FILE* f = std::fopen(img_path, "wb");
    ASSERT_NE(f, nullptr);
    const unsigned char header[16] = {0, 0, 8, 3, 0, 0, 0, 2, 0, 0, 0, 3, 0, 0, 0, 3};
    std::fwrite(header, 1, 16, f);
    for (int i = 0; i < 18; ++i) {
      unsigned char v = static_cast<unsigned char>(i * 14);
      std::fwrite(&v, 1, 1, f);
    }
    std::fclose(f);
    f = std::fopen(lab_path, "wb");
    ASSERT_NE(f, nullptr);
    const unsigned char lheader[8] = {0, 0, 8, 1, 0, 0, 0, 2};
    std::fwrite(lheader, 1, 8, f);
    const unsigned char labels[2] = {4, 9};
    std::fwrite(labels, 1, 2, f);
    std::fclose(f);
  }
  auto ds = LoadIdxDataset(img_path, lab_path, "tiny");
  ASSERT_TRUE(ds.has_value());
  EXPECT_EQ(ds->num_examples(), 2u);
  EXPECT_EQ(ds->width, 3);
  EXPECT_EQ(ds->height, 3);
  EXPECT_EQ(ds->labels[0], 4);
  EXPECT_EQ(ds->labels[1], 9);
  EXPECT_NEAR(ds->images.at(0, 1), 14.0f / 255.0f, 1e-5f);
  std::remove(img_path);
  std::remove(lab_path);
}

// Writes an IDX image/label pair with arbitrary header fields and a payload of
// `payload_bytes` zero pixels / `label_bytes` labels of value `label`. Returns the paths.
struct IdxPair {
  std::string img = "/tmp/neuroc_test_bad_images.idx";
  std::string lab = "/tmp/neuroc_test_bad_labels.idx";

  ~IdxPair() {
    std::remove(img.c_str());
    std::remove(lab.c_str());
  }

  void Write(uint32_t n_img, uint32_t rows, uint32_t cols, size_t payload_bytes,
             uint32_t n_lab, size_t label_bytes, unsigned char label = 1) const {
    auto be32 = [](std::FILE* f, uint32_t v) {
      const unsigned char b[4] = {static_cast<unsigned char>(v >> 24),
                                  static_cast<unsigned char>(v >> 16),
                                  static_cast<unsigned char>(v >> 8),
                                  static_cast<unsigned char>(v)};
      std::fwrite(b, 1, 4, f);
    };
    std::FILE* f = std::fopen(img.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    be32(f, 0x00000803);
    be32(f, n_img);
    be32(f, rows);
    be32(f, cols);
    const std::vector<unsigned char> zeros(payload_bytes, 0);
    std::fwrite(zeros.data(), 1, zeros.size(), f);
    std::fclose(f);
    f = std::fopen(lab.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    be32(f, 0x00000801);
    be32(f, n_lab);
    const std::vector<unsigned char> labels(label_bytes, label);
    if (!labels.empty()) {  // an empty vector's data() may be null, which fwrite forbids
      std::fwrite(labels.data(), 1, labels.size(), f);
    }
    std::fclose(f);
  }
};

TEST(IdxLoaderTest, OversizedDimensionsAreRejectedWithoutAllocating) {
  // A corrupted header advertising absurd dimensions must fail the bounds check up front —
  // not attempt a multi-gigabyte allocation, and never abort.
  IdxPair p;
  p.Write(/*n_img=*/2, /*rows=*/0xFFFFFFFF, /*cols=*/0xFFFFFFFF, /*payload=*/4,
          /*n_lab=*/2, /*labels=*/2);
  EXPECT_FALSE(LoadIdxDataset(p.img, p.lab, "bad").has_value());
}

TEST(IdxLoaderTest, ZeroDimensionsAreRejected) {
  IdxPair p;
  p.Write(2, 0, 3, 4, 2, 2);
  EXPECT_FALSE(LoadIdxDataset(p.img, p.lab, "bad").has_value());
  p.Write(2, 3, 0, 4, 2, 2);
  EXPECT_FALSE(LoadIdxDataset(p.img, p.lab, "bad").has_value());
  p.Write(0, 3, 3, 4, 0, 0);
  EXPECT_FALSE(LoadIdxDataset(p.img, p.lab, "bad").has_value());
}

TEST(IdxLoaderTest, HugeExampleCountIsRejected) {
  // count × pixel size would overflow naive 32-bit arithmetic; the loader must refuse
  // before reading any payload.
  IdxPair p;
  p.Write(/*n_img=*/0x40000000, /*rows=*/28, /*cols=*/28, /*payload=*/16,
          /*n_lab=*/0x40000000, /*labels=*/16);
  EXPECT_FALSE(LoadIdxDataset(p.img, p.lab, "bad").has_value());
}

TEST(IdxLoaderTest, CountMismatchBetweenImagesAndLabelsIsRejected) {
  IdxPair p;
  p.Write(2, 2, 2, 8, 3, 3);
  EXPECT_FALSE(LoadIdxDataset(p.img, p.lab, "bad").has_value());
}

TEST(IdxLoaderTest, TruncatedImagePayloadIsRejected) {
  IdxPair p;
  p.Write(/*n_img=*/2, /*rows=*/2, /*cols=*/2, /*payload=*/5 /* need 8 */,
          /*n_lab=*/2, /*labels=*/2);
  EXPECT_FALSE(LoadIdxDataset(p.img, p.lab, "bad").has_value());
}

TEST(IdxLoaderTest, TruncatedLabelPayloadIsRejected) {
  IdxPair p;
  p.Write(2, 2, 2, 8, 2, /*labels=*/1);
  EXPECT_FALSE(LoadIdxDataset(p.img, p.lab, "bad").has_value());
}

TEST(IdxLoaderTest, OutOfRangeLabelIsRejectedNotFatal) {
  // A label outside [0, num_classes) is expected input corruption: the loader must return
  // nullopt instead of tripping Dataset::Validate()'s host-invariant abort.
  IdxPair p;
  p.Write(2, 2, 2, 8, 2, 2, /*label=*/250);
  EXPECT_FALSE(LoadIdxDataset(p.img, p.lab, "bad", /*num_classes=*/10).has_value());
}

TEST(EventDetectionTest, FeaturesSeparateIdleFromRunning) {
  Dataset ds = MakeEventDetection(300, 11);
  // Mean feature-space distance between class centroids should be clearly nonzero.
  std::vector<std::vector<double>> centroid(5, std::vector<double>(ds.input_dim(), 0.0));
  std::vector<int> count(5, 0);
  for (size_t i = 0; i < ds.num_examples(); ++i) {
    ++count[ds.labels[i]];
    for (size_t c = 0; c < ds.input_dim(); ++c) {
      centroid[ds.labels[i]][c] += ds.images.at(i, c);
    }
  }
  for (int k = 0; k < 5; ++k) {
    ASSERT_GT(count[k], 0);
    for (double& v : centroid[k]) {
      v /= count[k];
    }
  }
  double dist = 0.0;
  for (size_t c = 0; c < ds.input_dim(); ++c) {
    const double d = centroid[0][c] - centroid[2][c];  // idle vs running
    dist += d * d;
  }
  EXPECT_GT(dist, 0.1);
}

}  // namespace
}  // namespace neuroc
