#include <gtest/gtest.h>

#include "src/core/adjacency_stats.h"
#include "src/train/metrics.h"

namespace neuroc {
namespace {

// ---------------------------------------------------------------------------
// ConfusionMatrix.
// ---------------------------------------------------------------------------

TEST(ConfusionMatrixTest, PerfectClassifier) {
  ConfusionMatrix cm(3);
  for (int c = 0; c < 3; ++c) {
    for (int i = 0; i < 10; ++i) {
      cm.Add(c, c);
    }
  }
  EXPECT_DOUBLE_EQ(cm.Accuracy(), 1.0);
  EXPECT_DOUBLE_EQ(cm.MacroF1(), 1.0);
  for (int c = 0; c < 3; ++c) {
    EXPECT_DOUBLE_EQ(cm.Precision(c), 1.0);
    EXPECT_DOUBLE_EQ(cm.Recall(c), 1.0);
  }
}

TEST(ConfusionMatrixTest, KnownCountsMatchHandComputation) {
  // Binary case: TP=8, FN=2, FP=1, TN=9.
  ConfusionMatrix cm(2);
  for (int i = 0; i < 8; ++i) cm.Add(1, 1);
  for (int i = 0; i < 2; ++i) cm.Add(1, 0);
  for (int i = 0; i < 1; ++i) cm.Add(0, 1);
  for (int i = 0; i < 9; ++i) cm.Add(0, 0);
  EXPECT_DOUBLE_EQ(cm.Accuracy(), 17.0 / 20.0);
  EXPECT_DOUBLE_EQ(cm.Precision(1), 8.0 / 9.0);
  EXPECT_DOUBLE_EQ(cm.Recall(1), 8.0 / 10.0);
  const double p = 8.0 / 9.0, r = 0.8;
  EXPECT_NEAR(cm.F1(1), 2 * p * r / (p + r), 1e-12);
}

TEST(ConfusionMatrixTest, DegenerateClassesReportZero) {
  ConfusionMatrix cm(3);
  cm.Add(0, 0);
  // Class 2 never appears as truth or prediction.
  EXPECT_DOUBLE_EQ(cm.Precision(2), 0.0);
  EXPECT_DOUBLE_EQ(cm.Recall(2), 0.0);
  EXPECT_DOUBLE_EQ(cm.F1(2), 0.0);
}

TEST(ConfusionMatrixTest, MergeAccumulates) {
  ConfusionMatrix a(2), b(2);
  a.Add(0, 0);
  b.Add(0, 1);
  b.Add(1, 1);
  a.Merge(b);
  EXPECT_EQ(a.total(), 3u);
  EXPECT_EQ(a.count(0, 1), 1u);
  EXPECT_NEAR(a.Accuracy(), 2.0 / 3.0, 1e-12);
}

TEST(ConfusionMatrixTest, FormatIncludesClassNames) {
  ConfusionMatrix cm(2);
  cm.Add(0, 0);
  cm.Add(1, 0);
  const std::string s = cm.Format({"cats", "dogs"});
  EXPECT_NE(s.find("cats"), std::string::npos);
  EXPECT_NE(s.find("dogs"), std::string::npos);
  EXPECT_NE(s.find("accuracy"), std::string::npos);
}

TEST(ConfusionMatrixTest, OutOfRangeAborts) {
  ConfusionMatrix cm(2);
  EXPECT_DEATH(cm.Add(2, 0), "");
  EXPECT_DEATH(cm.Add(0, -1), "");
}

// ---------------------------------------------------------------------------
// AdjacencyStats.
// ---------------------------------------------------------------------------

TEST(AdjacencyStatsTest, HandBuiltMatrix) {
  TernaryMatrix m(10, 3);
  m.set(0, 0, 1);
  m.set(4, 0, 1);
  m.set(9, 0, -1);
  m.set(2, 1, -1);
  // column 2 empty
  const AdjacencyStats s = AnalyzeAdjacency(m);
  EXPECT_EQ(s.nonzeros, 4u);
  EXPECT_EQ(s.positives, 2u);
  EXPECT_EQ(s.negatives, 2u);
  EXPECT_EQ(s.min_fan_in, 0u);
  EXPECT_EQ(s.max_fan_in, 3u);
  EXPECT_EQ(s.empty_columns, 1u);
  EXPECT_NEAR(s.density, 4.0 / 30.0, 1e-12);
  // Gaps: positive col0 has 0 -> 4 (gap 4); first indices 0, 9, 2.
  EXPECT_EQ(s.max_gap, 4u);
  EXPECT_EQ(s.max_first_index, 9u);
  EXPECT_TRUE(s.DeltaFitsOneByte());
}

TEST(AdjacencyStatsTest, DetectsSixteenBitDeltas) {
  TernaryMatrix m(600, 1);
  m.set(10, 0, 1);
  m.set(500, 0, 1);  // gap 490 > 255
  const AdjacencyStats s = AnalyzeAdjacency(m);
  EXPECT_EQ(s.max_gap, 490u);
  EXPECT_FALSE(s.DeltaFitsOneByte());
}

TEST(AdjacencyStatsTest, StatsMatchRandomMatrixProperties) {
  Rng rng(5);
  const TernaryMatrix m = TernaryMatrix::Random(200, 50, 0.15, rng);
  const AdjacencyStats s = AnalyzeAdjacency(m);
  EXPECT_EQ(s.nonzeros, m.NonZeroCount());
  EXPECT_EQ(s.max_fan_in, m.MaxColumnFanIn());
  EXPECT_NEAR(s.density, m.Density(), 1e-12);
  const std::string text = FormatAdjacencyStats(s);
  EXPECT_NE(text.find("fan-in"), std::string::npos);
}

}  // namespace
}  // namespace neuroc
