#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <set>
#include <span>
#include <string_view>
#include <vector>

#include "src/common/crc32.h"
#include "src/common/fixed_point.h"
#include "src/common/rng.h"

namespace neuroc {
namespace {

TEST(RngTest, DeterministicFromSeed) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextU64(), b.NextU64());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.NextU64() == b.NextU64()) {
      ++same;
    }
  }
  EXPECT_EQ(same, 0);
}

TEST(RngTest, NextBoundedStaysInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.NextBounded(13), 13u);
  }
}

TEST(RngTest, NextBoundedCoversRange) {
  Rng rng(7);
  std::set<uint64_t> seen;
  for (int i = 0; i < 500; ++i) {
    seen.insert(rng.NextBounded(5));
  }
  EXPECT_EQ(seen.size(), 5u);
}

TEST(RngTest, NextIntInclusiveBounds) {
  Rng rng(11);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const int64_t v = rng.NextInt(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= (v == -3);
    saw_hi |= (v == 3);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    const double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, GaussianMomentsApproximatelyStandard) {
  Rng rng(5);
  double sum = 0.0, sum_sq = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double g = rng.NextGaussian();
    sum += g;
    sum_sq += g * g;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.03);
  EXPECT_NEAR(sum_sq / n, 1.0, 0.05);
}

TEST(RngTest, ShuffleIsPermutation) {
  Rng rng(9);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto sorted = v;
  rng.Shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

TEST(RngTest, RandomPermutationContainsAllIndices) {
  Rng rng(13);
  auto p = RandomPermutation(100, rng);
  std::set<size_t> s(p.begin(), p.end());
  EXPECT_EQ(s.size(), 100u);
  EXPECT_EQ(*s.begin(), 0u);
  EXPECT_EQ(*s.rbegin(), 99u);
}

TEST(RngTest, ForkProducesIndependentStream) {
  Rng a(21);
  Rng forked = a.Fork();
  EXPECT_NE(a.NextU64(), forked.NextU64());
}

TEST(FixedPointTest, SaturationBounds) {
  EXPECT_EQ(SatInt8(127), 127);
  EXPECT_EQ(SatInt8(128), 127);
  EXPECT_EQ(SatInt8(-128), -128);
  EXPECT_EQ(SatInt8(-129), -128);
  EXPECT_EQ(SatInt8(0), 0);
  EXPECT_EQ(SatInt16(40000), 32767);
  EXPECT_EQ(SatInt16(-40000), -32768);
}

TEST(FixedPointTest, RoundingRightShiftRoundsHalfUp) {
  EXPECT_EQ(RoundingRightShift(5, 1), 3);   // 2.5 -> 3
  EXPECT_EQ(RoundingRightShift(4, 1), 2);
  EXPECT_EQ(RoundingRightShift(-5, 1), -2); // -2.5 -> -2 (half up)
  EXPECT_EQ(RoundingRightShift(7, 2), 2);   // 1.75 -> 2
  EXPECT_EQ(RoundingRightShift(100, 0), 100);
}

TEST(FixedPointTest, RoundingRightShiftMatches64BitVariant) {
  Rng rng(17);
  for (int i = 0; i < 1000; ++i) {
    const int32_t v = static_cast<int32_t>(rng.NextInt(-1000000, 1000000));
    const int shift = static_cast<int>(rng.NextInt(0, 12));
    EXPECT_EQ(RoundingRightShift(v, shift), static_cast<int32_t>(RoundingRightShift64(v, shift)));
  }
}

TEST(FixedPointTest, ChooseFracBitsFitsContainer) {
  for (float max_abs : {0.1f, 0.9f, 1.0f, 3.7f, 100.0f, 0.001f}) {
    const int frac = ChooseFracBits(max_abs, 8);
    EXPECT_LE(max_abs * std::ldexp(1.0, frac), 127.0 + 1e-3);
    // One more bit would overflow (unless clamped at max_frac).
    if (frac < 30) {
      EXPECT_GT(max_abs * std::ldexp(1.0, frac + 1), 127.0);
    }
  }
}

TEST(FixedPointTest, ChooseFracBitsZeroTensorGivesMax) {
  EXPECT_EQ(ChooseFracBits(0.0f, 8, -8, 14), 14);
}

TEST(FixedPointTest, QuantizeDequantizeRoundTrip) {
  Rng rng(23);
  for (int i = 0; i < 500; ++i) {
    const float v = rng.NextUniform(-0.99f, 0.99f);
    const int8_t q = QuantizeQ7(v, 7);
    EXPECT_NEAR(DequantizeFixed(q, 7), v, 1.0f / 128.0f + 1e-6f);
  }
}

TEST(FixedPointTest, QuantizeSaturates) {
  EXPECT_EQ(QuantizeFixed(10.0f, 7, 8), 127);
  EXPECT_EQ(QuantizeFixed(-10.0f, 7, 8), -128);
}

// Bit-at-a-time CRC-32 (reflected 0xEDB88320): the definition Crc32's table-driven
// slicing must agree with.
uint32_t ReferenceCrc32(std::span<const uint8_t> bytes, uint32_t seed = 0) {
  uint32_t c = seed ^ 0xFFFFFFFFu;
  for (const uint8_t b : bytes) {
    c ^= b;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
  }
  return c ^ 0xFFFFFFFFu;
}

std::vector<uint8_t> RandomBytes(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<uint8_t> bytes(n);
  for (uint8_t& b : bytes) {
    b = static_cast<uint8_t>(rng.NextU64());
  }
  return bytes;
}

TEST(Crc32Test, CheckValue) {
  constexpr std::string_view kCheck = "123456789";
  const std::span<const uint8_t> bytes(reinterpret_cast<const uint8_t*>(kCheck.data()),
                                       kCheck.size());
  EXPECT_EQ(Crc32(bytes), 0xCBF43926u);
  EXPECT_EQ(ReferenceCrc32(bytes), 0xCBF43926u);
  EXPECT_EQ(Crc32({}), 0u);
}

TEST(Crc32Test, SplitAtEveryOffsetMatchesOneShot) {
  const std::vector<uint8_t> bytes = RandomBytes(77, 3);
  const std::span<const uint8_t> all(bytes);
  const uint32_t whole = ReferenceCrc32(all);
  ASSERT_EQ(Crc32(all), whole);
  for (size_t k = 0; k <= bytes.size(); ++k) {
    EXPECT_EQ(Crc32(all.subspan(k), Crc32(all.first(k))), whole) << "split at " << k;
  }
}

TEST(Crc32Test, UnalignedAndShortSpansMatchReference) {
  const std::vector<uint8_t> bytes = RandomBytes(96, 4);
  const std::span<const uint8_t> all(bytes);
  for (size_t start = 0; start < 8; ++start) {
    for (size_t len = 0; start + len <= bytes.size(); ++len) {
      const std::span<const uint8_t> s = all.subspan(start, len);
      EXPECT_EQ(Crc32(s), ReferenceCrc32(s)) << "start " << start << " len " << len;
      EXPECT_EQ(Crc32(s, 0x12345678u), ReferenceCrc32(s, 0x12345678u))
          << "seeded, start " << start << " len " << len;
    }
  }
}

}  // namespace
}  // namespace neuroc
