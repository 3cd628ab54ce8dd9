// Deterministic pseudo-random number generation.
//
// All stochastic components of the library (dataset synthesis, weight initialization,
// shuffling, dropout masks) draw from this generator so experiments are reproducible from a
// single seed. The core generator is xoshiro256**, seeded via SplitMix64.

#ifndef NEUROC_SRC_COMMON_RNG_H_
#define NEUROC_SRC_COMMON_RNG_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace neuroc {

// xoshiro256** by Blackman & Vigna: fast, high-quality, 2^256-1 period.
class Rng {
 public:
  explicit Rng(uint64_t seed = 0x9e3779b97f4a7c15ULL);

  // Uniform 64-bit value.
  uint64_t NextU64();

  // Uniform 32-bit value.
  uint32_t NextU32() { return static_cast<uint32_t>(NextU64() >> 32); }

  // Uniform in [0, bound). bound must be > 0.
  uint64_t NextBounded(uint64_t bound);

  // Uniform integer in [lo, hi] inclusive.
  int64_t NextInt(int64_t lo, int64_t hi);

  // Uniform double in [0, 1).
  double NextDouble();

  // Uniform float in [lo, hi).
  float NextUniform(float lo, float hi);

  // Standard normal via Box–Muller (cached second value).
  double NextGaussian();

  // Gaussian with mean/stddev.
  float NextGaussian(float mean, float stddev) {
    return mean + stddev * static_cast<float>(NextGaussian());
  }

  // Bernoulli trial with probability p of true.
  bool NextBool(double p) { return NextDouble() < p; }

  // Fisher–Yates shuffle of indices or arbitrary vectors.
  template <typename T>
  void Shuffle(std::vector<T>& values) {
    for (size_t i = values.size(); i > 1; --i) {
      size_t j = static_cast<size_t>(NextBounded(i));
      std::swap(values[i - 1], values[j]);
    }
  }

  // Derive an independent generator (for parallel or per-component streams).
  Rng Fork();

 private:
  uint64_t state_[4];
  bool has_cached_gaussian_ = false;
  double cached_gaussian_ = 0.0;
};

// The seed of stream `index` derived from `seed`: the SplitMix64 finalizer over
// seed + (index + 1) * golden ratio. Each index gets a statistically independent stream
// that does not depend on which other indices ran or in what order, so work split across
// threads by index (search trials, fault-campaign trials, fuzz cases) gives results
// byte-identical to running it sequentially.
uint64_t SubSeed(uint64_t seed, uint64_t index);

// Returns a shuffled identity permutation [0, n).
std::vector<size_t> RandomPermutation(size_t n, Rng& rng);

}  // namespace neuroc

#endif  // NEUROC_SRC_COMMON_RNG_H_
