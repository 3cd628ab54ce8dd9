// Predecoded-instruction cache: the cached fetch path must be an invisible optimization.
// Cycles, instruction counts, op histograms, memory statistics, heatmaps, probe callbacks
// and trace dumps all have to be bit-identical to the legacy decode-every-step
// interpreter, and any host write into flash must invalidate the cache.

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "src/core/encoding.h"

#include "src/core/synthetic.h"
#include "src/isa/assembler.h"
#include "src/runtime/deployed_model.h"
#include "src/sim/machine.h"

namespace neuroc {
namespace {

constexpr uint32_t kFlash = 0x08000000;
constexpr uint32_t kRam = 0x20000000;

NeuroCModel MakeModel(uint64_t seed, EncodingKind kind) {
  Rng rng(seed);
  SyntheticNeuroCLayerSpec l0;
  l0.in_dim = 64;
  l0.out_dim = 24;
  l0.density = 0.2;
  l0.encoding = kind;
  SyntheticNeuroCLayerSpec l1 = l0;
  l1.in_dim = 24;
  l1.out_dim = 10;
  l1.relu = false;
  std::vector<QuantNeuroCLayer> layers;
  layers.push_back(MakeSyntheticNeuroCLayer(l0, rng));
  layers.push_back(MakeSyntheticNeuroCLayer(l1, rng));
  return NeuroCModel::FromLayers(std::move(layers));
}

// Records every probe callback verbatim so the two decode paths can be compared
// observation by observation.
struct RecordingProbe : CpuProbe {
  struct Retire {
    uint32_t addr;
    Op op;
    uint32_t cycles;
    bool operator==(const Retire&) const = default;
  };
  std::vector<Retire> retires;
  void OnRetire(uint32_t addr, Op op, uint32_t cycles) override {
    retires.push_back({addr, op, cycles});
  }
};

class DecodeCacheParityTest : public ::testing::TestWithParam<EncodingKind> {};

TEST_P(DecodeCacheParityTest, FullInferenceBitIdenticalToLegacyPath) {
  const EncodingKind kind = GetParam();
  DeployedModel cached = DeployedModel::Deploy(MakeModel(21, kind));
  DeployedModel legacy = DeployedModel::Deploy(MakeModel(21, kind));
  ASSERT_TRUE(cached.machine().cpu().decode_cache_enabled());
  legacy.machine().cpu().EnableDecodeCache(false);

  cached.machine().memory().EnableHeatmap(64);
  legacy.machine().memory().EnableHeatmap(64);
  RecordingProbe cached_probe;
  RecordingProbe legacy_probe;
  cached.machine().cpu().set_probe(&cached_probe);
  legacy.machine().cpu().set_probe(&legacy_probe);

  Rng rng(5);
  for (int rep = 0; rep < 3; ++rep) {
    const std::vector<int8_t> input = MakeRandomInput(cached.input_dim(), rng);
    EXPECT_EQ(cached.Predict(input), legacy.Predict(input));
    EXPECT_EQ(cached.report().cycles_per_inference, legacy.report().cycles_per_inference);
    EXPECT_EQ(cached.LastOutput(), legacy.LastOutput());
  }

  const Cpu& cc = cached.machine().cpu();
  const Cpu& lc = legacy.machine().cpu();
  EXPECT_EQ(cc.cycles(), lc.cycles());
  EXPECT_EQ(cc.instructions(), lc.instructions());

  const MemAccessStats& cs = cached.machine().memory().stats();
  const MemAccessStats& ls = legacy.machine().memory().stats();
  EXPECT_EQ(cs.flash_reads, ls.flash_reads);
  EXPECT_EQ(cs.sram_reads, ls.sram_reads);
  EXPECT_EQ(cs.sram_writes, ls.sram_writes);

  const MemHeatmap& ch = cached.machine().memory().heatmap();
  const MemHeatmap& lh = legacy.machine().memory().heatmap();
  EXPECT_EQ(ch.flash_reads, lh.flash_reads);
  EXPECT_EQ(ch.sram_reads, lh.sram_reads);
  EXPECT_EQ(ch.sram_writes, lh.sram_writes);

  EXPECT_EQ(cached_probe.retires, legacy_probe.retires);
}

INSTANTIATE_TEST_SUITE_P(AllEncodings, DecodeCacheParityTest,
                         ::testing::ValuesIn(kAllEncodingKinds));

TEST(DecodeCacheTest, FlashWriteInvalidatesCache) {
  Machine m;
  const AssembledProgram a = Assemble("movs r0, #1\nbx lr\n", kFlash);
  m.LoadBytes(kFlash, a.bytes);
  m.CallFunction(kFlash, {});
  EXPECT_EQ(m.ReturnValue(), 1u);

  // Full reload at the same address must be picked up...
  const AssembledProgram b = Assemble("movs r0, #9\nbx lr\n", kFlash);
  m.LoadBytes(kFlash, b.bytes);
  m.CallFunction(kFlash, {});
  EXPECT_EQ(m.ReturnValue(), 9u);

  // ...as must a single patched halfword (movs r0, #9 -> movs r0, #5).
  const AssembledProgram c = Assemble("movs r0, #5\n", kFlash);
  m.LoadBytes(kFlash, std::span<const uint8_t>(c.bytes.data(), 2));
  m.CallFunction(kFlash, {});
  EXPECT_EQ(m.ReturnValue(), 5u);
}

TEST(DecodeCacheTest, FlashGenerationTracksFlashWritesOnly) {
  MemoryMap mem(kFlash, 1024, kRam, 1024);
  const uint64_t g0 = mem.flash_generation();
  const uint8_t bytes[2] = {0x01, 0x20};
  mem.HostWrite(kRam, bytes);
  EXPECT_EQ(mem.flash_generation(), g0);  // SRAM loads don't invalidate
  mem.HostWrite(kFlash + 16, bytes);
  EXPECT_GT(mem.flash_generation(), g0);
  EXPECT_GE(mem.flash_high_water(), 18u);
}

TEST(DecodeCacheTest, SramExecutionMatchesLegacyPath) {
  // Code executing from SRAM bypasses the flash decode cache; both paths must agree on
  // result and cycle count (no flash wait states on SRAM fetches).
  const AssembledProgram p = Assemble("adds r0, r0, r1\nbx lr\n", kRam);
  Machine cached;
  Machine legacy;
  legacy.cpu().EnableDecodeCache(false);
  cached.LoadBytes(kRam, p.bytes);
  legacy.LoadBytes(kRam, p.bytes);
  const uint64_t cached_cycles = cached.CallFunction(kRam, {30, 12});
  const uint64_t legacy_cycles = legacy.CallFunction(kRam, {30, 12});
  EXPECT_EQ(cached.ReturnValue(), 42u);
  EXPECT_EQ(legacy.ReturnValue(), 42u);
  EXPECT_EQ(cached_cycles, legacy_cycles);
  EXPECT_EQ(cached.cpu().instructions(), legacy.cpu().instructions());
}

// Regression: a BL prefix halfword (0xF000) sitting on the last mapped flash halfword used
// to abort with a misleading "unmapped address" memory fault. It must be reported as an
// undefined instruction at that halfword, on both decode paths.
void RunWidePrefixAtFlashEnd(bool use_cache) {
  MachineConfig cfg;
  cfg.flash_size = 1024;
  Machine m(cfg);
  m.cpu().EnableDecodeCache(use_cache);
  const uint32_t last_halfword = kFlash + cfg.flash_size - 2;
  const uint8_t bl_prefix[2] = {0x00, 0xF0};
  m.LoadBytes(last_halfword, bl_prefix);
  m.CallFunction(last_halfword, {});
}

TEST(DecodeCacheDeathTest, WidePrefixAtFlashEndFaultsAsUndefined) {
  const char* expected = "simulator: undefined instruction 0xf000 at 0x080003fe";
  EXPECT_DEATH(RunWidePrefixAtFlashEnd(/*use_cache=*/true), expected);
  EXPECT_DEATH(RunWidePrefixAtFlashEnd(/*use_cache=*/false), expected);
}

}  // namespace
}  // namespace neuroc
