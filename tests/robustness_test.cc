// Failure-injection and robustness tests: the harness must fail loudly — never silently —
// when firmware is corrupted, descriptors point outside mapped memory, or execution runs
// away. Silent mis-measurement is the failure mode a research harness can least afford.

#include <gtest/gtest.h>

#include <algorithm>

#include "src/core/synthetic.h"
#include "src/isa/assembler.h"
#include "src/kernels/kernel_set.h"
#include "src/runtime/deployed_model.h"
#include "src/runtime/recovery.h"
#include "tests/test_util.h"

namespace neuroc {
namespace {

constexpr uint32_t kFlash = 0x08000000;

NeuroCModel SmallModel(uint64_t seed) {
  testutil::TestModelSpec spec;
  spec.dims = {64, 16};
  spec.final_relu = true;
  return testutil::MakeTestModel(seed, spec);
}

TEST(FaultInjectionTest, CorruptedKernelCodeReturnsStructuredFault) {
  // Overwrite the kernel's first instructions with a value that decodes to UDF: execution
  // must surface a structured fault report, not return garbage.
  StatusOr<GuardedModel> created = GuardedModel::Create(SmallModel(1));
  ASSERT_TRUE(created.ok());
  GuardedModel& gm = *created;
  DeployedModel& deployed = gm.deployed();
  const uint8_t udf[2] = {0x00, 0xDE};  // udf #0
  deployed.machine().LoadBytes(kFlash, udf);
  std::vector<int8_t> input(64, 1);
  StatusOr<int> pred = deployed.TryPredict(input);
  ASSERT_FALSE(pred.ok());
  ASSERT_NE(pred.status().fault(), nullptr);
  const FaultReport& fault = *pred.status().fault();
  EXPECT_EQ(fault.code, ErrorCode::kUndefinedInstruction);
  EXPECT_EQ(fault.instruction, 0xDE00u);
  EXPECT_NE(fault.message.find("undefined instruction"), std::string::npos);
  // The integrity layer attributes the corruption to the kernel section…
  const std::vector<std::string> bad = deployed.CorruptedSections();
  ASSERT_FALSE(bad.empty());
  EXPECT_EQ(bad[0], "kernel_code");
  // …and the recovery ladder repairs it on the scrub rung (a RAM-only snapshot restore
  // leaves the code corrupted), producing a clean prediction that matches the host.
  const GuardedResult r = gm.Predict(input);
  EXPECT_TRUE(r.ok);
  EXPECT_TRUE(r.faulted);  // still corrupted on entry: the first attempt faults again
  EXPECT_EQ(r.resolved_by, RecoveryRung::kScrubRetry);
  EXPECT_NE(std::find(r.corrupted_sections.begin(), r.corrupted_sections.end(),
                      "kernel_code"),
            r.corrupted_sections.end());
  std::vector<int8_t> host;
  gm.model().Forward(input, host);
  EXPECT_EQ(gm.deployed().LastOutput(), host);
  EXPECT_TRUE(gm.deployed().VerifyIntegrity().ok());
}

TEST(FaultInjectionTest, DescriptorPointingOutsideMemoryFaults) {
  NeuroCModel model = SmallModel(2);
  DeployedModel deployed = DeployedModel::Deploy(model);
  // Patch the first descriptor's input pointer to unmapped peripheral space; the kernel's
  // first load through it must fault with the bad address in the report.
  const uint32_t bad_addr = 0x40000000;  // peripheral space: unmapped in the simulator
  const uint8_t bytes[4] = {
      static_cast<uint8_t>(bad_addr & 0xFF), static_cast<uint8_t>((bad_addr >> 8) & 0xFF),
      static_cast<uint8_t>((bad_addr >> 16) & 0xFF),
      static_cast<uint8_t>((bad_addr >> 24) & 0xFF)};
  deployed.machine().LoadBytes(deployed.image_base() + kDescInputAddr * 4, bytes);
  std::vector<int8_t> input(64, 1);
  StatusOr<int> pred = deployed.TryPredict(input);
  ASSERT_FALSE(pred.ok());
  ASSERT_NE(pred.status().fault(), nullptr);
  const FaultReport& fault = *pred.status().fault();
  EXPECT_EQ(fault.code, ErrorCode::kUnmappedAccess);
  // The kernel faults on its first load through the redirected pointer — at or a few
  // elements past the patched base, depending on the access pattern.
  EXPECT_GE(fault.addr, bad_addr);
  EXPECT_LT(fault.addr, bad_addr + 64);
  // The corrupted word lives in the descriptor table, and the CRC layer says so.
  const std::vector<std::string> bad = deployed.CorruptedSections();
  EXPECT_NE(std::find(bad.begin(), bad.end(), "descriptors"), bad.end());
}

TEST(FaultInjectionTest, RunawayLoopHitsInstructionBudget) {
  MachineConfig cfg;
  cfg.max_instructions = 5000;
  Machine m(cfg);
  const AssembledProgram p = Assemble(R"(
    movs r0, #0
spin:
    adds r0, r0, #1
    b spin
  )", kFlash);
  m.LoadBytes(kFlash, p.bytes);
  StatusOr<uint64_t> cycles = m.TryCallFunction(kFlash, {});
  ASSERT_FALSE(cycles.ok());
  EXPECT_EQ(cycles.status().code(), ErrorCode::kInstructionBudgetExceeded);
  ASSERT_NE(cycles.status().fault(), nullptr);
  EXPECT_GE(cycles.status().fault()->instructions, 5000u);
  // last_fault() keeps the report for post-mortem use after the StatusOr is gone.
  EXPECT_EQ(m.last_fault().code, ErrorCode::kInstructionBudgetExceeded);
}

TEST(FaultInjectionTest, StackOverflowIntoUnmappedSpaceFaults) {
  // Recursive pushes walk SP below SRAM: the first out-of-range store must fault with the
  // offending stack address, which lies just below the RAM window.
  Machine m;
  const AssembledProgram p = Assemble(R"(
loop:
    push {r4, r5, r6, r7}
    b loop
  )", kFlash);
  m.LoadBytes(kFlash, p.bytes);
  StatusOr<uint64_t> cycles = m.TryCallFunction(kFlash, {});
  ASSERT_FALSE(cycles.ok());
  EXPECT_EQ(cycles.status().code(), ErrorCode::kUnmappedAccess);
  ASSERT_NE(cycles.status().fault(), nullptr);
  EXPECT_LT(cycles.status().fault()->addr, m.config().ram_base);
  EXPECT_GE(cycles.status().fault()->addr, m.config().ram_base - 64);
}

TEST(FaultInjectionTest, ExecutingDataAsCodeIsDetected) {
  // Jumping into data (0xDE byte fill decodes as UDF) must yield a structured fault —
  // never a silent return.
  MachineConfig cfg;
  cfg.max_instructions = 200000;
  Machine m(cfg);
  std::vector<uint8_t> junk(64, 0xDE);
  m.LoadBytes(kFlash, junk);
  StatusOr<uint64_t> cycles = m.TryCallFunction(kFlash, {});
  ASSERT_FALSE(cycles.ok());
  EXPECT_EQ(cycles.status().code(), ErrorCode::kUndefinedInstruction);
  EXPECT_EQ(cycles.status().fault()->pc, kFlash);
}

TEST(FaultInjectionTest, FaultReportCarriesTraceTailWhenTracingEnabled) {
  // With the trace ring on, the report's tail names the instructions leading up to the
  // fault — the raw material for post-mortem debugging.
  Machine m;
  m.cpu().EnableTrace(16);
  const AssembledProgram p = Assemble(R"(
    movs r0, #7
    udf #0
  )", kFlash);
  m.LoadBytes(kFlash, p.bytes);
  StatusOr<uint64_t> cycles = m.TryCallFunction(kFlash, {});
  ASSERT_FALSE(cycles.ok());
  ASSERT_NE(cycles.status().fault(), nullptr);
  EXPECT_NE(cycles.status().fault()->trace_tail.find("movs r0, #7"), std::string::npos);
}

TEST(HostInvariantDeathTest, TooManyCallArgumentsStillAborts) {
  // Guest faults are recoverable Status values, but host API misuse stays a hard
  // NEUROC_CHECK abort: passing more register arguments than AAPCS r0..r3 allows is a bug
  // in the caller, not a simulated-hardware fault.
  Machine m;
  EXPECT_DEATH(m.TryCallFunction(kFlash, {1, 2, 3, 4, 5}), "args.size");
}

TEST(RobustnessTest, SaturatedInputsProduceSaturatedButValidOutputs) {
  // Extreme inputs must flow through without overflow UB: outputs stay in int8 and the
  // simulator agrees with the host bit-for-bit.
  NeuroCModel model = SmallModel(3);
  DeployedModel deployed = DeployedModel::Deploy(model);
  for (int8_t fill : {int8_t{-128}, int8_t{127}}) {
    std::vector<int8_t> input(64, fill);
    std::vector<int8_t> host;
    model.Forward(input, host);
    deployed.Predict(input);
    EXPECT_EQ(deployed.LastOutput(), host);
  }
}

TEST(RobustnessTest, ZeroDensityLayerStillRuns) {
  // A layer whose adjacency is entirely zero: output is just requantized bias.
  Rng rng(4);
  SyntheticNeuroCLayerSpec spec;
  spec.in_dim = 32;
  spec.out_dim = 8;
  spec.density = 0.0;
  std::vector<QuantNeuroCLayer> layers;
  layers.push_back(MakeSyntheticNeuroCLayer(spec, rng));
  NeuroCModel model = NeuroCModel::FromLayers(std::move(layers));
  DeployedModel deployed = DeployedModel::Deploy(model);
  std::vector<int8_t> input(32, 55);
  std::vector<int8_t> host;
  model.Forward(input, host);
  deployed.Predict(input);
  EXPECT_EQ(deployed.LastOutput(), host);
}

TEST(RobustnessTest, SingleNeuronAndSingleInputEdges) {
  for (auto [in, out] : {std::pair<size_t, size_t>{1, 8}, {64, 1}, {1, 1}}) {
    Rng rng(in * 100 + out);
    SyntheticNeuroCLayerSpec spec;
    spec.in_dim = in;
    spec.out_dim = out;
    spec.density = 1.0;
    std::vector<QuantNeuroCLayer> layers;
    layers.push_back(MakeSyntheticNeuroCLayer(spec, rng));
    NeuroCModel model = NeuroCModel::FromLayers(std::move(layers));
    DeployedModel deployed = DeployedModel::Deploy(model);
    std::vector<int8_t> input(in, -3);
    std::vector<int8_t> host;
    model.Forward(input, host);
    deployed.Predict(input);
    EXPECT_EQ(deployed.LastOutput(), host) << in << "x" << out;
  }
}

TEST(RobustnessTest, RepeatedDeploymentsAreIndependent) {
  // Two deployments of different models on separate machines must not interfere.
  NeuroCModel a = SmallModel(10);
  NeuroCModel b = SmallModel(20);
  DeployedModel da = DeployedModel::Deploy(a);
  DeployedModel db = DeployedModel::Deploy(b);
  Rng rng(30);
  const std::vector<int8_t> input = MakeRandomInput(64, rng);
  std::vector<int8_t> ha, hb;
  a.Forward(input, ha);
  b.Forward(input, hb);
  da.Predict(input);
  db.Predict(input);
  EXPECT_EQ(da.LastOutput(), ha);
  EXPECT_EQ(db.LastOutput(), hb);
}

}  // namespace
}  // namespace neuroc
