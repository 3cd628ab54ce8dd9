// Lockstep lanes: GuardedModel::PredictBatch runs its batches through the CPU's lockstep
// lanes, which must be invisible. After a batch, the machine snapshot, predictions,
// per-inference cycles, layer cycles and metrics must equal those of one Predict per
// input, on every encoding and batch geometry the benchmarks use. And every condition
// that makes lockstep inexact — lanes disagreeing on a branch or an address, a faulting
// lane, the instruction budget or watchdog deadline, an attached observer, an inference
// reading state the previous one left — must make the batch fall back with the machine
// untouched, so the sequential rerun gives exactly the sequential result. The positive
// controls show the checks compare values: the same fragments commit when the lanes do
// agree. Every case runs on each lane executor the host supports (the generic one and,
// on AVX2 hosts, its AVX2 twin), chosen through Cpu::SetLaneExecutorForTest.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "src/common/check.h"
#include "src/common/rng.h"
#include "src/isa/assembler.h"
#include "src/obs/registry.h"
#include "src/runtime/recovery.h"
#include "src/sim/machine.h"
#include "tests/test_util.h"

namespace neuroc {
namespace {

using testutil::ExpectFaultsEqual;
using testutil::ExpectSnapshotsEqual;

// The lane executor the running case uses: the batch machines below are set to it, and a
// batch that ran lanes must have run them on it.
Cpu::LaneExecutor executor_under_test = Cpu::LaneExecutor::kGeneric;

// The LockstepBatch and LockstepFallback cases, once per lane executor; a case skips on
// a host that cannot run its executor. The fixture hides the machine's LockstepBatch,
// which is therefore spelled neuroc::LockstepBatch below.
class LaneExecutorTest : public ::testing::TestWithParam<Cpu::LaneExecutor> {
 protected:
  void SetUp() override {
    if (!Cpu::LaneExecutorSupported(GetParam())) {
      GTEST_SKIP() << "this host cannot run the " << Cpu::LaneExecutorName(GetParam())
                   << " lane executor";
    }
    executor_under_test = GetParam();
  }
};
class LockstepBatch : public LaneExecutorTest {};
class LockstepFallback : public LaneExecutorTest {};

std::string ExecutorName(const ::testing::TestParamInfo<Cpu::LaneExecutor>& info) {
  return Cpu::LaneExecutorName(info.param);
}
const auto kExecutors =
    ::testing::Values(Cpu::LaneExecutor::kGeneric, Cpu::LaneExecutor::kAvx2);
INSTANTIATE_TEST_SUITE_P(Executors, LockstepBatch, kExecutors, ExecutorName);
INSTANTIATE_TEST_SUITE_P(Executors, LockstepFallback, kExecutors, ExecutorName);

// Every counter an inference can move, besides runtime.lockstep_fallbacks and
// runtime.lockstep_inferences.
const char* const kInferenceCounters[] = {
    "runtime.inferences",       "runtime.inference_cycles", "recovery.deadline_faults",
    "recovery.dual_run_mismatch", "recovery.snapshot_retry", "recovery.scrub_retry",
    "recovery.redeploy",        "recovery.permanent_failure"};

std::vector<uint64_t> InferenceCounters() {
  std::vector<uint64_t> values;
  for (const char* name : kInferenceCounters) {
    values.push_back(MetricsRegistry::Global().GetCounter(name).value());
  }
  return values;
}

std::vector<uint64_t> Delta(const std::vector<uint64_t>& after,
                            const std::vector<uint64_t>& before) {
  std::vector<uint64_t> d(after.size());
  for (size_t i = 0; i < d.size(); ++i) {
    d[i] = after[i] - before[i];
  }
  return d;
}

uint64_t Fallbacks() {
  return MetricsRegistry::Global().GetCounter("runtime.lockstep_fallbacks").value();
}

uint64_t LockstepInferences() {
  return MetricsRegistry::Global().GetCounter("runtime.lockstep_inferences").value();
}

void ExpectMachinesEqual(const Machine& a, const Machine& b) {
  const MachineSnapshot sa = a.Snapshot();
  const MachineSnapshot sb = b.Snapshot();
  ExpectSnapshotsEqual(sa, sb);
  ExpectFaultsEqual(sa.last_fault, sb.last_fault);
}

void ExpectResultsEqual(const GuardedResult& a, const GuardedResult& b) {
  EXPECT_EQ(a.ok, b.ok);
  EXPECT_EQ(a.prediction, b.prediction);
  EXPECT_EQ(a.faulted, b.faulted);
  EXPECT_EQ(a.sdc_detected, b.sdc_detected);
  EXPECT_EQ(a.resolved_by, b.resolved_by);
  EXPECT_EQ(a.detection_cycles, b.detection_cycles);
  EXPECT_EQ(a.retries, b.retries);
  EXPECT_EQ(a.active_encoding, b.active_encoding);
  EXPECT_EQ(a.corrupted_sections, b.corrupted_sections);
  ExpectFaultsEqual(a.first_fault, b.first_fault);
}

struct Shape {
  std::vector<size_t> dims;
  double density;
};

GuardedModel MakeGuarded(const Shape& shape, EncodingKind kind, uint64_t seed) {
  testutil::TestModelSpec spec;
  spec.dims = shape.dims;
  spec.density = shape.density;
  spec.encoding = kind;
  StatusOr<GuardedModel> gm = GuardedModel::Create(testutil::MakeTestModel(seed, spec));
  NEUROC_CHECK(gm.ok());
  return std::move(*gm);
}

// Two rounds of `batch` random inputs, through PredictBatch on one GuardedModel and one
// Predict at a time on its twin; the second round starts from the state the first left.
void ExpectBatchMatchesSequential(const Shape& shape, EncodingKind kind, size_t batch) {
  SCOPED_TRACE(std::string(EncodingKindName(kind)) + " dims " +
               std::to_string(shape.dims.front()) + "-" + std::to_string(shape.dims[1]) +
               " batch " + std::to_string(batch));
  const uint64_t seed = 40 + shape.dims[1] + batch;
  GuardedModel lockstep = MakeGuarded(shape, kind, seed);
  GuardedModel sequential = MakeGuarded(shape, kind, seed);
  lockstep.deployed().machine().cpu().SetLaneExecutorForTest(executor_under_test);
  Rng rng(seed);
  for (int round = 0; round < 2; ++round) {
    std::vector<std::vector<int8_t>> inputs;
    for (size_t i = 0; i < batch; ++i) {
      inputs.push_back(MakeRandomInput(shape.dims.front(), rng));
    }
    const uint64_t fallbacks = Fallbacks();
    const uint64_t lockstep_inferences = LockstepInferences();
    const std::vector<uint64_t> before_batch = InferenceCounters();
    std::vector<uint64_t> cycles;
    const std::vector<GuardedResult> got = lockstep.PredictBatch(inputs, &cycles);
    const std::vector<uint64_t> batch_delta = Delta(InferenceCounters(), before_batch);
    EXPECT_EQ(Fallbacks(), fallbacks) << "the batch did not run in lockstep";
    // PredictBatch runs chunks of 2 to kMaxLanes inputs in lockstep; a last input left
    // alone runs by itself.
    EXPECT_EQ(LockstepInferences() - lockstep_inferences,
              batch % Cpu::kMaxLanes == 1 ? batch - 1 : batch);
    if (batch > 1) {
      EXPECT_EQ(lockstep.deployed().machine().cpu().last_lane_executor(), executor_under_test);
    }

    const std::vector<uint64_t> before_loop = InferenceCounters();
    ASSERT_EQ(got.size(), batch);
    ASSERT_EQ(cycles.size(), batch);
    for (size_t i = 0; i < batch; ++i) {
      const GuardedResult want = sequential.Predict(inputs[i]);
      ExpectResultsEqual(got[i], want);
      EXPECT_EQ(cycles[i], sequential.deployed().report().cycles_per_inference);
    }
    EXPECT_EQ(batch_delta, Delta(InferenceCounters(), before_loop));
    const DeploymentReport& a = lockstep.deployed().report();
    const DeploymentReport& b = sequential.deployed().report();
    EXPECT_EQ(a.cycles_per_inference, b.cycles_per_inference);
    EXPECT_EQ(a.latency_ms, b.latency_ms);
    EXPECT_EQ(a.layer_cycles, b.layer_cycles);
    ExpectMachinesEqual(lockstep.deployed().machine(), sequential.deployed().machine());
  }
}

// Every batch size up to Cpu::kMaxLanes: full and partly filled lane widths of 2, 4
// and 8.
constexpr size_t kBatchSizes[] = {1, 2, 3, 4, 5, 6, 7, 8};

// The serve_mt models; 64-32-10 is also the fault campaign's shape.
TEST_P(LockstepBatch, ServeShapesMatchSequential) {
  const Shape shapes[] = {
      {{16, 12, 10}, 0.3}, {{16, 20, 10}, 0.2}, {{33, 32, 5}, 0.2}, {{64, 32, 10}, 0.2}};
  for (const Shape& shape : shapes) {
    for (EncodingKind kind : kAllEncodingKinds) {
      for (size_t batch : kBatchSizes) {
        ExpectBatchMatchesSequential(shape, kind, batch);
      }
    }
  }
}

// The mcu_infer models: 784-128-10 in every encoding, and 784-256-10 in delta (the
// encoding its unrolled request falls back to).
TEST_P(LockstepBatch, McuShapesMatchSequential) {
  for (EncodingKind kind : kAllEncodingKinds) {
    for (size_t batch : kBatchSizes) {
      ExpectBatchMatchesSequential({{784, 128, 10}, 0.05}, kind, batch);
    }
  }
  for (size_t batch : kBatchSizes) {
    ExpectBatchMatchesSequential({{784, 256, 10}, 0.15}, EncodingKind::kDelta, batch);
  }
}

// A batch long enough for several lockstep chunks, with a chunk of one left over.
TEST_P(LockstepBatch, LongBatchMatchesSequential) {
  ExpectBatchMatchesSequential({{64, 32, 10}, 0.2}, EncodingKind::kBlock, 19);
}

// A faulting lane at the guarded level: with the kernel code overwritten by undefined
// instructions the batch falls back, and every input gets the fault report and recovery
// rung it gets from Predict (the scrub rung repairs flash for the rest of the batch).
TEST_P(LockstepBatch, FaultingBatchMatchesSequential) {
  const Shape shape{{64, 32, 10}, 0.2};
  GuardedModel lockstep = MakeGuarded(shape, EncodingKind::kCsc, 9);
  GuardedModel sequential = MakeGuarded(shape, EncodingKind::kCsc, 9);
  lockstep.deployed().machine().cpu().SetLaneExecutorForTest(executor_under_test);
  for (GuardedModel* gm : {&lockstep, &sequential}) {
    const AssembledProgram& code = gm->deployed().kernel_program();
    std::vector<uint8_t> udf(code.bytes.size());
    for (size_t i = 0; i + 1 < udf.size(); i += 2) {
      udf[i] = 0x00;
      udf[i + 1] = 0xDE;  // udf #0
    }
    gm->deployed().machine().LoadBytes(code.base_addr, udf);
  }
  Rng rng(9);
  std::vector<std::vector<int8_t>> inputs;
  for (int i = 0; i < 4; ++i) {
    inputs.push_back(MakeRandomInput(64, rng));
  }
  const uint64_t fallbacks = Fallbacks();
  const uint64_t lockstep_inferences = LockstepInferences();
  const std::vector<uint64_t> before_batch = InferenceCounters();
  const std::vector<GuardedResult> got = lockstep.PredictBatch(inputs);
  const std::vector<uint64_t> batch_delta = Delta(InferenceCounters(), before_batch);
  EXPECT_EQ(Fallbacks(), fallbacks + 1);
  EXPECT_EQ(LockstepInferences(), lockstep_inferences);
  const std::vector<uint64_t> before_loop = InferenceCounters();
  ASSERT_EQ(got.size(), inputs.size());
  for (size_t i = 0; i < inputs.size(); ++i) {
    const GuardedResult want = sequential.Predict(inputs[i]);
    ExpectResultsEqual(got[i], want);
  }
  EXPECT_TRUE(got[0].faulted);
  EXPECT_EQ(got[0].resolved_by, RecoveryRung::kScrubRetry);
  EXPECT_EQ(batch_delta, Delta(InferenceCounters(), before_loop));
  ExpectMachinesEqual(lockstep.deployed().machine(), sequential.deployed().machine());
}

// --- Hand-assembled fragments through Machine::TryRunLockstep ---------------------------

constexpr uint32_t kFlash = 0x08000000;
constexpr uint32_t kRam = 0x20000000;
// Each lane's 4-byte input; every fragment is called with r0 = kInput.
constexpr uint32_t kInput = kRam + 0x100;

struct Fragment {
  std::string source;  // assembled at kFlash; label `f` is called, then `g` if present
  MachineConfig config;
  uint64_t cycle_budget = 0;
  // Where each inference's input is written and its output read back.
  uint32_t input_addr = kInput;
  uint32_t output_addr = kInput;
  uint32_t output_size = 4;
};

std::vector<LockstepCall> Calls(const AssembledProgram& p) {
  std::vector<LockstepCall> calls = {{p.SymbolAddr("f"), kInput}};
  if (p.symbols.count("g") != 0) {
    calls.push_back({p.SymbolAddr("g"), kInput});
  }
  return calls;
}

// One input after another, as DeployedModel::TryPredict runs an inference: host write,
// then the calls, each with what the earlier ones left of the budget; a spent budget
// stops the inference at the call boundary. Returns each inference's output bytes.
std::vector<std::vector<uint8_t>> RunSequential(
    Machine& m, const Fragment& frag, const std::vector<LockstepCall>& calls,
    const std::vector<std::vector<uint8_t>>& inputs) {
  const uint64_t budget = frag.cycle_budget;
  std::vector<std::vector<uint8_t>> outputs;
  for (const std::vector<uint8_t>& input : inputs) {
    m.LoadBytes(frag.input_addr, input);
    uint64_t used = 0;
    for (const LockstepCall& call : calls) {
      if (budget != 0 && used >= budget) {
        break;
      }
      StatusOr<uint64_t> cycles =
          m.TryCallFunction(call.entry, {call.arg}, budget == 0 ? 0 : budget - used);
      if (!cycles.ok()) {
        break;
      }
      used += *cycles;
    }
    outputs.emplace_back(frag.output_size);
    m.memory().HostRead(frag.output_addr, outputs.back());
  }
  return outputs;
}

struct BatchRun {
  bool committed = false;
  std::vector<std::vector<uint8_t>> outputs;  // per input, as RunSequential returns them
};

// The batch path under test: lockstep, and on a fallback the sequential loop. A batch
// that falls back must leave the machine untouched.
BatchRun RunBatch(Machine& m, const Fragment& frag, const std::vector<LockstepCall>& calls,
                  const std::vector<std::vector<uint8_t>>& inputs) {
  std::vector<std::span<const uint8_t>> spans(inputs.begin(), inputs.end());
  neuroc::LockstepBatch batch;
  batch.input_addr = frag.input_addr;
  batch.inputs = spans;
  batch.calls = calls;
  batch.cycle_budget = frag.cycle_budget;
  batch.output_addr = frag.output_addr;
  batch.output_size = frag.output_size;
  const MachineSnapshot before = m.Snapshot();
  if (std::optional<LockstepResult> result = m.TryRunLockstep(batch)) {
    return {true, std::move(result->outputs)};
  }
  {
    SCOPED_TRACE("a batch that falls back leaves the machine untouched");
    const MachineSnapshot after = m.Snapshot();
    ExpectSnapshotsEqual(after, before);
    ExpectFaultsEqual(after.last_fault, before.last_fault);
  }
  return {false, RunSequential(m, frag, calls, inputs)};
}

// Runs `inputs` through the fragment as a batch on one machine and one by one on a twin,
// with `attach` applied to both first, and expects identical machines and per-input
// outputs. Returns whether the batch committed.
bool BatchMatchesSequential(const Fragment& frag,
                            const std::vector<std::vector<uint8_t>>& inputs,
                            const std::function<void(Machine&)>& attach = nullptr,
                            const std::function<void(Machine&, Machine&)>& compare =
                                nullptr) {
  const AssembledProgram p = Assemble(frag.source, kFlash);
  const std::vector<LockstepCall> calls = Calls(p);
  Machine batch(frag.config);
  Machine sequential(frag.config);
  batch.cpu().SetLaneExecutorForTest(executor_under_test);
  for (Machine* m : {&batch, &sequential}) {
    m->LoadBytes(kFlash, p.bytes);
    if (attach) {
      attach(*m);
    }
  }
  const BatchRun run = RunBatch(batch, frag, calls, inputs);
  if (run.committed) {
    EXPECT_EQ(batch.cpu().last_lane_executor(), executor_under_test);
  }
  EXPECT_EQ(run.outputs, RunSequential(sequential, frag, calls, inputs));
  ExpectMachinesEqual(batch, sequential);
  if (compare) {
    compare(batch, sequential);
  }
  return run.committed;
}

std::vector<std::vector<uint8_t>> Inputs(std::initializer_list<uint8_t> first_bytes) {
  std::vector<std::vector<uint8_t>> inputs;
  for (uint8_t b : first_bytes) {
    inputs.push_back({b, 0, 0, 0});
  }
  return inputs;
}

// Sets r2 from a branch on the input's first byte.
const Fragment kBranchOnData{R"(
f:
    ldrb r1, [r0, #0]
    movs r2, #0
    cmp r1, #0
    beq done
    movs r2, #7
done:
    strb r2, [r0, #1]
    bx lr
)", {}};

TEST_P(LockstepFallback, DataDependentBranch) {
  EXPECT_FALSE(BatchMatchesSequential(kBranchOnData, Inputs({0, 1, 1})));
  EXPECT_TRUE(BatchMatchesSequential(kBranchOnData, Inputs({1, 2, 3})));
}

// Loads from an address offset by the input's first byte.
const Fragment kAddressFromData{R"(
f:
    ldrb r1, [r0, #0]
    adds r1, r0, r1
    ldrb r2, [r1, #4]
    strb r2, [r0, #1]
    bx lr
)", {}};

TEST_P(LockstepFallback, DataDependentAddress) {
  EXPECT_FALSE(BatchMatchesSequential(kAddressFromData, Inputs({0, 0, 1})));
  EXPECT_TRUE(BatchMatchesSequential(kAddressFromData, Inputs({2, 2, 2})));
}

// Loads from 16 MB past the input when the input's first byte is 1: that lane faults on
// an unmapped address.
const Fragment kFaultOnData{R"(
f:
    ldrb r1, [r0, #0]
    lsls r1, r1, #24
    adds r1, r0, r1
    ldrb r2, [r1, #0]
    strb r2, [r0, #1]
    bx lr
)", {}};

// `n` inputs whose first byte is `same`, but for the last one's, which is `odd`.
std::vector<std::vector<uint8_t>> LastDiffers(size_t n, uint8_t same, uint8_t odd) {
  std::vector<std::vector<uint8_t>> inputs(n, std::vector<uint8_t>{same, 0, 0, 0});
  inputs.back()[0] = odd;
  return inputs;
}

// The last active lane of a partly filled width (3 lanes of 4, 5 to 7 of 8) diverges
// beside the lanes that mirror lane 0: by branch, by address, and by faulting.
TEST_P(LockstepFallback, DivergenceInLastActiveLane) {
  for (size_t n : {3, 5, 6, 7}) {
    SCOPED_TRACE("lanes " + std::to_string(n));
    EXPECT_FALSE(BatchMatchesSequential(kBranchOnData, LastDiffers(n, 1, 0)));
    EXPECT_TRUE(BatchMatchesSequential(kBranchOnData, LastDiffers(n, 1, 2)));
    EXPECT_FALSE(BatchMatchesSequential(kAddressFromData, LastDiffers(n, 2, 0)));
    EXPECT_TRUE(BatchMatchesSequential(kAddressFromData, LastDiffers(n, 2, 2)));
    EXPECT_FALSE(BatchMatchesSequential(kFaultOnData, LastDiffers(n, 0, 1)));
    EXPECT_TRUE(BatchMatchesSequential(kFaultOnData, LastDiffers(n, 0, 0)));
  }
}

// Stores into flash: every lane faults, at the same instruction.
TEST_P(LockstepFallback, FaultingLane) {
  const Fragment store_to_flash{R"(
f:
    ldr r1, =0x08000100
    str r0, [r1, #0]
    bx lr
)", {}};
  EXPECT_FALSE(BatchMatchesSequential(store_to_flash, Inputs({1, 2})));
}

// Accumulates the input into a word the previous inference left.
const Fragment kSramDependence{R"(
f:
    ldr r1, [r0, #4]
    ldrb r2, [r0, #0]
    adds r1, r1, r2
    str r1, [r0, #4]
    bx lr
)", {}};

TEST_P(LockstepFallback, SramReadBeforeWrite) {
  EXPECT_FALSE(BatchMatchesSequential(kSramDependence, Inputs({1, 1, 1})));
  // Adding zero leaves the word as it was: the next inference reads what it would
  // sequentially.
  EXPECT_TRUE(BatchMatchesSequential(kSramDependence, Inputs({0, 0, 0})));
}

// Accumulates the input into r4, which the previous inference left.
const Fragment kRegisterDependence{R"(
f:
    ldrb r2, [r0, #0]
    adds r4, r4, r2
    bx lr
)", {}};

TEST_P(LockstepFallback, RegisterReadBeforeWrite) {
  EXPECT_FALSE(BatchMatchesSequential(kRegisterDependence, Inputs({1, 1})));
  EXPECT_TRUE(BatchMatchesSequential(kRegisterDependence, Inputs({0, 0, 0})));
}

// Stores the carry the previous inference left, then leaves bit 0 of its input in C.
const Fragment kFlagDependence{R"(
f:
    movs r1, #0
    adcs r1, r1
    strb r1, [r0, #1]
    ldrb r2, [r0, #0]
    lsrs r2, r2, #1
    bx lr
)", {}};

TEST_P(LockstepFallback, FlagReadBeforeWrite) {
  EXPECT_FALSE(BatchMatchesSequential(kFlagDependence, Inputs({1, 1})));
  EXPECT_TRUE(BatchMatchesSequential(kFlagDependence, Inputs({0, 2, 4})));
}

// About 200 cycles and 100 instructions.
const char* const kCountedLoop = R"(
f:
    movs r1, #50
loop:
    subs r1, #1
    bne loop
    strb r1, [r0, #1]
    bx lr
)";

TEST_P(LockstepFallback, WatchdogDeadline) {
  Fragment frag{kCountedLoop, {}, /*cycle_budget=*/100};
  EXPECT_FALSE(BatchMatchesSequential(frag, Inputs({1, 2})));
  frag.cycle_budget = 10'000;
  EXPECT_TRUE(BatchMatchesSequential(frag, Inputs({1, 2})));
}

TEST_P(LockstepFallback, InstructionBudget) {
  Fragment frag{kCountedLoop, {}};
  frag.config.max_instructions = 60;
  EXPECT_FALSE(BatchMatchesSequential(frag, Inputs({1, 2})));
  frag.config.max_instructions = 1'000;
  EXPECT_TRUE(BatchMatchesSequential(frag, Inputs({1, 2})));
}

// The first call spends exactly the budget (bx costs 3 cycles): the second call's
// deadline falls on the boundary, where the inference stops without running it.
TEST_P(LockstepFallback, DeadlineOnCallBoundary) {
  const Fragment frag{R"(
f:
    bx lr
g:
    movs r1, #9
    strb r1, [r0, #1]
    bx lr
)", {}, /*cycle_budget=*/3};
  EXPECT_FALSE(BatchMatchesSequential(frag, Inputs({1, 2})));
}

// Calls a `bx lr` the host placed in SRAM: execution leaves compiled flash.
TEST_P(LockstepFallback, CodeOutsideFlash) {
  EXPECT_FALSE(BatchMatchesSequential(
      {R"(
f:
    ldr r1, =0x20000401
    bx r1
)", {}},
      Inputs({1, 2}), [](Machine& m) {
        const uint8_t bx_lr[] = {0x70, 0x47};
        m.LoadBytes(kRam + 0x400, bx_lr);
      }));
}

// Inputs or outputs outside SRAM: the batch declines up front, untouched.
TEST_P(LockstepFallback, InputOrOutputOutsideSram) {
  const AssembledProgram p = Assemble("f:\n    bx lr\n", kFlash);
  const std::vector<LockstepCall> calls = Calls(p);
  Machine m;
  m.cpu().SetLaneExecutorForTest(executor_under_test);
  m.LoadBytes(kFlash, p.bytes);
  const std::vector<std::vector<uint8_t>> inputs = Inputs({1, 2});
  std::vector<std::span<const uint8_t>> spans(inputs.begin(), inputs.end());
  const MachineSnapshot before = m.Snapshot();
  for (const uint32_t input_addr : {kFlash + 0x100, kRam + 16 * 1024 - 2, kRam - 4}) {
    neuroc::LockstepBatch batch;
    batch.input_addr = input_addr;
    batch.inputs = spans;
    batch.calls = calls;
    EXPECT_FALSE(m.TryRunLockstep(batch).has_value());
  }
  for (const uint32_t output_addr : {kFlash, kRam + 16 * 1024 - 2}) {
    neuroc::LockstepBatch batch;
    batch.input_addr = kInput;
    batch.inputs = spans;
    batch.calls = calls;
    batch.output_addr = output_addr;
    batch.output_size = 4;
    EXPECT_FALSE(m.TryRunLockstep(batch).has_value());
  }
  ExpectSnapshotsEqual(m.Snapshot(), before);
}

// A fragment with stack traffic and a loop, for the observers.
const Fragment kObserved{R"(
f:
    push {r4, lr}
    ldrb r1, [r0, #0]
    movs r4, #3
loop:
    adds r1, r1, #1
    subs r4, #1
    bne loop
    strb r1, [r0, #1]
    pop {r4, pc}
)", {}};

TEST_P(LockstepFallback, NoObserverCommits) {
  EXPECT_TRUE(BatchMatchesSequential(kObserved, Inputs({1, 2, 3})));
}

// With a flash wait state, literal loads and taken branches add dynamic cycles, which
// every lane accrues alike.
TEST_P(LockstepBatch, FlashWaitStatesMatchSequential) {
  Fragment frag{R"(
f:
    push {r4, lr}
    ldr r4, =0x01020304
    ldrb r1, [r0, #0]
    movs r2, #3
loop:
    adds r1, r1, r4
    subs r2, #1
    bne loop
    str r1, [r0, #4]
    pop {r4, pc}
)", {}};
  frag.config.cycle_model.flash_wait_states = 1;
  EXPECT_TRUE(BatchMatchesSequential(frag, Inputs({1, 2, 3})));
}

class CountingProbe : public CpuProbe {
 public:
  void OnRetire(uint32_t addr, Op op, uint32_t cycles) override {
    (void)op;
    retired.push_back({addr, cycles});
  }
  std::vector<std::pair<uint32_t, uint32_t>> retired;
};

TEST_P(LockstepFallback, ProbeAttached) {
  std::map<const Machine*, CountingProbe> probes;
  EXPECT_FALSE(BatchMatchesSequential(
      kObserved, Inputs({1, 2, 3}),
      [&](Machine& m) { m.cpu().set_probe(&probes[&m]); },
      [&](Machine& a, Machine& b) {
        EXPECT_EQ(probes[&a].retired, probes[&b].retired);
        a.cpu().set_probe(nullptr);
        b.cpu().set_probe(nullptr);
      }));
}

TEST_P(LockstepFallback, HeatmapAttached) {
  EXPECT_FALSE(BatchMatchesSequential(kObserved, Inputs({1, 2, 3}),
                                      [](Machine& m) { m.memory().EnableHeatmap(64); }));
}

TEST_P(LockstepFallback, StackWatchAttached) {
  EXPECT_FALSE(BatchMatchesSequential(
      kObserved, Inputs({1, 2, 3}),
      [](Machine& m) { m.memory().EnableStackWatch(kRam + 0x200); },
      [](Machine& a, Machine& b) {
        EXPECT_EQ(a.memory().stack_low_water(), b.memory().stack_low_water());
      }));
}

TEST_P(LockstepFallback, BlockProfileAttached) {
  EXPECT_FALSE(BatchMatchesSequential(
      kObserved, Inputs({1, 2, 3}), [](Machine& m) { m.cpu().EnableBlockProfile(true); },
      [](Machine& a, Machine& b) {
        const auto& pa = a.cpu().CollectBlockProfile();
        const auto& pb = b.cpu().CollectBlockProfile();
        ASSERT_EQ(pa.size(), pb.size());
        for (auto ia = pa.begin(), ib = pb.begin(); ia != pa.end(); ++ia, ++ib) {
          EXPECT_EQ(ia->first, ib->first);
          EXPECT_EQ(ia->second.count, ib->second.count);
          EXPECT_EQ(ia->second.cycles, ib->second.cycles);
        }
      }));
}

TEST_P(LockstepFallback, AlarmArmed) {
  std::map<const Machine*, int> fired;
  EXPECT_FALSE(BatchMatchesSequential(
      kObserved, Inputs({1, 2, 3}),
      [&](Machine& m) { m.cpu().SetInstructionAlarm(20, [&fired, &m] { ++fired[&m]; }); },
      [&](Machine& a, Machine& b) {
        EXPECT_EQ(fired[&a], 1);
        EXPECT_EQ(fired[&a], fired[&b]);
      }));
}

TEST_P(LockstepFallback, BlockDispatchOff) {
  EXPECT_FALSE(BatchMatchesSequential(kObserved, Inputs({1, 2}),
                                      [](Machine& m) { m.cpu().EnableBlockCompile(false); }));
}

// --- Sub-word lane memory --------------------------------------------------------------
//
// The lanes keep SRAM as lane words: an aligned guest word of every lane is one host
// vector, a byte or halfword access shifts and masks within it, and the bytes a batch
// has not written come from the base SRAM. These fragments store, load and read back
// bytes of words that are partly written and partly base, at every width and legal
// offset, on every batch size.

// A 16-byte window whose base pattern is odd bytes, half of them with the sign bit set.
// The lanes write only even bytes (LaneInputs), so a byte taken from the wrong side
// shows.
constexpr uint32_t kWindow = kRam + 0x200;

void LoadWindowBase(Machine& m) {
  std::vector<uint8_t> pattern(16);
  for (size_t i = 0; i < pattern.size(); ++i) {
    pattern[i] = static_cast<uint8_t>((0x35 + 0x4C * i) | 1);
  }
  m.LoadBytes(kWindow, pattern);
}

// `n` inputs, one per lane, of `size` random even bytes.
std::vector<std::vector<uint8_t>> LaneInputs(size_t n, size_t size, uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<uint8_t>> inputs(n, std::vector<uint8_t>(size));
  for (std::vector<uint8_t>& input : inputs) {
    for (uint8_t& b : input) {
      b = static_cast<uint8_t>(rng.NextU32() & 0xFE);
    }
  }
  return inputs;
}

std::string Hex(uint32_t x) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "0x%08X", x);
  return buf;
}

// One load of `size` bytes (1, 2 or 4) at [r4, #off] into r3; signed ones take their
// offset from r5.
std::string Load(uint32_t size, bool sign, uint32_t off) {
  const std::string o = std::to_string(off);
  if (sign) {
    std::string s = "    movs r5, #";
    s += o + (size == 1 ? "\n    ldrsb" : "\n    ldrsh") + " r3, [r4, r5]\n";
    return s;
  }
  std::string s = size == 1 ? "    ldrb" : size == 2 ? "    ldrh" : "    ldr";
  s += " r3, [r4, #" + o + "]\n";
  return s;
}

// Stores r3 to output word `slot`, from [r0, #8] on.
std::string ToOutput(int slot) {
  std::string s = "    str r3, [r0, #";
  s += std::to_string(8 + 4 * slot) + "]\n";
  return s;
}

// Each lane's two input words in r1 and r2, and r4 pointing at `addr`.
std::string Prologue(uint32_t addr) {
  std::string s = "f:\n    ldr r4, =";
  s += Hex(addr) + "\n    ldr r1, [r0, #0]\n    ldr r2, [r0, #4]\n";
  return s;
}

// The 13 loads of every width, signedness and legal offset of the word at [r4], each to
// its own output word.
constexpr int kWordLoads = 13;
std::string LoadEveryOffset() {
  std::string s;
  int slot = 0;
  for (const bool sign : {false, true}) {
    for (uint32_t off = 0; off < 4; ++off) {
      s += Load(1, sign, off) + ToOutput(slot++);
    }
    for (uint32_t off = 0; off < 4; off += 2) {
      s += Load(2, sign, off) + ToOutput(slot++);
    }
  }
  return s + Load(4, false, 0) + ToOutput(slot);
}

// Stores that write exactly the bytes `written` (a nibble) of the word at [r4]: a
// halfword where both its bytes are written, else bytes, high halfword first and
// alternating r1 and r2, so a byte or halfword store lands beside bytes already written
// with other bytes in its register.
std::string StoreBytes(uint8_t written) {
  std::string s;
  bool r1 = true;
  for (int h = 1; h >= 0; --h) {
    const uint32_t pair = (written >> (2 * h)) & 3u;
    if (pair == 0) {
      continue;
    }
    const uint32_t off = 2 * h + (pair == 2 ? 1 : 0);
    s += pair == 3 ? "    strh " : "    strb ";
    s += std::string(r1 ? "r1" : "r2") + ", [r4, #" + std::to_string(off) + "]\n";
    r1 = !r1;
  }
  return s;
}

// Writes the bytes `written` of a base word (or, with `whole`, all of it with one str),
// then loads it at every offset.
Fragment SubWordFragment(uint8_t written, bool whole) {
  Fragment frag;
  frag.source = Prologue(kWindow + 4) + (whole ? "    str r1, [r4, #0]\n" : StoreBytes(written)) +
                LoadEveryOffset() + "    bx lr\n";
  frag.output_size = 8 + 4 * kWordLoads;
  return frag;
}

TEST_P(LockstepBatch, SubWordStoresAndLoadsMatchSequential) {
  for (uint32_t written = 0; written <= 16; ++written) {  // 16: one str
    const Fragment frag = SubWordFragment(static_cast<uint8_t>(written & 0xF), written == 16);
    for (size_t batch : kBatchSizes) {
      SCOPED_TRACE("written " + std::to_string(written) + " batch " + std::to_string(batch));
      EXPECT_TRUE(
          BatchMatchesSequential(frag, LaneInputs(batch, 8, 100 * written + batch), LoadWindowBase));
    }
  }
}

// Inputs of odd length at odd addresses: the words at either end are partly input and
// partly base. Every word the input touches is loaded at each byte, each halfword and
// whole.
TEST_P(LockstepBatch, OddInputsAtOddAddressesMatchSequential) {
  for (uint32_t start : {1u, 3u}) {
    for (size_t size : {1, 3, 5, 9}) {
      Fragment frag;
      frag.input_addr = kWindow + start;
      frag.source = "f:\n    ldr r4, =" + Hex(kWindow) + "\n";
      int slot = 0;
      for (uint32_t word = 0; word < 12; word += 4) {
        for (uint32_t off = 0; off < 4; ++off) {
          frag.source += Load(1, off % 2 == 1, word + off) + ToOutput(slot++);
        }
        frag.source += Load(2, false, word) + ToOutput(slot++);
        frag.source += Load(2, true, word + 2) + ToOutput(slot++);
        frag.source += Load(4, false, word) + ToOutput(slot++);
      }
      frag.source += "    bx lr\n";
      frag.output_size = 8 + 4 * static_cast<uint32_t>(slot);
      for (size_t batch : kBatchSizes) {
        SCOPED_TRACE("input at +" + std::to_string(start) + " size " + std::to_string(size) +
                     " batch " + std::to_string(batch));
        EXPECT_TRUE(
            BatchMatchesSequential(frag, LaneInputs(batch, size, 31 * size + batch), LoadWindowBase));
      }
    }
  }
}

// Outputs read back from words the lanes wrote only in part, at odd and even addresses:
// the bytes the lanes did not write read as the base.
TEST_P(LockstepBatch, OutputsFromPartlyWrittenWordsMatchSequential) {
  Fragment frag;
  frag.source = Prologue(kWindow) + R"(
    strb r1, [r4, #2]
    strh r2, [r4, #6]
    lsrs r1, r1, #8
    strb r1, [r4, #9]
    bx lr
)";
  for (uint32_t start : {0u, 1u, 3u}) {
    for (uint32_t size : {1u, 6u, 11u}) {
      frag.output_addr = kWindow + start;
      frag.output_size = size;
      for (size_t batch : kBatchSizes) {
        SCOPED_TRACE("output at +" + std::to_string(start) + " size " + std::to_string(size) +
                     " batch " + std::to_string(batch));
        EXPECT_TRUE(BatchMatchesSequential(frag, LaneInputs(batch, 8, 57 * size + batch),
                                           LoadWindowBase));
      }
    }
  }
}

// An SRAM whose size is not a multiple of 4 (16 KB plus 1, 2 or 3 bytes): its last word
// lies partly past the end. Loads of its bytes in range merge the base from those bytes
// only, before and after a lane writes its first byte; a load or store that crosses the
// end faults on every lane, and the batch falls back.
TEST_P(LockstepBatch, SramSizeNotAMultipleOfFour) {
  constexpr uint32_t kLastWord = kRam + 16 * 1024;
  for (uint32_t tail : {1u, 2u, 3u}) {
    SCOPED_TRACE("tail " + std::to_string(tail));
    std::string loads;
    int slot = 0;
    for (uint32_t off = 0; off < tail; ++off) {
      loads += Load(1, false, off) + ToOutput(slot++);
      loads += Load(1, true, off) + ToOutput(slot++);
    }
    if (tail >= 2) {
      loads += Load(2, false, 0) + ToOutput(slot++);
      loads += Load(2, true, 0) + ToOutput(slot++);
    }
    Fragment read;
    read.config.ram_size = 16 * 1024 + tail;
    read.source = Prologue(kLastWord) + loads + "    bx lr\n";
    read.output_size = 8 + 4 * static_cast<uint32_t>(slot);
    Fragment write = read;
    write.source = Prologue(kLastWord) + "    strb r1, [r4, #0]\n" + loads + "    bx lr\n";
    Fragment cross_load = read;
    cross_load.source = Prologue(kLastWord) + Load(4, false, 0) + ToOutput(0) + "    bx lr\n";
    Fragment cross_store = read;
    cross_store.source = Prologue(kLastWord) + "    strh r1, [r4, #" +
                         std::to_string(tail & ~1u) + "]\n    bx lr\n";
    const auto base = [tail](Machine& m) {
      const uint8_t pattern[] = {0x81, 0x35, 0xF3};
      m.LoadBytes(kLastWord, std::span<const uint8_t>(pattern, tail));
    };
    for (size_t batch : kBatchSizes) {
      SCOPED_TRACE("batch " + std::to_string(batch));
      const std::vector<std::vector<uint8_t>> inputs = LaneInputs(batch, 8, tail * 10 + batch);
      EXPECT_TRUE(BatchMatchesSequential(read, inputs, base));
      EXPECT_TRUE(BatchMatchesSequential(write, inputs, base));
      EXPECT_FALSE(BatchMatchesSequential(cross_load, inputs, base));
      if (tail % 2 == 1) {
        EXPECT_FALSE(BatchMatchesSequential(cross_store, inputs, base));
      }
    }
  }
}

// A seeded straight-line fragment of 16 loads and stores of random width, signedness and
// aligned offset over the window, each load's value going to the output. A store to a
// byte an earlier load read from the base makes the inference depend on the one before
// it, and the batch falls back unless it wrote the base value back. One fragment in
// eight may store anywhere; the others store only to bytes not read first, and load
// where no such store fits.
Fragment RandomMemoryFragment(Rng& rng) {
  constexpr int kOps = 16;
  const bool may_depend = rng.NextBool(1.0 / 8);
  Fragment frag;
  frag.source = Prologue(kWindow) + "    adds r3, r1, r2\n";
  bool written[16] = {};
  bool read_first[16] = {};
  int slot = 0;
  for (int i = 0; i < kOps; ++i) {
    const uint32_t size = 1u << rng.NextBounded(3);
    uint32_t off = size * static_cast<uint32_t>(rng.NextBounded(16 / size));
    std::vector<uint32_t> independent;
    for (uint32_t o = 0; o < 16; o += size) {
      if (std::none_of(read_first + o, read_first + o + size, [](bool b) { return b; })) {
        independent.push_back(o);
      }
    }
    if (rng.NextBool(0.5) && (may_depend || !independent.empty())) {
      if (!may_depend) {
        off = independent[rng.NextBounded(independent.size())];
      }
      const char* const regs[] = {"r1", "r2", "r3"};
      frag.source += size == 1 ? "    strb " : size == 2 ? "    strh " : "    str ";
      frag.source += std::string(regs[rng.NextBounded(3)]) + ", [r4, #" +
                     std::to_string(off) + "]\n";
      std::fill(written + off, written + off + size, true);
    } else {
      frag.source += Load(size, size < 4 && rng.NextBool(0.5), off) + ToOutput(slot++);
      for (uint32_t b = off; b < off + size; ++b) {
        read_first[b] = read_first[b] || !written[b];
      }
    }
  }
  frag.source += "    bx lr\n";
  frag.output_size = 8 + 4 * kOps;
  return frag;
}

TEST_P(LockstepBatch, RandomLoadStoreFragmentsMatchSequential) {
  constexpr int kFragments = 96;
  Rng rng(2903);
  int committed = 0;
  for (int i = 0; i < kFragments; ++i) {
    const size_t batch = kBatchSizes[static_cast<size_t>(i) % std::size(kBatchSizes)];
    const Fragment frag = RandomMemoryFragment(rng);
    SCOPED_TRACE("fragment " + std::to_string(i) + " batch " + std::to_string(batch) + "\n" +
                 frag.source);
    committed += BatchMatchesSequential(frag, LaneInputs(batch, 8, 7000 + i), LoadWindowBase);
  }
  EXPECT_GE(committed, kFragments * 3 / 4);
}

// The hook switches the executor both ways, last_lane_executor() names the one that
// ran, and without the hook RunLanes runs the host's best.
TEST(LaneExecutor, HookSwitchesExecutor) {
  using E = Cpu::LaneExecutor;
  const AssembledProgram p = Assemble(kObserved.source, kFlash);
  const std::vector<std::vector<uint8_t>> inputs = Inputs({1, 2, 3});
  const bool avx2 = Cpu::LaneExecutorSupported(E::kAvx2);
  Machine host_choice;
  host_choice.LoadBytes(kFlash, p.bytes);
  EXPECT_FALSE(host_choice.cpu().last_lane_executor().has_value());
  ASSERT_TRUE(RunBatch(host_choice, kObserved, Calls(p), inputs).committed);
  EXPECT_EQ(host_choice.cpu().last_lane_executor(), avx2 ? E::kAvx2 : E::kGeneric);

  Machine m;
  m.LoadBytes(kFlash, p.bytes);
  for (const E executor : {E::kGeneric, E::kAvx2, E::kGeneric}) {
    if (!Cpu::LaneExecutorSupported(executor)) {
      continue;
    }
    SCOPED_TRACE(Cpu::LaneExecutorName(executor));
    m.cpu().SetLaneExecutorForTest(executor);
    ASSERT_TRUE(RunBatch(m, kObserved, Calls(p), inputs).committed);
    EXPECT_EQ(m.cpu().last_lane_executor(), executor);
  }
  if (!avx2) {
    GTEST_SKIP() << "this host has no AVX2 lane executor to switch to";
  }
}

}  // namespace
}  // namespace neuroc
