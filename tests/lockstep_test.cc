// Lockstep lanes: GuardedModel::PredictBatch runs its batches through the CPU's lockstep
// lanes, which must be invisible. After a batch, the machine snapshot, predictions,
// per-inference cycles, layer cycles and metrics must equal those of one Predict per
// input, on every encoding and batch geometry the benchmarks use. And every condition
// that makes lockstep inexact — lanes disagreeing on a branch or an address, a faulting
// lane, the instruction budget or watchdog deadline, an attached observer, an inference
// reading state the previous one left — must make the batch fall back with the machine
// untouched, so the sequential rerun gives exactly the sequential result. The positive
// controls show the checks compare values: the same fragments commit when the lanes do
// agree.

#include <gtest/gtest.h>

#include <cstdint>
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

// Every counter an inference can move, besides runtime.lockstep_fallbacks.
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
  Rng rng(seed);
  for (int round = 0; round < 2; ++round) {
    std::vector<std::vector<int8_t>> inputs;
    for (size_t i = 0; i < batch; ++i) {
      inputs.push_back(MakeRandomInput(shape.dims.front(), rng));
    }
    const uint64_t fallbacks = Fallbacks();
    const std::vector<uint64_t> before_batch = InferenceCounters();
    std::vector<uint64_t> cycles;
    const std::vector<GuardedResult> got = lockstep.PredictBatch(inputs, &cycles);
    const std::vector<uint64_t> batch_delta = Delta(InferenceCounters(), before_batch);
    EXPECT_EQ(Fallbacks(), fallbacks) << "the batch did not run in lockstep";

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

constexpr size_t kBatchSizes[] = {1, 2, 3, 8};

// The serve_mt models; 64-32-10 is also the fault campaign's shape.
TEST(LockstepBatch, ServeShapesMatchSequential) {
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
TEST(LockstepBatch, McuShapesMatchSequential) {
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
TEST(LockstepBatch, LongBatchMatchesSequential) {
  ExpectBatchMatchesSequential({{64, 32, 10}, 0.2}, EncodingKind::kBlock, 19);
}

// A faulting lane at the guarded level: with the kernel code overwritten by undefined
// instructions the batch falls back, and every input gets the fault report and recovery
// rung it gets from Predict (the scrub rung repairs flash for the rest of the batch).
TEST(LockstepBatch, FaultingBatchMatchesSequential) {
  const Shape shape{{64, 32, 10}, 0.2};
  GuardedModel lockstep = MakeGuarded(shape, EncodingKind::kCsc, 9);
  GuardedModel sequential = MakeGuarded(shape, EncodingKind::kCsc, 9);
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
  const std::vector<uint64_t> before_batch = InferenceCounters();
  const std::vector<GuardedResult> got = lockstep.PredictBatch(inputs);
  const std::vector<uint64_t> batch_delta = Delta(InferenceCounters(), before_batch);
  EXPECT_EQ(Fallbacks(), fallbacks + 1);
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
// stops the inference at the call boundary. Returns each inference's 4 bytes at kInput.
std::vector<std::vector<uint8_t>> RunSequential(
    Machine& m, const std::vector<LockstepCall>& calls, uint64_t budget,
    const std::vector<std::vector<uint8_t>>& inputs) {
  std::vector<std::vector<uint8_t>> outputs;
  for (const std::vector<uint8_t>& input : inputs) {
    m.LoadBytes(kInput, input);
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
    outputs.emplace_back(4);
    m.memory().HostRead(kInput, outputs.back());
  }
  return outputs;
}

struct BatchRun {
  bool committed = false;
  std::vector<std::vector<uint8_t>> outputs;  // per input, as RunSequential returns them
};

// The batch path under test: lockstep, and on a fallback the sequential loop. A batch
// that falls back must leave the machine untouched.
BatchRun RunBatch(Machine& m, const std::vector<LockstepCall>& calls, uint64_t budget,
                  const std::vector<std::vector<uint8_t>>& inputs) {
  std::vector<std::span<const uint8_t>> spans(inputs.begin(), inputs.end());
  LockstepBatch batch;
  batch.input_addr = kInput;
  batch.inputs = spans;
  batch.calls = calls;
  batch.cycle_budget = budget;
  batch.output_addr = kInput;
  batch.output_size = 4;
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
  return {false, RunSequential(m, calls, budget, inputs)};
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
  for (Machine* m : {&batch, &sequential}) {
    m->LoadBytes(kFlash, p.bytes);
    if (attach) {
      attach(*m);
    }
  }
  const BatchRun run = RunBatch(batch, calls, frag.cycle_budget, inputs);
  EXPECT_EQ(run.outputs, RunSequential(sequential, calls, frag.cycle_budget, inputs));
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

TEST(LockstepFallback, DataDependentBranch) {
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

TEST(LockstepFallback, DataDependentAddress) {
  EXPECT_FALSE(BatchMatchesSequential(kAddressFromData, Inputs({0, 0, 1})));
  EXPECT_TRUE(BatchMatchesSequential(kAddressFromData, Inputs({2, 2, 2})));
}

// Stores into flash: every lane faults, at the same instruction.
TEST(LockstepFallback, FaultingLane) {
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

TEST(LockstepFallback, SramReadBeforeWrite) {
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

TEST(LockstepFallback, RegisterReadBeforeWrite) {
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

TEST(LockstepFallback, FlagReadBeforeWrite) {
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

TEST(LockstepFallback, WatchdogDeadline) {
  Fragment frag{kCountedLoop, {}, /*cycle_budget=*/100};
  EXPECT_FALSE(BatchMatchesSequential(frag, Inputs({1, 2})));
  frag.cycle_budget = 10'000;
  EXPECT_TRUE(BatchMatchesSequential(frag, Inputs({1, 2})));
}

TEST(LockstepFallback, InstructionBudget) {
  Fragment frag{kCountedLoop, {}};
  frag.config.max_instructions = 60;
  EXPECT_FALSE(BatchMatchesSequential(frag, Inputs({1, 2})));
  frag.config.max_instructions = 1'000;
  EXPECT_TRUE(BatchMatchesSequential(frag, Inputs({1, 2})));
}

// The first call spends exactly the budget (bx costs 3 cycles): the second call's
// deadline falls on the boundary, where the inference stops without running it.
TEST(LockstepFallback, DeadlineOnCallBoundary) {
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
TEST(LockstepFallback, CodeOutsideFlash) {
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
TEST(LockstepFallback, InputOrOutputOutsideSram) {
  const AssembledProgram p = Assemble("f:\n    bx lr\n", kFlash);
  const std::vector<LockstepCall> calls = Calls(p);
  Machine m;
  m.LoadBytes(kFlash, p.bytes);
  const std::vector<std::vector<uint8_t>> inputs = Inputs({1, 2});
  std::vector<std::span<const uint8_t>> spans(inputs.begin(), inputs.end());
  const MachineSnapshot before = m.Snapshot();
  for (const uint32_t input_addr : {kFlash + 0x100, kRam + 16 * 1024 - 2, kRam - 4}) {
    LockstepBatch batch;
    batch.input_addr = input_addr;
    batch.inputs = spans;
    batch.calls = calls;
    EXPECT_FALSE(m.TryRunLockstep(batch).has_value());
  }
  for (const uint32_t output_addr : {kFlash, kRam + 16 * 1024 - 2}) {
    LockstepBatch batch;
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

TEST(LockstepFallback, NoObserverCommits) {
  EXPECT_TRUE(BatchMatchesSequential(kObserved, Inputs({1, 2, 3})));
}

// With a flash wait state, literal loads and taken branches add dynamic cycles, which
// every lane accrues alike.
TEST(LockstepBatch, FlashWaitStatesMatchSequential) {
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

TEST(LockstepFallback, ProbeAttached) {
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

TEST(LockstepFallback, HeatmapAttached) {
  EXPECT_FALSE(BatchMatchesSequential(kObserved, Inputs({1, 2, 3}),
                                      [](Machine& m) { m.memory().EnableHeatmap(64); }));
}

TEST(LockstepFallback, StackWatchAttached) {
  EXPECT_FALSE(BatchMatchesSequential(
      kObserved, Inputs({1, 2, 3}),
      [](Machine& m) { m.memory().EnableStackWatch(kRam + 0x200); },
      [](Machine& a, Machine& b) {
        EXPECT_EQ(a.memory().stack_low_water(), b.memory().stack_low_water());
      }));
}

TEST(LockstepFallback, BlockProfileAttached) {
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

TEST(LockstepFallback, AlarmArmed) {
  std::map<const Machine*, int> fired;
  EXPECT_FALSE(BatchMatchesSequential(
      kObserved, Inputs({1, 2, 3}),
      [&](Machine& m) { m.cpu().SetInstructionAlarm(20, [&fired, &m] { ++fired[&m]; }); },
      [&](Machine& a, Machine& b) {
        EXPECT_EQ(fired[&a], 1);
        EXPECT_EQ(fired[&a], fired[&b]);
      }));
}

TEST(LockstepFallback, BlockDispatchOff) {
  EXPECT_FALSE(BatchMatchesSequential(kObserved, Inputs({1, 2}),
                                      [](Machine& m) { m.cpu().EnableBlockCompile(false); }));
  EXPECT_FALSE(BatchMatchesSequential(kObserved, Inputs({1, 2}),
                                      [](Machine& m) { m.cpu().EnableDecodeCache(false); }));
}

}  // namespace
}  // namespace neuroc
