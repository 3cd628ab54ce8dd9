// Instruction alarm: Cpu::SetInstructionAlarm must fire right after the same retired
// instruction on every decode path, with exactly the machine state the step interpreter
// shows there, and a callback that rewrites flash must take effect on the very next
// instruction. The oracle is a CpuProbe that counts retirements on the step interpreter
// (the mechanism mid-inference fault injection used before the alarm existed).

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <functional>
#include <set>
#include <vector>

#include "src/runtime/deployed_model.h"
#include "src/sim/fault_injector.h"
#include "src/sim/machine.h"
#include "tests/test_util.h"

namespace neuroc {
namespace {

using testutil::ExpectFaultsEqual;

using testutil::ConfigurePath;
using testutil::kAllPaths;
using testutil::Path;

// How RunStruck stops after the k-th instruction: by the instruction alarm, on any decode
// path, or by the oracle's counting probe — the oracle is a block-default machine, and the
// probe runs every instruction on the step interpreter.
enum class Strike { kAlarm, kProbeOracle };

NeuroCModel SmallModel(EncodingKind kind) {
  testutil::TestModelSpec spec;
  spec.dims = {48, 20, 10};
  spec.density = 0.2;
  spec.encoding = kind;
  return testutil::MakeTestModel(17, spec);
}

// Records the retired op stream and runs `at_k` on the k-th retirement (never for k = 0).
class CountingProbe : public CpuProbe {
 public:
  CountingProbe(uint64_t k, std::function<void()> at_k) : k_(k), at_k_(std::move(at_k)) {}
  void OnRetire(uint32_t addr, Op op, uint32_t cycles) override {
    (void)addr;
    (void)cycles;
    ops_.push_back(op);
    if (ops_.size() == k_) {
      at_k_();
    }
  }
  const std::vector<Op>& ops() const { return ops_; }

 private:
  uint64_t k_;
  std::function<void()> at_k_;
  std::vector<Op> ops_;
};

// What the alarm callback does besides recording the machine state.
enum class Action {
  kObserve,         // nothing: the inference must finish exactly as an unarmed one
  kPlantUndefined,  // overwrite the next instruction with `udf #0`: it must fault next
};

struct Outcome {
  bool fired = false;
  uint64_t at_cycles = 0;
  uint64_t at_instructions = 0;
  uint32_t at_pc = 0;
  std::array<uint32_t, 16> at_regs{};
  bool ok = false;
  std::vector<int8_t> output;
  FaultReport fault;
  MachineSnapshot final_state;
};

// One inference from pristine state with the strike after the k-th retired instruction.
Outcome RunStruck(DeployedModel& dm, Strike strike_by, uint64_t k, Action action,
                  const std::vector<int8_t>& input) {
  dm.Scrub();
  dm.machine().memory().EnableHeatmap(64);
  Cpu& cpu = dm.machine().cpu();
  Outcome out;
  const auto strike = [&] {
    out.fired = true;
    out.at_cycles = cpu.cycles();
    out.at_instructions = cpu.instructions();
    out.at_pc = cpu.pc();
    for (int r = 0; r < 16; ++r) {
      out.at_regs[static_cast<size_t>(r)] = cpu.reg(r);
    }
    if (action == Action::kPlantUndefined && dm.machine().memory().InFlash(cpu.pc())) {
      const uint8_t udf[2] = {0x00, 0xDE};
      dm.machine().memory().HostWrite(cpu.pc(), udf);
    }
  };
  CountingProbe probe(k, strike);
  if (strike_by == Strike::kProbeOracle) {
    cpu.set_probe(&probe);
  } else {
    cpu.SetInstructionAlarm(cpu.instructions() + k, strike);
  }
  out.ok = dm.TryPredict(input).ok();
  cpu.set_probe(nullptr);
  EXPECT_FALSE(cpu.instruction_alarm_armed());  // one-shot: fired and disarmed
  cpu.ClearInstructionAlarm();
  out.output = dm.LastOutput();
  out.fault = dm.machine().last_fault();
  out.final_state = dm.machine().Snapshot();
  return out;
}

bool EndsBlock(Op op) {
  switch (op) {
    case Op::kB:
    case Op::kBcond:
    case Op::kBl:
    case Op::kBx:
    case Op::kBlx:
    case Op::kPop:
      return true;
    default:
      return false;
  }
}

// Strike points: the first two instructions, the last two, and both sides of block
// boundaries early, midway and late in the inference, plus one point inside a block.
std::set<uint64_t> StrikePoints(const std::vector<Op>& ops) {
  const uint64_t n = ops.size();
  std::set<uint64_t> ks = {1, 2, n - 1, n};
  std::vector<uint64_t> ends;
  for (uint64_t i = 0; i < n; ++i) {
    if (EndsBlock(ops[i])) {
      ends.push_back(i + 1);
    }
  }
  for (const size_t pick : {size_t{0}, ends.size() / 2, ends.size() - 1}) {
    const uint64_t end = ends[pick];
    ks.insert(end);
    if (end < n) {
      ks.insert(end + 1);
    }
    if (end > 3 && !EndsBlock(ops[end - 2])) {
      ks.insert(end - 1);  // the instruction before a terminator: mid-block
    }
  }
  return ks;
}

class AlarmParityTest : public ::testing::TestWithParam<EncodingKind> {};

TEST_P(AlarmParityTest, FiresAtTheSameInstructionOnEveryPath) {
  const EncodingKind kind = GetParam();
  std::vector<DeployedModel> machines;
  for (const Path path : kAllPaths) {
    machines.push_back(DeployedModel::Deploy(SmallModel(kind)));
    ConfigurePath(machines.back().machine().cpu(), path);
  }
  machines.push_back(DeployedModel::Deploy(SmallModel(kind)));  // the probe oracle
  Rng rng(23);
  const std::vector<int8_t> input = MakeRandomInput(machines[0].input_dim(), rng);

  // Unarmed reference inference: its retired op stream picks the strike points, and an
  // observe-only strike must leave every final quantity exactly as it left them.
  DeployedModel& oracle = machines.back();
  oracle.Scrub();
  oracle.machine().memory().EnableHeatmap(64);
  CountingProbe recorder(0, [] {});
  oracle.machine().cpu().set_probe(&recorder);
  ASSERT_TRUE(oracle.TryPredict(input).ok());
  oracle.machine().cpu().set_probe(nullptr);
  const std::vector<int8_t> clean_output = oracle.LastOutput();
  const MachineSnapshot clean_state = oracle.machine().Snapshot();
  ASSERT_GT(recorder.ops().size(), 8u);

  for (const uint64_t k : StrikePoints(recorder.ops())) {
    for (const Action action : {Action::kObserve, Action::kPlantUndefined}) {
      SCOPED_TRACE(::testing::Message() << EncodingKindName(kind) << " k=" << k
                                        << " action=" << static_cast<int>(action));
      const Outcome want = RunStruck(oracle, Strike::kProbeOracle, k, action, input);
      ASSERT_TRUE(want.fired);
      EXPECT_EQ(want.at_instructions - oracle.pristine_snapshot().cpu.instructions, k);
      if (action == Action::kObserve) {
        EXPECT_TRUE(want.ok);
        EXPECT_EQ(want.output, clean_output);
        testutil::ExpectSnapshotsEqual(want.final_state, clean_state);
      } else if (oracle.machine().memory().InFlash(want.at_pc)) {
        EXPECT_FALSE(want.ok);
        EXPECT_EQ(want.fault.code, ErrorCode::kUndefinedInstruction);
        EXPECT_EQ(want.fault.pc, want.at_pc);
      }
      for (size_t p = 0; p < std::size(kAllPaths); ++p) {
        const Outcome got = RunStruck(machines[p], Strike::kAlarm, k, action, input);
        ASSERT_TRUE(got.fired);
        EXPECT_EQ(got.at_cycles, want.at_cycles);
        EXPECT_EQ(got.at_instructions, want.at_instructions);
        EXPECT_EQ(got.at_pc, want.at_pc);
        EXPECT_EQ(got.at_regs, want.at_regs);
        EXPECT_EQ(got.ok, want.ok);
        EXPECT_EQ(got.output, want.output);
        ExpectFaultsEqual(got.fault, want.fault);
        testutil::ExpectSnapshotsEqual(got.final_state, want.final_state);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllEncodings, AlarmParityTest,
                         ::testing::ValuesIn(kAllEncodingKinds));

// An alarm whose target the counter has already passed fires after the next retired
// instruction; one armed from the callback fires later in the same run.
TEST(AlarmTest, PassedTargetFiresNextAndCallbackMayRearm) {
  DeployedModel dm = DeployedModel::Deploy(SmallModel(EncodingKind::kCsc));
  Cpu& cpu = dm.machine().cpu();
  const uint64_t start = cpu.instructions();
  std::vector<uint64_t> fired_at;
  cpu.SetInstructionAlarm(0, [&] {
    fired_at.push_back(cpu.instructions());
    cpu.SetInstructionAlarm(cpu.instructions() + 100,
                            [&] { fired_at.push_back(cpu.instructions()); });
  });
  ASSERT_TRUE(dm.TryPredict(std::vector<int8_t>(dm.input_dim(), 1)).ok());
  EXPECT_EQ(fired_at, (std::vector<uint64_t>{start + 1, start + 101}));
  EXPECT_FALSE(cpu.instruction_alarm_armed());
}

// The mid-inference injector on top of the alarm: the same (seed, trigger) strikes the
// same byte after the same instruction on every decode path, and everything downstream —
// fault report, outputs, counters, the cycles-at-strike latency anchor — agrees.
TEST(TriggeredInjectorTest, KernelCodeStrikeIsIdenticalOnEveryPath) {
  std::vector<DeployedModel> machines;
  for (const Path path : kAllPaths) {
    machines.push_back(DeployedModel::Deploy(SmallModel(EncodingKind::kUnrolled)));
    ConfigurePath(machines.back().machine().cpu(), path);
  }
  const uint32_t code_base = machines[0].kernel_program().base_addr;
  const uint32_t code_size = static_cast<uint32_t>(machines[0].kernel_program().bytes.size());
  const std::vector<int8_t> input(machines[0].input_dim(), 5);
  ASSERT_TRUE(machines[0].TryPredict(input).ok());
  const uint64_t golden = machines[0].machine().cpu().instructions();
  for (uint64_t trial = 0; trial < 24; ++trial) {
    const uint64_t trigger = 1 + (trial * 7919) % golden;
    InjectedFault want_fault;
    uint64_t want_fired_at = 0;
    Outcome want;
    for (size_t p = 0; p < machines.size(); ++p) {
      DeployedModel& dm = machines[p];
      dm.Scrub();
      TriggeredInjector injector(trigger, code_base, code_size, FaultModel::kSingleBitFlip,
                                 1, Rng(trial));
      injector.Arm(dm.machine().cpu());
      Outcome got;
      got.ok = dm.TryPredict(input).ok();
      dm.machine().cpu().ClearInstructionAlarm();
      ASSERT_TRUE(injector.fired());
      got.output = dm.LastOutput();
      got.fault = dm.machine().last_fault();
      got.final_state = dm.machine().Snapshot();
      if (p == 0) {
        want_fault = injector.fault();
        want_fired_at = injector.fired_at_cycles();
        want = got;
        continue;
      }
      SCOPED_TRACE(::testing::Message() << "trial " << trial << " path " << p);
      EXPECT_EQ(injector.fault().addr, want_fault.addr);
      EXPECT_EQ(injector.fault().after, want_fault.after);
      EXPECT_EQ(injector.fired_at_cycles(), want_fired_at);
      EXPECT_EQ(got.ok, want.ok);
      EXPECT_EQ(got.output, want.output);
      ExpectFaultsEqual(got.fault, want.fault);
      testutil::ExpectSnapshotsEqual(got.final_state, want.final_state);
    }
  }
}

}  // namespace
}  // namespace neuroc
