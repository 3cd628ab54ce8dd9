#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "src/common/rng.h"
#include "src/core/synthetic.h"
#include "src/fuzz/oracles.h"
#include "src/runtime/deployed_model.h"

namespace neuroc {

namespace {

// Names the first quantity two machine snapshots disagree on; empty when they agree.
std::string SnapshotDifference(const MachineSnapshot& a, const MachineSnapshot& b) {
  const CpuArchState& x = a.cpu;
  const CpuArchState& y = b.cpu;
  if (x.regs != y.regs || x.pc != y.pc) return "registers";
  if (x.flags.n != y.flags.n || x.flags.z != y.flags.z || x.flags.c != y.flags.c ||
      x.flags.v != y.flags.v) {
    return "flags";
  }
  if (x.cycles != y.cycles || x.instructions != y.instructions) return "counters";
  if (a.memory.ram != b.memory.ram) return "sram";
  if (a.memory.flash != b.memory.flash) return "flash";
  const MemAccessStats& s = a.memory.stats;
  const MemAccessStats& t = b.memory.stats;
  if (s.flash_reads != t.flash_reads || s.sram_reads != t.sram_reads ||
      s.sram_writes != t.sram_writes) {
    return "memory stats";
  }
  if (a.last_fault.code != b.last_fault.code) return "last fault";
  return "";
}

// The batch leg: the case's inputs as one lockstep batch on a fresh deployment (one by
// one when the batch falls back, as GuardedModel::PredictBatch does) must end exactly as
// `sequential` ended after TryPredict on each input — outputs, per-inference cycles and
// the full machine snapshot.
CaseResult CompareBatch(DeployedModel& batch, const DeployedModel& sequential,
                        const std::vector<std::vector<int8_t>>& inputs,
                        const std::vector<int>& predictions,
                        const std::vector<uint64_t>& cycles) {
  std::vector<int> got;
  std::vector<uint64_t> got_cycles;
  if (std::optional<std::vector<int>> lockstep = batch.TryPredictLockstep(inputs)) {
    got = *lockstep;
    got_cycles.assign(inputs.size(), batch.report().cycles_per_inference);
  } else {
    for (const std::vector<int8_t>& input : inputs) {
      const StatusOr<int> pred = batch.TryPredict(input);
      if (!pred.ok()) {
        return {FuzzVerdict::kFail, "guest fault, batch leg: " + pred.status().ToString()};
      }
      got.push_back(*pred);
      got_cycles.push_back(batch.report().cycles_per_inference);
    }
  }
  if (got != predictions) {
    return {FuzzVerdict::kFail, "batch argmax != one-by-one argmax"};
  }
  if (got_cycles != cycles) {
    return {FuzzVerdict::kFail, "batch cycles per inference != one-by-one cycles"};
  }
  const std::string diff =
      SnapshotDifference(batch.machine().Snapshot(), sequential.machine().Snapshot());
  if (!diff.empty()) {
    return {FuzzVerdict::kFail, "batch final machine state != one-by-one state: " + diff};
  }
  return {};
}

// The full-width batch leg: the case's inputs cycled to Cpu::kMaxLanes, the lane
// executor's widest vector, as one batch on a fresh deployment running `executor`,
// against the same sequence run one by one on another.
template <typename Model>
CaseResult CompareFullWidthBatch(const Model& model,
                                 const std::vector<std::vector<int8_t>>& inputs,
                                 Cpu::LaneExecutor executor) {
  auto batch_or = DeployedModel::TryDeploy(model);
  auto sequential_or = DeployedModel::TryDeploy(model);
  if (!batch_or.ok() || !sequential_or.ok()) {
    return {FuzzVerdict::kFail, "deploy failed, full-width batch leg"};
  }
  batch_or->machine().cpu().SetLaneExecutorForTest(executor);
  std::vector<std::vector<int8_t>> cycled;
  std::vector<int> predictions;
  std::vector<uint64_t> cycles;
  for (size_t i = 0; i < Cpu::kMaxLanes; ++i) {
    cycled.push_back(inputs[i % inputs.size()]);
    const StatusOr<int> pred = sequential_or->TryPredict(cycled.back());
    if (!pred.ok()) {
      return {FuzzVerdict::kFail,
              "guest fault, full-width sequential leg: " + pred.status().ToString()};
    }
    predictions.push_back(*pred);
    cycles.push_back(sequential_or->report().cycles_per_inference);
  }
  return CompareBatch(*batch_or, *sequential_or, cycled, predictions, cycles);
}

// One reference/device comparison on both simulator decode paths. `block` runs
// block-compiled execution (the deploy default), `step` the interpreter that fetches and
// decodes every instruction — both must agree with the host byte-for-byte, and with each
// other on cycle counts (block compilation is a pure performance transform). Then, on
// each lane executor the host supports, a fresh deployment runs the inputs as one batch
// (CompareBatch), which must end where `block` ended, and two more the full-width batch
// leg (CompareFullWidthBatch).
template <typename Model>
CaseResult CompareAgainstHost(const FuzzCase& c, const Model& model) {
  auto block_or = DeployedModel::TryDeploy(model);
  auto step_or = DeployedModel::TryDeploy(model);
  for (const auto* d : {&block_or, &step_or}) {
    if (!d->ok()) {
      if (d->status().code() == ErrorCode::kResourceExhausted) {
        return {FuzzVerdict::kSkip, "resource_exhausted: model does not fit the device"};
      }
      return {FuzzVerdict::kFail, "deploy failed: " + d->status().ToString()};
    }
  }
  struct Mode {
    const char* name;
    DeployedModel deployed;
  };
  Mode modes[] = {{"block", std::move(*block_or)}, {"step", std::move(*step_or)}};
  modes[1].deployed.machine().cpu().EnableBlockCompile(false);

  const std::vector<std::vector<int8_t>> inputs = KernelCaseInputs(c);
  std::vector<int8_t> expected;
  std::vector<int> predictions;
  std::vector<uint64_t> cycles;
  for (size_t i = 0; i < inputs.size(); ++i) {
    const std::string which = " (input " + std::to_string(i) + ")";
    model.Forward(inputs[i], expected);
    const int host_pred = model.Predict(inputs[i]);

    uint64_t block_cycles = 0;
    for (Mode& mode : modes) {
      const std::string where = std::string(", decode mode ") + mode.name + which;
      const StatusOr<int> pred = mode.deployed.TryPredict(inputs[i]);
      if (!pred.ok()) {
        return {FuzzVerdict::kFail, "guest fault" + where + ": " + pred.status().ToString()};
      }
      if (mode.deployed.LastOutput() != expected) {
        return {FuzzVerdict::kFail, "sim output != host output" + where};
      }
      if (*pred != host_pred) {
        return {FuzzVerdict::kFail, "sim argmax != host argmax" + where};
      }
      const uint64_t mode_cycles = mode.deployed.report().cycles_per_inference;
      if (&mode == &modes[0]) {
        block_cycles = mode_cycles;
      } else if (mode_cycles != block_cycles) {
        return {FuzzVerdict::kFail,
                "cycle count differs between decode modes" + which + ": block=" +
                    std::to_string(block_cycles) + " " + mode.name + "=" +
                    std::to_string(mode_cycles)};
      }
    }
    predictions.push_back(host_pred);
    cycles.push_back(block_cycles);
  }
  for (const Cpu::LaneExecutor executor :
       {Cpu::LaneExecutor::kGeneric, Cpu::LaneExecutor::kAvx2}) {
    if (!Cpu::LaneExecutorSupported(executor)) {
      continue;
    }
    auto batch_or = DeployedModel::TryDeploy(model);
    if (!batch_or.ok()) {
      return {FuzzVerdict::kFail, "deploy failed, batch leg"};
    }
    batch_or->machine().cpu().SetLaneExecutorForTest(executor);
    CaseResult leg = CompareBatch(*batch_or, modes[0].deployed, inputs, predictions, cycles);
    if (leg.verdict == FuzzVerdict::kPass) {
      leg = CompareFullWidthBatch(model, inputs, executor);
    }
    if (leg.verdict != FuzzVerdict::kPass) {
      leg.detail += std::string(" (") + Cpu::LaneExecutorName(executor) + " lane executor)";
      return leg;
    }
  }
  return {};
}

}  // namespace

FuzzCase GenerateKernelCase(uint64_t case_seed) {
  FuzzCase c;
  c.oracle = FuzzOracle::kKernel;
  c.case_seed = case_seed;
  Rng g(SubSeed(case_seed, 0));

  c.encoding = static_cast<int>(g.NextBounded(6));  // five sparse encodings + dense q7
  // Bucketed widths: the small buckets hit degenerate shapes (empty columns, single
  // neurons), the large ones push past 255 inputs where encodings switch to 16-bit
  // index arithmetic.
  switch (g.NextBounded(4)) {
    case 0: c.in_dim = static_cast<uint32_t>(1 + g.NextBounded(12)); break;
    case 1: c.in_dim = static_cast<uint32_t>(13 + g.NextBounded(52)); break;
    case 2: c.in_dim = static_cast<uint32_t>(65 + g.NextBounded(96)); break;
    default: c.in_dim = static_cast<uint32_t>(161 + g.NextBounded(160)); break;
  }
  switch (g.NextBounded(3)) {
    case 0: c.out_dim = static_cast<uint32_t>(1 + g.NextBounded(8)); break;
    case 1: c.out_dim = static_cast<uint32_t>(9 + g.NextBounded(24)); break;
    default: c.out_dim = static_cast<uint32_t>(33 + g.NextBounded(16)); break;
  }
  c.density_ppm = static_cast<uint32_t>(20'000 + g.NextBounded(930'001));
  c.block_size = static_cast<uint32_t>(16 + g.NextBounded(240));
  c.has_scale = g.NextBool(0.8);
  c.relu = g.NextBool(0.5);
  // Keep out_frac = in_frac + scale_frac - requant_shift non-negative in both scale modes.
  c.requant_shift = static_cast<int>(g.NextInt(0, c.has_scale ? 12 : 7));
  c.input_dist = static_cast<InputDist>(g.NextBounded(4));
  return c;
}

std::vector<std::vector<int8_t>> KernelCaseInputs(const FuzzCase& c) {
  if (!c.explicit_input.empty()) {
    return {c.explicit_input};
  }
  Rng rng(SubSeed(c.case_seed, 2));
  std::vector<std::vector<int8_t>> inputs;
  for (int i = 0; i < 3; ++i) {
    inputs.push_back(MakeRandomInput(c.in_dim, c.input_dist, rng));
  }
  return inputs;
}

CaseResult RunKernelCase(const FuzzCase& c) {
  if (c.in_dim == 0 || c.out_dim == 0) {
    return {FuzzVerdict::kFail, "invalid kernel case: zero dimension"};
  }
  if (!c.explicit_input.empty() && c.explicit_input.size() != c.in_dim) {
    return {FuzzVerdict::kFail, "invalid kernel case: input length != in_dim"};
  }
  Rng mrng(SubSeed(c.case_seed, 1));
  if (c.encoding == kDenseBaselineEncoding) {
    std::vector<QuantDenseLayer> layers;
    layers.push_back(
        MakeSyntheticDenseLayer(c.in_dim, c.out_dim, c.relu, c.requant_shift, mrng));
    const MlpModel model = MlpModel::FromLayers(std::move(layers));
    return CompareAgainstHost(c, model);
  }
  SyntheticNeuroCLayerSpec spec;
  spec.in_dim = c.in_dim;
  spec.out_dim = c.out_dim;
  spec.density = static_cast<double>(c.density_ppm) * 1e-6;
  spec.encoding = static_cast<EncodingKind>(c.encoding);
  spec.encoding_options.block_size = c.block_size;
  spec.has_scale = c.has_scale;
  spec.relu = c.relu;
  spec.requant_shift = c.requant_shift;
  std::vector<QuantNeuroCLayer> layers;
  layers.push_back(MakeSyntheticNeuroCLayer(spec, mrng));
  const NeuroCModel model = NeuroCModel::FromLayers(std::move(layers));
  return CompareAgainstHost(c, model);
}

}  // namespace neuroc
