#include <optional>
#include <string>
#include <utility>
#include <vector>

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

// One reference/device comparison across all three simulator decode paths. `block` runs
// block-compiled execution (the deploy default), `cached` the predecoded-instruction path
// with block fusion off, `legacy` the decode-every-step interpreter — all must agree with
// the host byte-for-byte, and with each other on cycle counts (both the predecode cache
// and block compilation are pure performance transforms). A fourth deployment then runs
// the inputs as one batch (CompareBatch), which must end where `block` ended.
template <typename Model>
CaseResult CompareAgainstHost(const FuzzCase& c, const Model& model) {
  auto block_or = DeployedModel::TryDeploy(model);
  auto cached_or = DeployedModel::TryDeploy(model);
  auto legacy_or = DeployedModel::TryDeploy(model);
  auto batch_or = DeployedModel::TryDeploy(model);
  for (const auto* d : {&block_or, &cached_or, &legacy_or, &batch_or}) {
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
  Mode modes[] = {{"block", std::move(*block_or)},
                  {"cached", std::move(*cached_or)},
                  {"legacy", std::move(*legacy_or)}};
  modes[1].deployed.machine().cpu().EnableBlockCompile(false);
  modes[2].deployed.machine().cpu().EnableDecodeCache(false);

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
  return CompareBatch(*batch_or, modes[0].deployed, inputs, predictions, cycles);
}

}  // namespace

FuzzCase GenerateKernelCase(uint64_t case_seed) {
  FuzzCase c;
  c.oracle = FuzzOracle::kKernel;
  c.case_seed = case_seed;
  Rng g(FuzzSubSeed(case_seed, 0));

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
  Rng rng(FuzzSubSeed(c.case_seed, 2));
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
  Rng mrng(FuzzSubSeed(c.case_seed, 1));
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
