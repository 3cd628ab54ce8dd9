// Host-side simulator throughput: the two decode/execute paths (the step interpreter,
// which fetches and decodes every instruction, and block-compiled execution), lockstep
// batches of 2, 4 and 8 on the block path, and the profiled paths × the adjacency
// encodings, plus RandomSearch wall-clock at 1 vs N threads.
//
// Every reported paper metric (cycles, latency) flows through the CPU's execute loop, so
// simulation speed bounds how many candidate architectures a search can afford. This bench
// tracks what the block compiler (src/sim/cpu.*) buys in host wall-clock per simulated
// inference and in simulated MIPS, verifies cycle counts are bit-identical on every
// path, and times RandomSearch across thread counts
// (asserting the results are byte-identical, the contract that makes parallel search safe
// to use for paper numbers). Emits BENCH_sim_throughput.json.
//
// `--smoke` shrinks repetitions/trials to seconds so the tier-1 ctest sweep can run this
// binary and keep it from bit-rotting.

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/common/rng.h"
#include "src/common/thread_pool.h"
#include "src/core/encoding.h"
#include "src/core/synthetic.h"
#include "src/data/synth.h"
#include "src/obs/block_profiler.h"
#include "src/obs/json_writer.h"
#include "src/obs/sim_profiler.h"
#include "src/runtime/deployed_model.h"
#include "src/runtime/profile.h"
#include "src/runtime/search.h"

namespace neuroc {
namespace {

// Best of kRepeats timed runs — a shared host can slow any single run arbitrarily but
// cannot make one faster than the machine allows. The runs of every encoding and path
// are interleaved, so a noisy window penalizes one run of many of them rather than
// skewing one encoding's rows or a ratio.
constexpr int kRepeats = 5;
// step / block, plus two profiled paths: block-compiled execution with the
// block-granular counters (block_profiled) and the step interpreter with the CpuProbe
// profiler attached (step_profiled, the pre-block-profiler default). The profiled rows
// bound what turning attribution on costs on each path. block_lockstep2/4/8 run the
// inferences as lockstep batches (DeployedModel::TryPredictLockstep) on the block path,
// one per vector width of the lane executor.
constexpr int kModes = 7;
constexpr int kFirstLockstepMode = 4;
constexpr size_t kLockstepLanes[] = {2, 4, 8};

double Seconds(std::chrono::steady_clock::time_point t0,
               std::chrono::steady_clock::time_point t1) {
  return std::chrono::duration<double>(t1 - t0).count();
}

NeuroCModel MakeBenchModel(EncodingKind kind) {
  Rng rng(3 + static_cast<uint64_t>(kind));
  SyntheticNeuroCLayerSpec l0;
  l0.in_dim = 256;
  l0.out_dim = 64;
  l0.density = 0.15;
  l0.encoding = kind;
  SyntheticNeuroCLayerSpec l1 = l0;
  l1.in_dim = 64;
  l1.out_dim = 10;
  l1.relu = false;
  std::vector<QuantNeuroCLayer> layers;
  layers.push_back(MakeSyntheticNeuroCLayer(l0, rng));
  layers.push_back(MakeSyntheticNeuroCLayer(l1, rng));
  return NeuroCModel::FromLayers(std::move(layers));
}

struct InferenceResult {
  std::string encoding;
  std::string decode;  // "step" | "block" | ..., one of the kModes paths
  uint64_t cycles_per_inference = 0;
  uint64_t instructions_per_inference = 0;
  double wall_ms_per_inference = 0.0;
  double sim_mips = 0.0;  // simulated instructions retired per host second / 1e6
};

// Runs `reps` inferences: one at a time, or with `batch` as lockstep batches of its size
// (which must all commit). Returns the inferences run.
int RunInferences(DeployedModel& deployed, const std::vector<std::vector<int8_t>>* batch,
                  const std::vector<int8_t>& input, int reps) {
  if (batch == nullptr) {
    for (int i = 0; i < reps; ++i) {
      deployed.Predict(input);
    }
    return reps;
  }
  const int batches = std::max(1, reps / static_cast<int>(batch->size()));
  for (int i = 0; i < batches; ++i) {
    NEUROC_CHECK_MSG(deployed.TryPredictLockstep(*batch).has_value(),
                     "bench_sim_throughput: a lockstep batch fell back");
  }
  return batches * static_cast<int>(batch->size());
}

// One timed block of about `reps` inferences. Returns wall seconds per inference and
// checks the reported cycle count never drifts across repetitions.
double TimeBlock(DeployedModel& deployed, const std::vector<std::vector<int8_t>>* batch,
                 const std::vector<int8_t>& input, int reps, InferenceResult& r) {
  const uint64_t instr0 = deployed.machine().cpu().instructions();
  const auto t0 = std::chrono::steady_clock::now();
  const int inferences = RunInferences(deployed, batch, input, reps);
  const auto t1 = std::chrono::steady_clock::now();
  const uint64_t instr = deployed.machine().cpu().instructions() - instr0;
  r.instructions_per_inference = instr / static_cast<uint64_t>(inferences);
  // The reported cycle count must not depend on the decode path or the repetition.
  NEUROC_CHECK(deployed.report().cycles_per_inference == r.cycles_per_inference);
  return Seconds(t0, t1) / inferences;
}

// The seven execute/profile paths of one encoding: a deployment per path, the profilers
// attached to two of them, the input, and each lockstep path's batch (the first 2, 4 or 8
// of the inputs). Results are {step, block, block_profiled, step_profiled,
// block_lockstep2, block_lockstep4, block_lockstep8}.
class InferenceSweep {
 public:
  explicit InferenceSweep(EncodingKind kind)
      : step_(DeployedModel::Deploy(MakeBenchModel(kind))),
        block_(DeployedModel::Deploy(MakeBenchModel(kind))),
        block_prof_(DeployedModel::Deploy(MakeBenchModel(kind))),
        step_prof_(DeployedModel::Deploy(MakeBenchModel(kind))),
        lockstep2_(DeployedModel::Deploy(MakeBenchModel(kind))),
        lockstep4_(DeployedModel::Deploy(MakeBenchModel(kind))),
        lockstep8_(DeployedModel::Deploy(MakeBenchModel(kind))),
        block_profiler_(block_prof_.machine().cpu()),
        attach_step_(step_prof_.machine().cpu(), &step_profiler_) {
    step_.machine().cpu().EnableBlockCompile(false);
    Rng rng(17);
    input_ = MakeRandomInput(step_.input_dim(), rng);
    std::vector<std::vector<int8_t>> inputs = {input_};
    while (inputs.size() < kLockstepLanes[std::size(kLockstepLanes) - 1]) {
      inputs.push_back(MakeRandomInput(step_.input_dim(), rng));
    }
    for (size_t k = 0; k < batches_.size(); ++k) {
      batches_[k].assign(inputs.begin(), inputs.begin() + kLockstepLanes[k]);
    }
    out_[0].decode = "step";
    out_[1].decode = "block";
    out_[2].decode = "block_profiled";
    out_[3].decode = "step_profiled";
    for (size_t k = 0; k < batches_.size(); ++k) {
      out_[kFirstLockstepMode + k].decode =
          "block_lockstep" + std::to_string(kLockstepLanes[k]);
    }
    for (int which = 0; which < kModes; ++which) {
      out_[which].encoding = EncodingKindName(kind);
      models_[which]->Predict(input_);  // warm-up: compiles the blocks untimed
      out_[which].cycles_per_inference = models_[which]->report().cycles_per_inference;
    }
  }

  // Times one block of about `reps` inferences on path `which`, keeping the best.
  void Time(int which, int reps) {
    const double seconds =
        TimeBlock(*models_[which],
                  which >= kFirstLockstepMode ? &batches_[which - kFirstLockstepMode] : nullptr,
                  input_, reps, out_[which]);
    if (best_[which] == 0.0 || seconds < best_[which]) {
      best_[which] = seconds;
    }
  }

  // The executor the lockstep paths ran their lanes on.
  Cpu::LaneExecutor lane_executor() {
    const std::optional<Cpu::LaneExecutor> e = lockstep2_.machine().cpu().last_lane_executor();
    NEUROC_CHECK(e.has_value());
    for (DeployedModel* d : {&lockstep4_, &lockstep8_}) {
      NEUROC_CHECK(d->machine().cpu().last_lane_executor() == e);
    }
    return *e;
  }

  // The results, from the best block of each path.
  std::array<InferenceResult, kModes> Results() const {
    std::array<InferenceResult, kModes> out = out_;
    for (int which = 0; which < kModes; ++which) {
      out[which].wall_ms_per_inference = best_[which] * 1000.0;
      out[which].sim_mips =
          static_cast<double>(out[which].instructions_per_inference) / (best_[which] * 1e6);
    }
    return out;
  }

 private:
  DeployedModel step_, block_, block_prof_, step_prof_, lockstep2_, lockstep4_, lockstep8_;
  const std::array<DeployedModel*, kModes> models_ = {
      &step_, &block_, &block_prof_, &step_prof_, &lockstep2_, &lockstep4_, &lockstep8_};
  BlockProfiler block_profiler_;
  SimProfiler step_profiler_;
  ScopedCpuProbe attach_step_;
  std::vector<int8_t> input_;
  std::array<std::vector<std::vector<int8_t>>, std::size(kLockstepLanes)> batches_;
  std::array<InferenceResult, kModes> out_;
  std::array<double, kModes> best_ = {};
};

struct SearchTiming {
  unsigned threads = 0;
  double wall_ms = 0.0;
  SearchResult result;
};

SearchTiming RunSearch(const Dataset& train, const Dataset& test, unsigned threads,
                       int trials, int epochs) {
  ThreadPool::SetGlobalThreads(threads);
  SearchSpace space;
  space.width_choices = {16, 32};
  space.max_hidden_layers = 1;
  space.density_choices = {0.1f, 0.2f};
  TrainConfig cfg;
  cfg.epochs = epochs;
  cfg.batch_size = 32;
  cfg.learning_rate = 3e-3f;
  SearchTiming t;
  t.threads = threads;
  const auto t0 = std::chrono::steady_clock::now();
  t.result = RandomSearch(train, test, space, {}, trials, cfg, 123);
  t.wall_ms = Seconds(t0, std::chrono::steady_clock::now()) * 1000.0;
  return t;
}

bool ByteIdentical(const SearchResult& a, const SearchResult& b) {
  if (a.candidates.size() != b.candidates.size() || a.pareto != b.pareto ||
      a.best != b.best) {
    return false;
  }
  for (size_t i = 0; i < a.candidates.size(); ++i) {
    const SearchCandidate& x = a.candidates[i];
    const SearchCandidate& y = b.candidates[i];
    if (x.description != y.description || x.spec.hidden != y.spec.hidden ||
        x.accuracy != y.accuracy || x.program_bytes != y.program_bytes ||
        x.latency_ms != y.latency_ms || x.feasible != y.feasible) {
      return false;
    }
  }
  return true;
}

}  // namespace
}  // namespace neuroc

int main(int argc, char** argv) {
  using namespace neuroc;
  bool smoke = false;
  std::string out_path = "BENCH_sim_throughput.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else {
      out_path = argv[i];
    }
  }
  const int reps = smoke ? 20 : 400;
  const int trials = smoke ? 2 : 4;
  const int epochs = smoke ? 1 : 2;

  std::printf("sim throughput, 256-64-10 @ density 0.15, %d inferences per timing rep\n",
              reps);
  std::printf("%-8s %-16s %14s %14s %12s %10s\n", "encoding", "decode", "cycles/inf",
              "instr/inf", "wall_ms/inf", "sim_MIPS");
  // Every encoding's paths, timed in kRepeats rounds that each walk all of them: a slow
  // window of the host lands on one round of many rows rather than on every round of one
  // encoding's rows.
  std::vector<std::unique_ptr<InferenceSweep>> sweeps;
  for (EncodingKind kind : kAllEncodingKinds) {
    sweeps.push_back(std::make_unique<InferenceSweep>(kind));
  }
  for (int rep = 0; rep < kRepeats; ++rep) {
    for (const std::unique_ptr<InferenceSweep>& sweep : sweeps) {
      for (int which = 0; which < kModes; ++which) {
        sweep->Time(which, reps);
      }
    }
  }
  const Cpu::LaneExecutor lane_executor = sweeps.front()->lane_executor();
  std::vector<InferenceResult> inference;
  for (const std::unique_ptr<InferenceSweep>& sweep : sweeps) {
    NEUROC_CHECK(sweep->lane_executor() == lane_executor);
    for (const InferenceResult& r : sweep->Results()) {
      std::printf("%-8s %-16s %14llu %14llu %12.4f %10.1f\n", r.encoding.c_str(),
                  r.decode.c_str(), static_cast<unsigned long long>(r.cycles_per_inference),
                  static_cast<unsigned long long>(r.instructions_per_inference),
                  r.wall_ms_per_inference, r.sim_mips);
      inference.push_back(r);
    }
  }
  std::printf("lockstep rows ran on the %s lane executor\n",
              Cpu::LaneExecutorName(lane_executor));
  // The execute path (profiled, lockstep-batched or not) must not change a single
  // reported cycle or retired instruction: every row equals the step row.
  for (size_t i = 0; i + kModes - 1 < inference.size(); i += kModes) {
    for (size_t m = 1; m < kModes; ++m) {
      NEUROC_CHECK(inference[i].cycles_per_inference ==
                   inference[i + m].cycles_per_inference);
      NEUROC_CHECK(inference[i].instructions_per_inference ==
                   inference[i + m].instructions_per_inference);
    }
  }

  const Dataset all = MakeDigits8x8(smoke ? 200 : 500, 11);
  Rng split_rng(12);
  auto [train, test] = all.Split(0.25, split_rng);
  const SearchTiming s1 = RunSearch(train, test, 1, trials, epochs);
  const SearchTiming s4 = RunSearch(train, test, 4, trials, epochs);
  ThreadPool::SetGlobalThreads(0);  // restore default
  const bool identical = ByteIdentical(s1.result, s4.result);
  NEUROC_CHECK(identical);
  std::printf("search: %d trials  1t %.0f ms  4t %.0f ms  byte-identical %s\n", trials,
              s1.wall_ms, s4.wall_ms, identical ? "yes" : "no");

  JsonWriter w;
  w.BeginObject();
  w.Key("bench").Value("sim_throughput");
  w.Key("model").Value("256-64-10 density 0.15");
  w.Key("reps_per_timing").Value(static_cast<uint64_t>(reps));
  w.Key("smoke").Value(smoke ? 1 : 0);
  w.Key("host_threads_available").Value(DefaultThreadCount());
  w.Key("lane_executor").Value(Cpu::LaneExecutorName(lane_executor));
  w.Key("inference").BeginArray();
  for (const InferenceResult& r : inference) {
    w.BeginObject();
    w.Key("encoding").Value(r.encoding);
    w.Key("decode").Value(r.decode);
    w.Key("cycles_per_inference").Value(r.cycles_per_inference);
    w.Key("instructions_per_inference").Value(r.instructions_per_inference);
    w.Key("wall_ms_per_inference").ValueFixed(r.wall_ms_per_inference, 6);
    w.Key("sim_mips").ValueFixed(r.sim_mips, 1);
    w.EndObject();
  }
  w.EndArray();
  w.Key("speedups").BeginObject();
  for (size_t i = 0; i + kModes - 1 < inference.size(); i += kModes) {
    const InferenceResult& step = inference[i];
    const InferenceResult& block = inference[i + 1];
    char key[64];
    std::snprintf(key, sizeof(key), "block_vs_step_%s", step.encoding.c_str());
    w.Key(key).ValueFixed(step.wall_ms_per_inference / block.wall_ms_per_inference, 3);
    for (size_t m = kFirstLockstepMode; m < kModes; ++m) {
      const InferenceResult& lockstep = inference[i + m];
      std::snprintf(key, sizeof(key), "%s_vs_block_%s", lockstep.decode.c_str(),
                    step.encoding.c_str());
      w.Key(key).ValueFixed(block.wall_ms_per_inference / lockstep.wall_ms_per_inference, 3);
    }
  }
  w.Key("search_4t_vs_1t").ValueFixed(s1.wall_ms / s4.wall_ms, 3);
  w.EndObject();
  // Profiling cost: the block-granular profiler must stay within a few percent of the
  // unprofiled block path and far ahead of step-interpreter profiling (the ratio the
  // obs PR's ≥5x acceptance bar reads).
  w.Key("profiling").BeginObject();
  for (size_t i = 0; i + kModes - 1 < inference.size(); i += kModes) {
    const InferenceResult& block = inference[i + 1];
    const InferenceResult& bp = inference[i + 2];
    const InferenceResult& sp = inference[i + 3];
    char key[64];
    std::snprintf(key, sizeof(key), "block_profiled_overhead_%s",
                  block.encoding.c_str());
    w.Key(key).ValueFixed(bp.wall_ms_per_inference / block.wall_ms_per_inference, 3);
    std::snprintf(key, sizeof(key), "block_profiled_vs_step_profiled_%s",
                  block.encoding.c_str());
    w.Key(key).ValueFixed(sp.wall_ms_per_inference / bp.wall_ms_per_inference, 3);
  }
  w.EndObject();
  // Energy proxy per inference (deterministic: derived from attributed cycles and
  // memory-access counts, not wall time).
  w.Key("energy").BeginObject();
  for (EncodingKind kind : kAllEncodingKinds) {
    DeployedModel d = DeployedModel::Deploy(MakeBenchModel(kind));
    const InferenceProfile p = ProfileInferenceDetailed(d);
    w.Key(EncodingKindName(kind)).BeginObject();
    w.Key("total_uj").ValueFixed(p.energy.total_uj(), 4);
    w.Key("core_uj").ValueFixed(p.energy.core_total_pj * 1e-6, 4);
    w.Key("flash_uj").ValueFixed(p.energy.flash_pj * 1e-6, 4);
    w.Key("sram_uj").ValueFixed(p.energy.sram_pj * 1e-6, 4);
    w.Key("avg_power_mw")
        .ValueFixed(p.energy.AvgPowerMw(p.summary.cycles, d.machine().config().clock_hz),
                    3);
    w.EndObject();
  }
  w.EndObject();
  // Context for the ratios: the step comparator here is the fetch-and-decode-every-step
  // path of the *current* binary, which already shares the inlined MemoryMap accessors
  // and the op bodies, and the search speedup is bounded by the cores the host actually
  // grants us.
  w.Key("notes").BeginArray();
  w.Value(
      "block_vs_step compares decode paths within this binary: block fuses straight-line "
      "basic blocks, decoded once when compiled, into one dispatch with batched "
      "accounting and lazy APSR flags; step fetches and decodes every instruction");
  w.Value(
      "block_lockstep2/4/8 run batches of 2, 4 and 8 inferences through the compiled "
      "blocks once, each op run once as host vector operations over every lane, on the "
      "lane executor named by lane_executor (avx2 holds 8 lanes in one host vector)");
  w.Value("search_4t_vs_1t cannot exceed 1x when host_threads_available is 1");
  w.EndArray();
  w.Key("search").BeginObject();
  w.Key("trials").Value(static_cast<uint64_t>(trials));
  w.Key("epochs").Value(static_cast<uint64_t>(epochs));
  w.Key("threads_1_wall_ms").ValueFixed(s1.wall_ms, 1);
  w.Key("threads_4_wall_ms").ValueFixed(s4.wall_ms, 1);
  w.Key("results_byte_identical").Value(identical ? 1 : 0);
  w.EndObject();
  w.EndObject();
  benchutil::WriteBenchJson(out_path, w);
  return 0;
}
