// mcu_infer: paper-scale models on the 128 KB simulated Cortex-M0, one host thread.
//
// 784-128-10 at density 0.05 in each of the five encodings, plus 784-256-10 at density
// 0.15 requested as unrolled (it overflows flash and falls back), deployed through
// DeployedModel::TryDeployWithFallback and run as back-to-back batches of quantized
// MakeMnistLike digits through GuardedModel::PredictBatch. Every prediction and simulated
// cycle count is checked against the host reference (NeuroCModel::Forward), and the
// final activations of each batch's last inference byte for byte.

#include "bench.h"
#include "src/common/check.h"
#include "src/data/synth.h"
#include "src/runtime/profile.h"
#include "src/runtime/recovery.h"

namespace perfbench {
namespace {

using neuroc::EncodingKind;

constexpr size_t kInputs = 64;
constexpr size_t kBatch = 8;
// A round is one batch on every model; its latency sample is the mean host time of one
// inference of the model mix. On the shared 4-vCPU host this was tuned on, a single
// thread's speed drifts between a fast level and 1.5-1.8x slower ones for seconds to
// whole runs, with its CPU time tracking its wall time (other tenants contend for the
// core and caches; the thread is not descheduled). The median of a run is then a mix of
// the two levels and moved by 0.2-0.3 of itself between runs, the mean by 0.1-0.3. The
// floor of the round samples (p1 with at least 10 below it, see stats.h) reads the fast
// level and moved by under 0.08, so latency_ms and throughput_per_s are read there.
// The tail is read over blocks of whole rounds lasting at least kBlockSeconds: the slow
// level, which per-round samples overshoot.
constexpr double kBlockSeconds = 0.2;

struct McuModel {
  std::string name;
  std::unique_ptr<neuroc::GuardedModel> guarded;
  uint64_t cycles = 0;        // simulated cycles per inference
  uint64_t instructions = 0;  // retired guest instructions per inference
  size_t program_bytes = 0;
  double energy_uj = 0.0;
  std::vector<std::vector<int8_t>> expected;  // host Forward output per pool input
  std::vector<int> expected_class;            // host Predict per pool input
};

class McuInfer : public Workload {
 public:
  explicit McuInfer(const Options& o) : options_(o) {}

  void Setup(SpanLog* log) override {
    neuroc::Dataset digits;
    {
      ScopedSpan span(log, "data.make_mnist_like");
      digits = neuroc::MakeMnistLike(kInputs, options_.seed);
    }
    neuroc::QuantizedDataset q;
    {
      ScopedSpan span(log, "data.quantize_inputs");
      q = neuroc::QuantizeInputs(digits);
    }
    for (size_t i = 0; i < kInputs; ++i) {
      inputs_.emplace_back(q.example(i), q.example(i) + q.input_dim);
    }

    const neuroc::NeuroCModel base128 = McuModel128(options_.seed);
    for (EncodingKind kind : neuroc::kAllEncodingKinds) {
      neuroc::NeuroCModel model;
      {
        ScopedSpan span(log, "core.reencode_model");
        model = neuroc::ReencodeModel(base128, kind);
      }
      AddModel(std::string("784-128-") + neuroc::EncodingKindName(kind), std::move(model),
               log);
    }
    AddModel("784-256-unrolled", McuModel256Unrolled(options_.seed), log);
  }

  void Run(double seconds, Tracer*, SpanLog* log, Report& report) override {
    std::vector<double> round_ms;  // per inference, one sample per round
    std::vector<double> block_ms;  // per inference, one sample per block of rounds
    uint64_t inferences = 0;
    uint64_t instructions = 0;
    size_t cursor = 0;
    std::vector<std::vector<int8_t>> batch(kBatch);
    std::vector<uint64_t> cycles;
    const double round_inferences = static_cast<double>(kBatch * models_.size());
    const Clock::time_point start = Clock::now();
    double elapsed = 0.0;
    Clock::time_point block_start = start;
    uint64_t block_inferences = 0;
    while (elapsed < seconds) {
      const Clock::time_point round_start = Clock::now();
      for (McuModel& m : models_) {
        for (size_t j = 0; j < kBatch; ++j) {
          batch[j] = inputs_[(cursor + j) % kInputs];
        }
        ScopedSpan op(log, "bench.op", 0, inferences + 1);
        std::vector<neuroc::GuardedResult> results;
        {
          ScopedSpan span(log, "runtime.predict_batch", op.id(), inferences + 1);
          results = m.guarded->PredictBatch(batch, &cycles);
        }
        Check(m, results, cycles, cursor, report);
        inferences += kBatch;
        instructions += kBatch * m.instructions;
      }
      round_ms.push_back(MsSince(round_start) / round_inferences);
      cursor = (cursor + kBatch) % kInputs;
      block_inferences += kBatch * models_.size();
      if (SecondsSince(block_start) >= kBlockSeconds) {
        block_ms.push_back(MsSince(block_start) / static_cast<double>(block_inferences));
        block_start = Clock::now();
        block_inferences = 0;
      }
      elapsed = SecondsSince(start);
    }

    const Summary rounds = Summarize(round_ms);
    const Summary blocks = Summarize(block_ms);
    double cycles_sum = 0.0;
    double energy_sum = 0.0;
    double flash = 0.0;
    for (const McuModel& m : models_) {
      cycles_sum += static_cast<double>(m.cycles);
      energy_sum += m.energy_uj;
      flash += static_cast<double>(m.program_bytes);
    }
    const double n_models = static_cast<double>(models_.size());
    const double mean_rate = static_cast<double>(inferences) / elapsed;
    report.Add("latency_ms", "ms", rounds.floor);
    report.Add("latency_p99_ms", "ms", blocks.tail);
    report.Add("throughput_per_s", "1/s", 1e3 / rounds.floor);
    report.Add("target_cycles_per_op", "cycles", cycles_sum / n_models);
    report.Add("target_flash_bytes", "bytes", flash);
    report.Note("mcu_infer: " + std::to_string(inferences) + " inferences over " +
                std::to_string(models_.size()) + " models; " + std::to_string(rounds.count) +
                " rounds, floor at p" + Fmt(rounds.floor_pct) + ", median " +
                Fmt(rounds.median) + " ms; " + std::to_string(blocks.count) +
                " blocks, tail at p" + Fmt(blocks.tail_pct) + "; mean rate " +
                Fmt(mean_rate) + " /s");
    report.Note("sim_mips: " + Fmt(static_cast<double>(instructions) / elapsed / 1e6) +
                " M guest instr/s (mean over the run)");
    report.Note("target_energy_uj_per_op: " + Fmt(energy_sum / n_models) + " uJ");
    if (fallback_note_.empty()) {
      report.Mismatch("mcu_infer: the 784-256 unrolled request did not fall back");
    } else {
      report.Note(fallback_note_);
    }
  }

 private:
  void AddModel(const std::string& name, neuroc::NeuroCModel model, SpanLog* log) {
    McuModel m;
    m.name = name;
    neuroc::DeployFallbackReport fallback;
    neuroc::StatusOr<neuroc::DeployedModel> dm = [&] {
      ScopedSpan span(log, "runtime.deploy_with_fallback");
      return neuroc::DeployedModel::TryDeployWithFallback(model, {}, &fallback);
    }();
    NEUROC_CHECK_MSG(dm.ok(), "mcu_infer: deployment failed");
    if (fallback.fell_back) {
      ScopedSpan span(log, "core.reencode_model");
      model = neuroc::ReencodeModel(model, fallback.selected);
      fallback_note_ = name + ": " + fallback.overflow.message() + " -> " +
                       neuroc::EncodingKindName(fallback.selected) + " (" +
                       std::to_string(fallback.selected_bytes) + " B)";
    }
    {
      ScopedSpan span(log, "runtime.profile_inference");
      const neuroc::InferenceProfile profile = neuroc::ProfileInferenceDetailed(*dm);
      m.instructions = profile.summary.instructions;
      m.cycles = profile.summary.cycles;
      m.energy_uj = profile.energy.total_uj();
    }
    m.program_bytes = dm->report().program_bytes;
    {
      ScopedSpan span(log, "core.host_forward");
      for (const std::vector<int8_t>& in : inputs_) {
        m.expected.emplace_back();
        model.Forward(in, m.expected.back());
        m.expected_class.push_back(model.Predict(in));
      }
    }
    {
      ScopedSpan span(log, "runtime.guarded_create");
      neuroc::StatusOr<neuroc::GuardedModel> gm = neuroc::GuardedModel::Create(std::move(model));
      NEUROC_CHECK_MSG(gm.ok(), "mcu_infer: guarded deployment failed");
      m.guarded = std::make_unique<neuroc::GuardedModel>(std::move(*gm));
    }
    models_.push_back(std::move(m));
  }

  void Check(McuModel& m, const std::vector<neuroc::GuardedResult>& results,
             const std::vector<uint64_t>& cycles, size_t cursor, Report& report) {
    report.ops.attempted += kBatch;
    for (size_t j = 0; j < kBatch; ++j) {
      const int want = m.expected_class[(cursor + j) % kInputs];
      if (!results[j].ok || results[j].prediction != want || cycles[j] != m.cycles) {
        ++report.ops.failed;
        report.Mismatch("mcu_infer " + m.name + ": prediction or cycles differ from the host");
      }
    }
    const std::vector<int8_t> last = m.guarded->deployed().LastOutput();
    if (last != m.expected[(cursor + kBatch - 1) % kInputs]) {
      report.Mismatch("mcu_infer " + m.name + ": final activations differ from Forward");
    }
  }

  Options options_;
  std::vector<std::vector<int8_t>> inputs_;
  std::vector<McuModel> models_;
  std::string fallback_note_;
};

}  // namespace

neuroc::NeuroCModel McuModel128(uint64_t seed) {
  return MakeTwoLayerModel(seed * 7919 + 1, 784, 128, 10, 0.05);
}

neuroc::NeuroCModel McuModel256Unrolled(uint64_t seed) {
  return MakeTwoLayerModel(seed * 7919 + 2, 784, 256, 10, 0.15, EncodingKind::kUnrolled);
}

std::unique_ptr<Workload> MakeMcuInfer(const Options& options) {
  return std::make_unique<McuInfer>(options);
}

}  // namespace perfbench
