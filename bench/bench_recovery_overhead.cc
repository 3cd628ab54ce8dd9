// Guarded-execution overhead: what the fault-tolerance stack costs, per encoding.
//
// Deterministic (hard-gated) metrics: an armed watchdog must cost exactly zero simulated
// cycles on the fault-free path (the deadline is a supervisor-side compare, not guest
// work), and dual-run execution must cost exactly two single runs. Host-varying metrics:
// wall-clock of Snapshot(), full Restore(), the RAM+registers fast restore, and the
// guarded clean-path dispatch relative to a plain TryPredict, and the wall time of one
// fault campaign at one thread and at every host thread (campaign_speedup_vs_1t, which
// bench_compare gates only between runs stamped with at least 4 host threads). Emits
// BENCH_recovery_overhead.json for the bench_compare gate.
//
// `--smoke` shrinks repetitions so the tier-1 ctest sweep can run this binary.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/common/rng.h"
#include "src/common/thread_pool.h"
#include "src/core/encoding.h"
#include "src/core/synthetic.h"
#include "src/obs/json_writer.h"
#include "src/runtime/deployed_model.h"
#include "src/runtime/fault_campaign.h"
#include "src/runtime/recovery.h"
#include "src/sim/fault_injector.h"

namespace neuroc {
namespace {

// Best of kRepeats timed blocks, like bench_sim_throughput: the blocks of every encoding
// and metric are interleaved, so a slow window of the host (a cold process first of all)
// lands on one block of many rows rather than on every block of the first encodings.
constexpr int kRepeats = 5;

double Seconds(std::chrono::steady_clock::time_point t0,
               std::chrono::steady_clock::time_point t1) {
  return std::chrono::duration<double>(t1 - t0).count();
}

NeuroCModel MakeBenchModel(EncodingKind kind) {
  Rng rng(3 + static_cast<uint64_t>(kind));
  SyntheticNeuroCLayerSpec l0;
  l0.in_dim = 128;
  l0.out_dim = 32;
  l0.density = 0.15;
  l0.encoding = kind;
  SyntheticNeuroCLayerSpec l1 = l0;
  l1.in_dim = 32;
  l1.out_dim = 10;
  l1.relu = false;
  std::vector<QuantNeuroCLayer> layers;
  layers.push_back(MakeSyntheticNeuroCLayer(l0, rng));
  layers.push_back(MakeSyntheticNeuroCLayer(l1, rng));
  return NeuroCModel::FromLayers(std::move(layers));
}

GuardedModel MakeGuardedBenchModel(EncodingKind kind) {
  StatusOr<GuardedModel> guarded = GuardedModel::Create(MakeBenchModel(kind));
  NEUROC_CHECK(guarded.ok());
  return std::move(*guarded);
}

struct EncodingRow {
  std::string encoding;
  // Deterministic: simulated cycles.
  uint64_t cycles_plain = 0;     // unsupervised TryPredict
  uint64_t cycles_watchdog = 0;  // ArmWatchdog'ed TryPredict — must equal cycles_plain
  uint64_t cycles_dual_run = 0;  // both redundant runs — must equal 2 * cycles_plain
  uint64_t snapshot_flash_bytes = 0;
  uint64_t snapshot_ram_bytes = 0;
  // Host-varying: wall costs.
  double snapshot_wall_ms = 0.0;
  double restore_full_wall_ms = 0.0;
  double restore_ram_wall_ms = 0.0;
  double guarded_clean_overhead_ratio = 0.0;  // GuardedModel::Predict / plain TryPredict
  double ladder_scrub_recovery_wall_ms = 0.0;  // detect + 2 rungs on a flash fault
};

// Wall seconds per call of `fn`, called `iters` times back to back in one block, folded
// into `best`.
template <typename Fn>
void TimeBlock(int iters, double& best, Fn&& fn) {
  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < iters; ++i) {
    fn();
  }
  const double s = Seconds(t0, std::chrono::steady_clock::now()) / iters;
  if (best == 0.0 || s < best) {
    best = s;
  }
}

// One encoding's deployments. The constructor measures the simulated-cycle identities
// (deterministic, so one run each is exact); TimeRound runs one timing block of each
// wall cost, keeping the best.
class EncodingSweep {
 public:
  EncodingSweep(EncodingKind kind, int iters)
      : iters_(iters),
        plain_(DeployedModel::Deploy(MakeBenchModel(kind))),
        guarded_(MakeGuardedBenchModel(kind)) {
    row_.encoding = EncodingKindName(kind);
    Rng rng(17);
    input_ = MakeRandomInput(plain_.input_dim(), rng);
    NEUROC_CHECK(plain_.TryPredict(input_).ok());
    row_.cycles_plain = plain_.report().cycles_per_inference;

    DeployedModel armed = DeployedModel::Deploy(MakeBenchModel(kind));
    NEUROC_CHECK(armed.ArmWatchdog(8.0).ok());
    NEUROC_CHECK(armed.TryPredict(input_).ok());
    row_.cycles_watchdog = armed.report().cycles_per_inference;
    NEUROC_CHECK(row_.cycles_watchdog == row_.cycles_plain);  // zero supervisor cycles

    // Dual run: run, fast-restore RAM+registers, run again; both runs from cycle zero.
    armed.Scrub();
    NEUROC_CHECK(armed.TryPredict(input_).ok());
    const uint64_t run1 = armed.machine().cpu().cycles();
    armed.machine().Restore(armed.pristine_snapshot(), RestoreScope::kRamAndRegisters);
    NEUROC_CHECK(armed.TryPredict(input_).ok());
    row_.cycles_dual_run = run1 + armed.machine().cpu().cycles();
    NEUROC_CHECK(row_.cycles_dual_run == 2 * row_.cycles_plain);

    snap_ = plain_.machine().Snapshot();
    row_.snapshot_flash_bytes = snap_.memory.flash.size();
    row_.snapshot_ram_bytes = snap_.memory.ram.size();
  }

  void TimeRound() {
    // Wall costs of the state machinery itself.
    TimeBlock(iters_, snapshot_s_, [&] { (void)plain_.machine().Snapshot(); });
    TimeBlock(iters_, restore_full_s_, [&] { plain_.machine().Restore(snap_); });
    TimeBlock(iters_, restore_ram_s_, [&] {
      plain_.machine().Restore(snap_, RestoreScope::kRamAndRegisters);
    });
    // Guarded clean-path dispatch vs a bare TryPredict (same machine work, so the ratio
    // is the GuardedModel bookkeeping).
    TimeBlock(iters_, plain_s_, [&] { (void)plain_.TryPredict(input_); });
    TimeBlock(iters_, guarded_s_, [&] { (void)guarded_.Predict(input_); });
    // Full-ladder recovery wall cost for a kernel-code flash fault: detection plus the
    // snapshot rung (fails — flash still bad) plus the scrub rung (succeeds).
    TimeBlock(std::max(1, iters_ / 8), ladder_s_, [&] {
      Rng fault_rng(5);
      InjectFault(guarded_.deployed().machine().memory(),
                  guarded_.deployed().kernel_program().base_addr,
                  static_cast<uint32_t>(guarded_.deployed().kernel_program().bytes.size()),
                  FaultModel::kSingleBitFlip, 1, fault_rng);
      const GuardedResult gr = guarded_.Predict(input_);
      NEUROC_CHECK(gr.ok);
    });
  }

  // The row, from the best block of each wall cost.
  EncodingRow Row() const {
    EncodingRow row = row_;
    row.snapshot_wall_ms = 1e3 * snapshot_s_;
    row.restore_full_wall_ms = 1e3 * restore_full_s_;
    row.restore_ram_wall_ms = 1e3 * restore_ram_s_;
    row.guarded_clean_overhead_ratio = plain_s_ > 0.0 ? guarded_s_ / plain_s_ : 0.0;
    row.ladder_scrub_recovery_wall_ms = 1e3 * ladder_s_;
    return row;
  }

 private:
  int iters_;
  EncodingRow row_;
  DeployedModel plain_;
  GuardedModel guarded_;
  std::vector<int8_t> input_;
  MachineSnapshot snap_;
  double snapshot_s_ = 0.0;
  double restore_full_s_ = 0.0;
  double restore_ram_s_ = 0.0;
  double plain_s_ = 0.0;
  double guarded_s_ = 0.0;
  double ladder_s_ = 0.0;
};

// One mid-inference, dual-run fault campaign of 100 trials per encoding over all five
// encodings (perfbench's fault_mid shape), timed at one thread and at every host thread:
// best of kRepeats each, the two thread counts interleaved so a slow stretch of the host
// lands on both. Both reports must be byte-identical.
struct CampaignRow {
  uint64_t trials = 0;
  double wall_ms_1t = 0.0;
  double wall_ms_all_threads = 0.0;
};

CampaignRow MeasureCampaign() {
  FaultCampaignConfig cfg;
  cfg.seed = 11;
  cfg.trials_per_encoding = 100;
  cfg.trigger = FaultTrigger::kMidInference;
  cfg.policy.dual_run = true;
  CampaignRow row;
  std::string json[2];
  double best[2] = {0.0, 0.0};
  for (int rep = 0; rep < kRepeats; ++rep) {
    for (int k = 0; k < 2; ++k) {
      ThreadPool::SetGlobalThreads(k == 0 ? 1 : 0);  // 0: every host thread
      const auto t0 = std::chrono::steady_clock::now();
      const FaultCampaignResult result = RunFaultCampaign(cfg);
      const double ms = 1e3 * Seconds(t0, std::chrono::steady_clock::now());
      best[k] = rep == 0 ? ms : std::min(best[k], ms);
      json[k] = FaultCampaignJson(result);
      row.trials = result.totals.trials;
    }
  }
  NEUROC_CHECK_MSG(json[0] == json[1], "campaign report differs between thread counts");
  row.wall_ms_1t = best[0];
  row.wall_ms_all_threads = best[1];
  return row;
}

}  // namespace
}  // namespace neuroc

int main(int argc, char** argv) {
  using namespace neuroc;
  bool smoke = false;
  std::string out_path = "BENCH_recovery_overhead.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else {
      out_path = argv[i];
    }
  }
  const int iters = smoke ? 20 : 200;

  std::printf("recovery overhead, 128-32-10 @ density 0.15, %d iters per timing rep\n",
              iters);
  std::printf("%-8s %12s %12s %12s %10s %10s %10s %8s\n", "encoding", "cyc/inf",
              "cyc(wdog)", "cyc(dual)", "snap_ms", "restore_ms", "ram_ms", "guard_x");
  std::vector<std::unique_ptr<EncodingSweep>> sweeps;
  for (EncodingKind kind : kAllEncodingKinds) {
    sweeps.push_back(std::make_unique<EncodingSweep>(kind, iters));
  }
  for (int rep = 0; rep < kRepeats; ++rep) {
    for (const std::unique_ptr<EncodingSweep>& sweep : sweeps) {
      sweep->TimeRound();
    }
  }
  std::vector<EncodingRow> rows;
  for (const std::unique_ptr<EncodingSweep>& sweep : sweeps) {
    EncodingRow row = sweep->Row();
    std::printf("%-8s %12llu %12llu %12llu %10.4f %10.4f %10.4f %8.3f\n",
                row.encoding.c_str(), static_cast<unsigned long long>(row.cycles_plain),
                static_cast<unsigned long long>(row.cycles_watchdog),
                static_cast<unsigned long long>(row.cycles_dual_run),
                row.snapshot_wall_ms, row.restore_full_wall_ms, row.restore_ram_wall_ms,
                row.guarded_clean_overhead_ratio);
    rows.push_back(std::move(row));
  }
  const CampaignRow campaign = MeasureCampaign();
  const unsigned threads = DefaultThreadCount();
  std::printf("campaign (%llu trials): %.2f ms at 1 thread, %.2f ms at %u -> %.2fx\n",
              static_cast<unsigned long long>(campaign.trials), campaign.wall_ms_1t,
              campaign.wall_ms_all_threads, threads,
              campaign.wall_ms_1t / campaign.wall_ms_all_threads);

  JsonWriter w;
  w.BeginObject();
  w.Key("bench").Value("recovery_overhead");
  w.Key("model").Value("128-32-10 density 0.15");
  w.Key("smoke").Value(smoke ? 1 : 0);
  w.Key("timing_reps").Value(static_cast<uint64_t>(iters));
  w.Key("host_threads_available").Value(threads);
  w.Key("encodings").BeginArray();
  for (const EncodingRow& r : rows) {
    w.BeginObject();
    w.Key("encoding").Value(r.encoding);
    w.Key("cycles_per_inference").Value(r.cycles_plain);
    w.Key("cycles_per_inference_watchdog").Value(r.cycles_watchdog);
    w.Key("watchdog_extra_cycles").Value(r.cycles_watchdog - r.cycles_plain);
    w.Key("cycles_dual_run").Value(r.cycles_dual_run);
    w.Key("snapshot_flash_bytes").Value(r.snapshot_flash_bytes);
    w.Key("snapshot_ram_bytes").Value(r.snapshot_ram_bytes);
    w.Key("snapshot_wall_ms").ValueFixed(r.snapshot_wall_ms, 6);
    w.Key("restore_full_wall_ms").ValueFixed(r.restore_full_wall_ms, 6);
    w.Key("restore_ram_wall_ms").ValueFixed(r.restore_ram_wall_ms, 6);
    w.Key("guarded_clean_overhead_ratio").ValueFixed(r.guarded_clean_overhead_ratio, 3);
    w.Key("ladder_scrub_recovery_wall_ms").ValueFixed(r.ladder_scrub_recovery_wall_ms, 6);
    w.EndObject();
  }
  w.EndArray();
  w.Key("campaign").BeginObject();
  w.Key("shape").Value("mid-inference, dual_run, 100 trials x 5 encodings, seed 11");
  w.Key("campaign_trials").Value(campaign.trials);
  w.Key("wall_ms_1t").ValueFixed(campaign.wall_ms_1t, 3);
  w.Key("wall_ms_all_threads").ValueFixed(campaign.wall_ms_all_threads, 3);
  w.Key("campaign_speedup_vs_1t")
      .ValueFixed(campaign.wall_ms_1t / campaign.wall_ms_all_threads, 3);
  w.EndObject();
  w.Key("notes").BeginArray();
  w.Value(
      "watchdog_extra_cycles is asserted zero in-binary: the deadline is one supervisor "
      "compare per block/step, never guest work");
  w.Value(
      "cycles_dual_run is asserted exactly 2x cycles_per_inference: the redundant run "
      "replays from the pristine RAM+register snapshot");
  w.Value("restore_ram skips the flash rewrite and decode/block-cache invalidation");
  w.EndArray();
  w.EndObject();
  benchutil::WriteBenchJson(out_path, w);
  return 0;
}
