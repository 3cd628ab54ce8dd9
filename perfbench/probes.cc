// Per-layer probes of the traced run. Each probe times direct calls into one module with
// the workloads' own seeded models and data, so the numbers split the end-to-end
// metrics by module (the map from each probe to the end-to-end metric it should move is
// in perfbench/PROVENANCE.json). The probe suite is the same for every workload.
//
// Two determinism checks live here because they need two thread counts: the fault
// campaign and the search must return identical results with a pool of 1 and of
// HostThreads() workers.

#include <algorithm>
#include <cmath>

#include "bench.h"
#include "serve_harness.h"
#include "src/common/check.h"
#include "src/common/thread_pool.h"
#include "src/core/synthetic.h"
#include "src/data/synth.h"
#include "src/isa/assembler.h"
#include "src/kernels/kernel_sources.h"
#include "src/obs/json_reader.h"
#include "src/obs/registry.h"
#include "src/runtime/fault_campaign.h"
#include "src/runtime/recovery.h"
#include "src/train/trainer.h"

namespace perfbench {
namespace {

using neuroc::EncodingKind;
using neuroc::MetricsRegistry;

// Median per-call time in microseconds of `reps` calls of `fn`, over `rounds` rounds.
template <typename Fn>
double MedianCallUs(int rounds, int reps, Fn&& fn) {
  std::vector<double> per_call;
  for (int r = 0; r < rounds; ++r) {
    const Clock::time_point t0 = Clock::now();
    for (int i = 0; i < reps; ++i) {
      fn();
    }
    per_call.push_back(1e6 * SecondsSince(t0) / reps);
  }
  return Median(per_call);
}

// Probe CpuProbe that observes nothing: attaching any probe moves execution onto the
// step interpreter, the path mid-inference fault trials take.
class NullProbe : public neuroc::CpuProbe {
 public:
  void OnRetire(uint32_t, neuroc::Op, uint32_t) override {}
};

// Guest instructions per host second, in millions, of TryPredict on `dm` for `seconds`.
double MeasureMips(neuroc::DeployedModel& dm, const std::vector<int8_t>& input,
                   double seconds, uint64_t* per_inference) {
  NEUROC_CHECK(dm.TryPredict(input).ok());  // warm the decode and block caches
  const uint64_t i0 = dm.machine().cpu().instructions();
  uint64_t runs = 0;
  const Clock::time_point t0 = Clock::now();
  while (SecondsSince(t0) < seconds || runs == 0) {
    NEUROC_CHECK(dm.TryPredict(input).ok());
    ++runs;
  }
  const double elapsed = SecondsSince(t0);
  const uint64_t instructions = dm.machine().cpu().instructions() - i0;
  *per_inference = instructions / runs;
  return static_cast<double>(instructions) / elapsed / 1e6;
}

std::vector<int8_t> FirstInput(uint64_t seed) {
  const neuroc::QuantizedDataset q = neuroc::QuantizeInputs(neuroc::MakeMnistLike(1, seed));
  return std::vector<int8_t>(q.example(0), q.example(0) + q.input_dim);
}

void ProbeCommonData(const Options& o, Report& report) {
  const unsigned n = HostThreads();
  neuroc::ThreadPool::SetGlobalThreads(n);
  report.Add("common.parallel_for_us", "us", MedianCallUs(5, 400, [n] {
               neuroc::ParallelFor(0, n, 1, [](size_t, size_t) {});
             }));
  constexpr size_t kExamples = 512;
  const Clock::time_point t0 = Clock::now();
  const neuroc::QuantizedDataset q =
      neuroc::QuantizeInputs(neuroc::MakeMnistLike(kExamples, o.seed + 17));
  report.Add("data.examples_per_s", "1/s", static_cast<double>(q.num_examples()) /
                                               SecondsSince(t0));
}

void ProbeTrainCoreSearch(const Options& o, Report& report) {
  const SearchData data = MakeSearchData(o.seed, nullptr);
  const neuroc::TrainConfig cfg = BenchTrainConfig();
  neuroc::NeuroCSpec spec;
  spec.hidden = {32};
  spec.layer.ternary.target_density = 0.1f;
  const double examples =
      static_cast<double>(data.train.num_examples()) * static_cast<double>(cfg.epochs);
  neuroc::Network trained;
  for (const unsigned threads : {1u, HostThreads()}) {
    neuroc::ThreadPool::SetGlobalThreads(threads);
    neuroc::Rng rng(o.seed);
    neuroc::Network net = neuroc::BuildNeuroC(data.train.input_dim(),
                                              static_cast<size_t>(data.train.num_classes),
                                              spec, rng);
    const Clock::time_point t0 = Clock::now();
    neuroc::Train(net, data.train, data.validation, cfg);
    report.Add(threads == 1 ? "train.examples_per_s_1t" : "train.examples_per_s", "1/s",
               examples / SecondsSince(t0));
    trained = std::move(net);
  }
  {
    const Clock::time_point t0 = Clock::now();
    neuroc::EvaluateAccuracy(trained, data.validation);
    report.Add("tensor.eval_examples_per_s", "1/s",
               static_cast<double>(data.validation.num_examples()) / SecondsSince(t0));
  }
  report.Add("core.quantize_ms", "ms", 1e-3 * MedianCallUs(3, 1, [&] {
               neuroc::NeuroCModel::FromTrained(trained, data.train);
             }));

  // The search workload's search at 1 and HostThreads() workers: identical results.
  double wall_ms[2] = {0.0, 0.0};
  neuroc::SearchResult results[2];
  for (int k = 0; k < 2; ++k) {
    neuroc::ThreadPool::SetGlobalThreads(k == 0 ? 1 : HostThreads());
    const Clock::time_point t0 = Clock::now();
    results[k] = neuroc::RandomSearch(data.train, data.validation, BenchSearchSpace(), {},
                                      kSearchTrials, cfg, o.seed);
    wall_ms[k] = MsSince(t0);
  }
  if (!SameSearchResult(results[0], results[1])) {
    report.Mismatch("search: results differ between 1 and " +
                    std::to_string(HostThreads()) + " threads");
  }
  report.Add("runtime.search_trial_ms", "ms", wall_ms[1] / kSearchTrials);
  report.Add("runtime.search_speedup_vs_1t", "ratio", wall_ms[0] / wall_ms[1]);
  report.Add("runtime.search_best_accuracy", "ratio",
             results[1].best < 0
                 ? 0.0
                 : results[1].candidates[static_cast<size_t>(results[1].best)].accuracy);
}

void ProbeCampaign(const Options& o, Report& report) {
  neuroc::FaultCampaignConfig cfg;
  cfg.seed = o.seed;
  cfg.trials_per_encoding = 100;
  cfg.trigger = neuroc::FaultTrigger::kMidInference;
  cfg.policy.dual_run = true;
  double wall_ms[2] = {0.0, 0.0};
  neuroc::FaultCampaignResult results[2];
  for (int k = 0; k < 2; ++k) {
    neuroc::ThreadPool::SetGlobalThreads(k == 0 ? 1 : HostThreads());
    const Clock::time_point t0 = Clock::now();
    results[k] = neuroc::RunFaultCampaign(cfg);
    wall_ms[k] = MsSince(t0);
  }
  if (neuroc::FaultCampaignJson(results[0]) != neuroc::FaultCampaignJson(results[1])) {
    report.Mismatch("fault_mid: campaign differs between 1 and " +
                    std::to_string(HostThreads()) + " threads");
  }
  const neuroc::RegionStats& t = results[1].totals;
  const double trials = static_cast<double>(std::max<uint64_t>(1, t.trials));
  report.Add("runtime.campaign_trial_us", "us", 1e3 * wall_ms[1] / trials);
  report.Add("runtime.campaign_speedup_vs_1t", "ratio", wall_ms[0] / wall_ms[1]);
  report.Add("runtime.recovered_snapshot", "count", static_cast<double>(t.recovered_snapshot));
  report.Add("runtime.recovered_scrub", "count", static_cast<double>(t.recovered_scrub));
  report.Add("runtime.recovered_redeploy", "count", static_cast<double>(t.recovered_redeploy));
  report.Add("runtime.permanent_failure", "count", static_cast<double>(t.permanent_failure));
  report.Add("runtime.detect_latency_cycles_mean", "cycles", t.MeanDetectLatencyCycles());
  report.Add("runtime.sdc_rate", "ratio", t.SdcRate());
}

// Deployment, codegen, assembly and simulator probes on the mcu_infer models.
void ProbeMcuModels(const Options& o, double seconds, Report& report) {
  const std::vector<int8_t> input = FirstInput(o.seed);
  const neuroc::NeuroCModel base = McuModel128(o.seed);
  const double mips_seconds = seconds / 20.0;  // two loops per encoding
  std::vector<double> reencode_ms;
  std::vector<double> deploy_ms;
  double codegen_ms = 0.0;
  double assemble_ms = 0.0;
  double source_lines = 0.0;
  std::vector<double> predict_batch_us;
  for (EncodingKind kind : neuroc::kAllEncodingKinds) {
    const std::string enc = neuroc::EncodingKindName(kind);
    Clock::time_point t0 = Clock::now();
    neuroc::NeuroCModel model = neuroc::ReencodeModel(base, kind);
    reencode_ms.push_back(MsSince(t0));
    t0 = Clock::now();
    neuroc::StatusOr<neuroc::DeployedModel> dm =
        neuroc::DeployedModel::TryDeployWithFallback(model);
    deploy_ms.push_back(MsSince(t0));
    NEUROC_CHECK_MSG(dm.ok(), "probe: deployment failed");

    // Codegen and assembly of exactly the kernels this deployment links.
    for (const neuroc::KernelVariant& v : dm->image().variants) {
      t0 = Clock::now();
      const std::string source =
          kind == EncodingKind::kUnrolled
              ? neuroc::GenerateUnrolledKernelSource(
                    v, static_cast<const neuroc::UnrolledEncoding&>(
                           *model.layers()[static_cast<size_t>(v.unrolled_layer)].encoding))
              : neuroc::GenerateKernelSource(v);
      codegen_ms += MsSince(t0);
      source_lines += static_cast<double>(std::count(source.begin(), source.end(), '\n'));
      t0 = Clock::now();
      neuroc::Assemble(source, dm->machine().config().flash_base);
      assemble_ms += MsSince(t0);
    }

    uint64_t per_inference = 0;
    report.Add("sim.block_mips." + enc, "Minstr/s",
               MeasureMips(*dm, input, mips_seconds, &per_inference));
    report.Add("sim.instructions_per_inference." + enc, "instr",
               static_cast<double>(per_inference));
    neuroc::StatusOr<neuroc::DeployedModel> step = neuroc::DeployedModel::TryDeploy(model);
    NEUROC_CHECK(step.ok());
    NullProbe probe;
    step->machine().cpu().EnableBlockCompile(false);
    step->machine().cpu().set_probe(&probe);
    uint64_t step_per_inference = 0;
    report.Add("sim.step_mips." + enc, "Minstr/s",
               MeasureMips(*step, input, mips_seconds, &step_per_inference));
    step->machine().cpu().set_probe(nullptr);
    if (step_per_inference != per_inference) {
      report.Mismatch("sim: step and block paths retire different instruction counts");
    }

    if (kind == EncodingKind::kCsc) {
      neuroc::Machine& m = dm->machine();
      const neuroc::MachineSnapshot snap = m.Snapshot();
      report.Add("sim.snapshot_us", "us", MedianCallUs(5, 20, [&] { m.Snapshot(); }));
      report.Add("sim.restore_ram_us", "us", MedianCallUs(5, 20, [&] {
                   m.Restore(snap, neuroc::RestoreScope::kRamAndRegisters);
                 }));
      report.Add("sim.restore_full_us", "us", MedianCallUs(5, 20, [&] {
                   m.Restore(snap, neuroc::RestoreScope::kFull);
                 }));
      std::vector<double> cold;
      std::vector<double> warm;
      for (int r = 0; r < 9; ++r) {
        m.Restore(snap, neuroc::RestoreScope::kFull);  // drops the decode and block caches
        t0 = Clock::now();
        NEUROC_CHECK(dm->TryPredict(input).ok());
        cold.push_back(1e3 * MsSince(t0));
        t0 = Clock::now();
        NEUROC_CHECK(dm->TryPredict(input).ok());
        warm.push_back(1e3 * MsSince(t0));
      }
      report.Add("sim.cold_inference_us", "us", Median(cold));
      report.Add("sim.warm_inference_us", "us", Median(warm));
      report.Add("runtime.scrub_us", "us", MedianCallUs(5, 10, [&] { dm->Scrub(); }));
      report.Add("runtime.arm_watchdog_ms", "ms",
                 1e-3 * MedianCallUs(3, 1, [&] { NEUROC_CHECK(dm->ArmWatchdog().ok()); }));
      std::vector<int8_t> out;
      report.Add("core.host_forward_us", "us",
                 MedianCallUs(5, 50, [&] { model.Forward(input, out); }));
      const double plain_us =
          MedianCallUs(5, 20, [&] { NEUROC_CHECK(dm->TryPredict(input).ok()); });
      neuroc::StatusOr<neuroc::GuardedModel> gm = neuroc::GuardedModel::Create(
          neuroc::ReencodeModel(base, kind));
      NEUROC_CHECK(gm.ok());
      const double guarded_us = MedianCallUs(5, 20, [&] { gm->Predict(input); });
      report.Add("runtime.guarded_overhead_ratio", "ratio", guarded_us / plain_us);
    }
    neuroc::StatusOr<neuroc::GuardedModel> gm = neuroc::GuardedModel::Create(std::move(model));
    NEUROC_CHECK(gm.ok());
    const std::vector<std::vector<int8_t>> batch(8, input);
    predict_batch_us.push_back(MedianCallUs(3, 2, [&] { gm->PredictBatch(batch); }) / 8.0);
  }
  // The flash-budget fallback of the 784-256 unrolled request.
  neuroc::DeployFallbackReport fallback;
  const Clock::time_point t0 = Clock::now();
  NEUROC_CHECK(neuroc::DeployedModel::TryDeployWithFallback(McuModel256Unrolled(o.seed), {},
                                                            &fallback)
                   .ok());
  deploy_ms.push_back(MsSince(t0));

  double deploy_sum = 0.0;
  for (double ms : deploy_ms) {
    deploy_sum += ms;
  }
  report.Add("runtime.deploy_ms", "ms", deploy_sum / static_cast<double>(deploy_ms.size()));
  report.Add("runtime.fallbacks", "count", fallback.fell_back ? 1.0 : 0.0);
  report.Add("core.reencode_ms", "ms", Median(reencode_ms));
  report.Add("kernels.codegen_ms", "ms", codegen_ms);
  report.Add("kernels.source_lines", "lines", source_lines);
  report.Add("isa.assemble_ms", "ms", assemble_ms);
  report.Add("isa.assemble_klines_per_s", "klines/s", source_lines / assemble_ms);
  report.Add("runtime.predict_batch_us.mcu", "us", Median(predict_batch_us));
}

// Serve and obs probes: framed versus direct submission at the nominal rate, the
// registry deltas of those passes, and saturated throughput at 1 and HostThreads().
void ProbeServeObs(const Options& o, double seconds, Report& report) {
  MetricsRegistry& reg = MetricsRegistry::Global();
  const auto batches0 = reg.GetCounter("serve.batches").value();
  const auto batch_hist0 = reg.GetHistogram("serve.batch_size").snapshot();
  const auto hits0 = reg.GetCounter("serve.cache.hits").value();
  const auto misses0 = reg.GetCounter("serve.cache.misses").value();
  const auto rejected0 = reg.GetCounter("serve.rejected").value();

  ServeHarness harness(o.seed);
  harness.Start(HostThreads());
  const OpenLoopResult open = MeasureOpenLoop(harness, 0.15 * seconds, 0.05 * seconds, report);
  const ServeStep& framed = open.nominal;
  const ServeStep direct = harness.RunDirectStep(kServeNominalRate, 0.15 * seconds, 2);
  CheckPayloads(direct, report);
  report.Add("serve.open_p50_ms", "ms", open.latency.median);
  report.Add("serve.open_p99_ms", "ms", open.latency.tail);
  report.Add("serve.max_rps_at_slo", "1/s", open.max_rps_at_slo);
  const double direct_p50 = Chunked(direct.latency_ms).median;
  report.Add("serve.frame_path_us", "us", 1e3 * (open.latency.median - direct_p50));
  report.Add("serve.submit_us", "us", Median(direct.submit_us));
  report.Add("serve.service_p50_ms", "ms", Median(direct.service_ms));
  report.Add("serve.queue_depth_p99", "count",
             Summarize(std::vector<double>(framed.queue_depth.begin(),
                                           framed.queue_depth.end()))
                 .tail);
  report.Add("serve.generator_lag_p99_ms", "ms", open.lag.tail);

  const auto batch_hist = reg.GetHistogram("serve.batch_size").snapshot();
  const double batch_count = static_cast<double>(batch_hist.count - batch_hist0.count);
  const double batch_mean =
      batch_count > 0 ? (batch_hist.sum - batch_hist0.sum) / batch_count : 0.0;
  report.Add("serve.batch_size_mean", "count", batch_mean);
  report.Add("serve.batches", "count",
             static_cast<double>(reg.GetCounter("serve.batches").value() - batches0));
  const double hits = static_cast<double>(reg.GetCounter("serve.cache.hits").value() - hits0);
  const double misses =
      static_cast<double>(reg.GetCounter("serve.cache.misses").value() - misses0);
  report.Add("serve.cache_hit_ratio", "ratio", hits / std::max(1.0, hits + misses));
  report.Add("serve.cache_lookups", "count", hits + misses);
  report.Add("serve.rejected", "count",
             static_cast<double>(reg.GetCounter("serve.rejected").value() - rejected0));
  report.Add("serve.model_loads", "count", static_cast<double>(harness.model_loads()));
  report.Add("serve.model_load_ms", "ms", harness.model_load_ms());

  // The registry as the serve passes leave it.
  neuroc::JsonWriter w;
  reg.WriteJson(w);
  neuroc::JsonValue json;
  std::string error;
  double size = 0.0;
  if (neuroc::ParseJson(w.str(), &json, &error)) {
    for (const auto& [section, members] : json.members) {
      size += static_cast<double>(members.members.size());
    }
  }
  report.Add("obs.registry_size", "count", size);
  report.Add("obs.get_counter_ns", "ns", 1e3 * MedianCallUs(5, 20000, [&reg] {
               reg.GetCounter("serve.completed").Add(0);
             }));
  MetricsRegistry::Histogram& hist = reg.GetHistogram("perfbench.probe_observe");
  report.Add("obs.histogram_observe_ns", "ns",
             1e3 * MedianCallUs(5, 20000, [&hist] { hist.Observe(1.0); }));

  // Simulation share of a served request: PredictBatch on the serve models at the
  // observed mean batch size.
  const size_t batch_size = std::max<size_t>(1, static_cast<size_t>(std::lround(batch_mean)));
  std::vector<double> per_inference;
  for (size_t i = 0; i < kServeModels; ++i) {
    neuroc::StatusOr<neuroc::GuardedModel> gm =
        neuroc::GuardedModel::Create(BuildServeModel(o.seed, i));
    NEUROC_CHECK(gm.ok());
    neuroc::Rng rng(o.seed + i);
    std::vector<std::vector<int8_t>> batch;
    for (size_t k = 0; k < batch_size; ++k) {
      batch.push_back(neuroc::MakeRandomInput(gm->deployed().input_dim(), rng));
    }
    per_inference.push_back(MedianCallUs(5, 50, [&] { gm->PredictBatch(batch); }) /
                            static_cast<double>(batch_size));
  }
  double mean_us = 0.0;
  for (double us : per_inference) {
    mean_us += us / static_cast<double>(per_inference.size());
  }
  report.Add("runtime.predict_batch_us.serve", "us", mean_us);

  const double capacity_nt = harness.RunClosedFrameStep(0.07 * seconds, 3, nullptr).throughput;
  harness.Stop();
  harness.Start(1);
  const double capacity_1t = harness.RunClosedFrameStep(0.07 * seconds, 3, nullptr).throughput;
  harness.Stop();
  neuroc::ThreadPool::SetGlobalThreads(HostThreads());
  report.Add("serve.capacity_speedup_vs_1t", "ratio", capacity_nt / capacity_1t);
}

}  // namespace

void RunLayerProbes(const Options& options, double seconds, Report& report) {
  ProbeCommonData(options, report);
  ProbeTrainCoreSearch(options, report);
  ProbeCampaign(options, report);
  ProbeMcuModels(options, seconds, report);
  ProbeServeObs(options, seconds, report);
  neuroc::ThreadPool::SetGlobalThreads(HostThreads());
}

}  // namespace perfbench
