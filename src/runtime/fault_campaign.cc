#include "src/runtime/fault_campaign.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "src/common/check.h"
#include "src/common/rng.h"
#include "src/common/thread_pool.h"
#include "src/core/model_image.h"
#include "src/core/synthetic.h"
#include "src/obs/json_writer.h"
#include "src/obs/registry.h"
#include "src/runtime/deployed_model.h"

namespace neuroc {

namespace {

using Clock = std::chrono::steady_clock;

double MsBetween(Clock::time_point t0, Clock::time_point t1) {
  return std::chrono::duration<double, std::milli>(t1 - t0).count();
}

// Trials per chunk, the unit a worker claims. A trial is one small guarded inference plus
// a scrub, and chunks reuse warm machines rather than forking their own, so a small chunk
// costs only a claim and lets the last chunks of a campaign finish together. Measured on
// perfbench fault_mid on a 4-core x86-64 host (6 rounds of 5 s runs, median trials/s):
// 43.4k at 4, 42.4k at 8, 39.2k at 16, 38.7k at 32.
constexpr size_t kTrialsPerChunk = 4;

// Deterministic synthetic campaign model. The adjacency/scale/bias draws depend only on
// the shape and density — not the encoding — so every encoding packs the *same* ternary
// matrix and per-cell rates are directly comparable.
NeuroCModel BuildCampaignModel(const FaultCampaignConfig& cfg, EncodingKind kind) {
  std::vector<QuantNeuroCLayer> layers;
  Rng rng(SubSeed(cfg.seed, 0x6D6F64656Cull));  // "model" stream, disjoint from trials
  SyntheticNeuroCLayerSpec l1;
  l1.in_dim = cfg.in_dim;
  l1.out_dim = cfg.hidden_dim;
  l1.density = cfg.density;
  l1.encoding = kind;
  l1.relu = true;
  layers.push_back(MakeSyntheticNeuroCLayer(l1, rng));
  SyntheticNeuroCLayerSpec l2 = l1;
  l2.in_dim = cfg.hidden_dim;
  l2.out_dim = cfg.out_dim;
  l2.relu = false;
  layers.push_back(MakeSyntheticNeuroCLayer(l2, rng));
  return NeuroCModel::FromLayers(std::move(layers));
}

enum class Outcome : uint8_t {
  kCorrect,
  kSdc,
  kDetected,
  kBudgetExceeded,
  kDeadlineExceeded,
  kDualRunCaught,
};

struct TrialRecord {
  size_t region_index = 0;  // into FaultCampaignConfig::regions
  Outcome outcome = Outcome::kCorrect;
  bool masked = false;
  bool crc_flagged = false;
  bool attempted_recovery = false;
  bool recovered = false;
  RecoveryRung resolved = RecoveryRung::kNone;
  bool has_latency = false;
  uint64_t detect_latency_cycles = 0;
};

struct RegionSpan {
  uint32_t base = 0;
  uint32_t size = 0;
};

RegionSpan ResolveRegion(const DeployedModel& dm, CampaignRegion region) {
  const uint32_t descriptors_bytes =
      static_cast<uint32_t>(dm.num_layers()) * kDescriptorBytes;
  switch (region) {
    case CampaignRegion::kKernelCode:
      return {dm.kernel_program().base_addr,
              static_cast<uint32_t>(dm.kernel_program().bytes.size())};
    case CampaignRegion::kDescriptors:
      return {dm.image_base(), descriptors_bytes};
    case CampaignRegion::kPayload:
      return {dm.image_base() + descriptors_bytes,
              static_cast<uint32_t>(dm.image().flash.size()) - descriptors_bytes};
    case CampaignRegion::kSram:
      return {dm.machine().config().ram_base, dm.image().ram_bytes_used};
  }
  NEUROC_CHECK_MSG(false, "unknown campaign region");
  return {};
}

// One fault-free inference on a plain deployment of a copy of `program`: golden
// instruction/cycle counts (latency is input-independent by construction, so the zero
// input is representative).
struct Golden {
  uint64_t instructions = 0;
  uint64_t cycles = 0;
  size_t program_bytes = 0;
};

Golden MeasureGolden(const DeployedModel::Program& program) {
  StatusOr<DeployedModel> dm = DeployedModel::TryDeploy(program);
  NEUROC_CHECK_MSG(dm.ok(), "campaign deployment failed");
  const uint64_t before = dm->machine().cpu().instructions();
  dm->MeasureLatencyMs();
  Golden g;
  g.instructions = dm->machine().cpu().instructions() - before;
  g.cycles = dm->report().cycles_per_inference;
  g.program_bytes = dm->report().program_bytes;
  return g;
}

// What the set-up of one encoding makes from its one build: the fault-free counters, and
// the guarded deployment every trial chunk of that encoding forks. The prototype's
// machine carries the per-trial instruction budget (golden instructions × margin), so
// runaway trials classify as budget_exceeded instead of burning the 400M-instruction
// default guard.
struct EncodingSetup {
  Golden golden;
  std::unique_ptr<GuardedModel> prototype;  // null when the campaign has no trials
};

EncodingSetup SetUpEncoding(const FaultCampaignConfig& cfg, EncodingKind kind) {
  NeuroCModel model = BuildCampaignModel(cfg, kind);
  DeployedModel::Program program(model, MachineConfig{});
  EncodingSetup setup;
  setup.golden = MeasureGolden(program);
  if (cfg.trials_per_encoding == 0) {
    return setup;  // nothing will fork a prototype
  }
  program.config.max_instructions = std::max<uint64_t>(
      static_cast<uint64_t>(cfg.budget_margin *
                            static_cast<double>(setup.golden.instructions)),
      setup.golden.instructions + 1024);
  StatusOr<GuardedModel> guarded =
      GuardedModel::Create(std::move(model), std::move(program), cfg.policy);
  NEUROC_CHECK_MSG(guarded.ok(), "campaign deployment failed");
  setup.prototype = std::make_unique<GuardedModel>(std::move(*guarded));
  return setup;
}

TrialRecord RunTrial(GuardedModel& gm, const FaultCampaignConfig& cfg,
                     const Golden& golden, uint64_t trial_seed) {
  Rng rng(trial_seed);
  const std::vector<int8_t> input = MakeRandomInput(cfg.in_dim, rng);
  const int golden_pred = gm.model().Predict(input);
  const size_t region_index = rng.NextBounded(cfg.regions.size());
  const CampaignRegion region = cfg.regions[region_index];

  TrialRecord rec;
  rec.region_index = region_index;
  gm.deployed().Scrub();
  const RegionSpan span = ResolveRegion(gm.deployed(), region);

  GuardedResult gr;
  uint64_t injected_at_cycles = 0;
  bool injection_timed = false;  // both latency endpoints are known
  if (cfg.trigger == FaultTrigger::kPreInference) {
    const InjectedFault f =
        InjectFault(gm.deployed().machine().memory(), span.base, span.size,
                    cfg.fault_model, cfg.bits, rng);
    rec.masked = !f.changed();
    gr = gm.Predict(input);
    injection_timed = true;  // strike at cycle 0 of the inference
  } else {
    // The alarm fires exactly once, inside the first inference (its instruction count is
    // input-independent and equals the golden count), so ladder retries after the strike
    // run clean. If the kRedeploy rung swapped machines mid-ladder the clear below targets
    // the replacement — a no-op, which is fine: the original machine is gone.
    const uint64_t trigger = 1 + rng.NextBounded(golden.instructions);
    TriggeredInjector injector(trigger, span.base, span.size, cfg.fault_model, cfg.bits,
                               rng);
    injector.Arm(gm.deployed().machine().cpu());
    gr = gm.Predict(input);
    gm.deployed().machine().cpu().ClearInstructionAlarm();
    rec.masked = injector.fired() && !injector.fault().changed();
    injected_at_cycles = injector.fired_at_cycles();
    injection_timed = injector.fired();
  }

  if (gr.sdc_detected) {
    rec.outcome = Outcome::kDualRunCaught;
  } else if (!gr.faulted) {
    rec.outcome = (gr.prediction == golden_pred) ? Outcome::kCorrect : Outcome::kSdc;
  } else if (gr.first_fault.code == ErrorCode::kInstructionBudgetExceeded) {
    rec.outcome = Outcome::kBudgetExceeded;
  } else if (gr.first_fault.code == ErrorCode::kDeadlineExceeded) {
    rec.outcome = Outcome::kDeadlineExceeded;
  } else {
    rec.outcome = Outcome::kDetected;
  }

  if (gr.faulted || gr.sdc_detected) {
    rec.crc_flagged = !gr.corrupted_sections.empty();
    const RecoveryPolicy& p = gm.policy();
    if (p.snapshot_retry || p.scrub_retry || p.redeploy) {
      rec.attempted_recovery = true;
      rec.recovered = gr.ok && gr.prediction == golden_pred;
      rec.resolved = gr.resolved_by;
    }
    if (injection_timed && gr.detection_cycles >= injected_at_cycles) {
      rec.has_latency = true;
      rec.detect_latency_cycles = gr.detection_cycles - injected_at_cycles;
    }
  }
  return rec;
}

void Accumulate(RegionStats& stats, const TrialRecord& rec) {
  ++stats.trials;
  switch (rec.outcome) {
    case Outcome::kCorrect: ++stats.correct; break;
    case Outcome::kSdc: ++stats.sdc; break;
    case Outcome::kDetected: ++stats.detected; break;
    case Outcome::kBudgetExceeded: ++stats.budget_exceeded; break;
    case Outcome::kDeadlineExceeded: ++stats.deadline_exceeded; break;
    case Outcome::kDualRunCaught: ++stats.dual_run_caught; break;
  }
  if (rec.masked) ++stats.masked;
  if (rec.crc_flagged) ++stats.crc_flagged;
  if (rec.attempted_recovery) {
    if (rec.recovered) {
      ++stats.recovered;
      switch (rec.resolved) {
        case RecoveryRung::kSnapshotRetry: ++stats.recovered_snapshot; break;
        case RecoveryRung::kScrubRetry: ++stats.recovered_scrub; break;
        case RecoveryRung::kRedeploy: ++stats.recovered_redeploy; break;
        default: break;
      }
    } else {
      ++stats.unrecovered;
    }
    if (rec.resolved == RecoveryRung::kPermanentFailure) ++stats.permanent_failure;
  }
  if (rec.has_latency) {
    stats.detect_latency_cycles_sum += rec.detect_latency_cycles;
    ++stats.detect_count;
  }
}

}  // namespace

const char* FaultTriggerName(FaultTrigger trigger) {
  switch (trigger) {
    case FaultTrigger::kPreInference: return "pre";
    case FaultTrigger::kMidInference: return "mid";
  }
  return "unknown";
}

bool ParseFaultTrigger(std::string_view text, FaultTrigger* out) {
  if (text == "pre") {
    *out = FaultTrigger::kPreInference;
  } else if (text == "mid") {
    *out = FaultTrigger::kMidInference;
  } else {
    return false;
  }
  return true;
}

const char* CampaignRegionName(CampaignRegion region) {
  switch (region) {
    case CampaignRegion::kKernelCode: return "kernel_code";
    case CampaignRegion::kDescriptors: return "descriptors";
    case CampaignRegion::kPayload: return "payload";
    case CampaignRegion::kSram: return "sram";
  }
  return "unknown";
}

bool ParseCampaignRegion(std::string_view text, CampaignRegion* out) {
  for (CampaignRegion r : kAllCampaignRegions) {
    if (text == CampaignRegionName(r)) {
      *out = r;
      return true;
    }
  }
  return false;
}

void RegionStats::Add(const RegionStats& o) {
  trials += o.trials;
  correct += o.correct;
  sdc += o.sdc;
  detected += o.detected;
  budget_exceeded += o.budget_exceeded;
  deadline_exceeded += o.deadline_exceeded;
  dual_run_caught += o.dual_run_caught;
  masked += o.masked;
  recovered += o.recovered;
  unrecovered += o.unrecovered;
  crc_flagged += o.crc_flagged;
  recovered_snapshot += o.recovered_snapshot;
  recovered_scrub += o.recovered_scrub;
  recovered_redeploy += o.recovered_redeploy;
  permanent_failure += o.permanent_failure;
  detect_latency_cycles_sum += o.detect_latency_cycles_sum;
  detect_count += o.detect_count;
}

FaultCampaignResult RunFaultCampaign(const FaultCampaignConfig& config) {
  NEUROC_CHECK(config.trials_per_encoding >= 0);
  NEUROC_CHECK(!config.regions.empty());
  NEUROC_CHECK(!config.encodings.empty());
  NEUROC_CHECK(config.budget_margin >= 1.0);

  const Clock::time_point start = Clock::now();
  FaultCampaignResult result;
  result.config = config;

  const size_t num_enc = config.encodings.size();
  const size_t per_enc = static_cast<size_t>(config.trials_per_encoding);
  const size_t chunks_per_enc = (per_enc + kTrialsPerChunk - 1) / kTrialsPerChunk;
  std::vector<TrialRecord> records(per_enc * num_enc);
  std::vector<EncodingSetup> setups(num_enc);
  std::vector<Clock::time_point> setup_done(num_enc);

  // Guarded by `mu`: which encodings are set up, the warm forks of each encoding that no
  // chunk is using, and how many chunks of each encoding have not finished. A chunk runs
  // on at most one machine at a time, so no encoding holds more machines than there are
  // workers; the last chunk of an encoding frees them and the prototype.
  std::mutex mu;
  std::condition_variable set_up;
  std::vector<char> ready(num_enc, 0);
  std::vector<std::vector<std::unique_ptr<GuardedModel>>> idle(num_enc);
  std::vector<size_t> chunks_left(num_enc, chunks_per_enc);
  std::atomic<uint64_t> forks{0};

  // A machine for encoding e: a warm one from the pool, else a new fork of the prototype
  // (a fresh machine restored to the pristine deployment, no rebuild). Waits only for
  // encoding e's own set-up.
  const auto take = [&](size_t e) {
    {
      std::unique_lock<std::mutex> lock(mu);
      set_up.wait(lock, [&] { return ready[e] != 0; });
      if (!idle[e].empty()) {
        std::unique_ptr<GuardedModel> gm = std::move(idle[e].back());
        idle[e].pop_back();
        return gm;
      }
    }
    forks.fetch_add(1, std::memory_order_relaxed);
    return std::make_unique<GuardedModel>(setups[e].prototype->Fork());
  };

  // One pass over the units, with no barrier: the set-up of every encoding, then the trial
  // chunks in trial order, each claimed by whichever worker is free. Every set-up is
  // claimed before any chunk, so a chunk that waits for its encoding waits on a worker
  // that is running that set-up. Every trial owns the slot records[t] and scrubs the
  // device first, and a machine whose kRedeploy rung left a fallback encoding active is
  // dropped, so outcomes are independent of which machine, chunk or thread runs a trial.
  const size_t units = num_enc + num_enc * chunks_per_enc;
  std::atomic<size_t> next_unit{0};
  Clock::time_point first_claim;
  ParallelFor(0, ThreadPool::Global().num_threads(), 1, [&](size_t, size_t) {
    for (size_t u = next_unit.fetch_add(1); u < units; u = next_unit.fetch_add(1)) {
      if (u < num_enc) {
        if (u == 0) {
          first_claim = Clock::now();
        }
        setups[u] = SetUpEncoding(config, config.encodings[u]);
        setup_done[u] = Clock::now();
        {
          std::lock_guard<std::mutex> lock(mu);
          ready[u] = 1;
        }
        set_up.notify_all();
        continue;
      }
      const size_t chunk = u - num_enc;
      const size_t e = chunk / chunks_per_enc;
      const size_t t0 = e * per_enc + (chunk % chunks_per_enc) * kTrialsPerChunk;
      const size_t t1 = std::min(t0 + kTrialsPerChunk, (e + 1) * per_enc);
      std::unique_ptr<GuardedModel> gm;
      for (size_t t = t0; t < t1; ++t) {
        if (gm == nullptr) {
          gm = take(e);
        }
        records[t] = RunTrial(*gm, config, setups[e].golden, SubSeed(config.seed, t));
        if (gm->active_encoding() != gm->primary_encoding()) {
          gm.reset();
        }
      }
      // Hand the machine to the encoding's next chunk, unless every chunk of it is
      // already claimed. The last chunk to finish frees the pool and the prototype,
      // outside the lock.
      if (next_unit.load() > num_enc + (e + 1) * chunks_per_enc - 1) {
        gm.reset();
      }
      std::vector<std::unique_ptr<GuardedModel>> finished;
      {
        std::lock_guard<std::mutex> lock(mu);
        if (gm != nullptr) {
          idle[e].push_back(std::move(gm));
        }
        if (--chunks_left[e] == 0) {
          finished = std::move(idle[e]);
          finished.push_back(std::move(setups[e].prototype));
        }
      }
    }
  });
  const Clock::time_point last_set_up =
      *std::max_element(setup_done.begin(), setup_done.end());

  // Sequential aggregation in trial order — deterministic bytes all the way down.
  for (size_t e = 0; e < num_enc; ++e) {
    EncodingCampaignResult enc;
    enc.encoding = config.encodings[e];
    const Golden& golden = setups[e].golden;
    enc.golden_instructions = golden.instructions;
    enc.golden_cycles = golden.cycles;
    enc.program_bytes = golden.program_bytes;
    enc.regions.assign(config.regions.size(), RegionStats{});
    for (size_t t = e * per_enc; t < (e + 1) * per_enc; ++t) {
      Accumulate(enc.regions[records[t].region_index], records[t]);
    }
    for (const RegionStats& r : enc.regions) {
      enc.totals.Add(r);
    }
    result.totals.Add(enc.totals);
    result.encodings.push_back(std::move(enc));
  }
  MetricsRegistry& reg = MetricsRegistry::Global();
  reg.GetCounter("faultcampaign.trials").Add(result.totals.trials);
  reg.GetCounter("faultcampaign.sdc").Add(result.totals.sdc);
  reg.GetCounter("faultcampaign.detected").Add(result.totals.detected);
  reg.GetCounter("faultcampaign.recovered").Add(result.totals.recovered);
  reg.GetCounter("faultcampaign.deadline_exceeded").Add(result.totals.deadline_exceeded);
  reg.GetCounter("faultcampaign.dual_run_caught").Add(result.totals.dual_run_caught);
  reg.GetCounter("faultcampaign.forks").Add(forks.load(std::memory_order_relaxed));
  reg.GetHistogram("faultcampaign.setup_ms").Observe(MsBetween(first_claim, last_set_up));
  reg.GetHistogram("faultcampaign.wall_ms").Observe(MsBetween(start, Clock::now()));
  return result;
}

namespace {

void WriteStats(JsonWriter& w, const RegionStats& s) {
  w.BeginObject();
  w.Key("trials").Value(s.trials);
  w.Key("correct").Value(s.correct);
  w.Key("sdc").Value(s.sdc);
  w.Key("detected").Value(s.detected);
  w.Key("budget_exceeded").Value(s.budget_exceeded);
  w.Key("deadline_exceeded").Value(s.deadline_exceeded);
  w.Key("dual_run_caught").Value(s.dual_run_caught);
  w.Key("masked").Value(s.masked);
  w.Key("crc_flagged").Value(s.crc_flagged);
  w.Key("recovered").Value(s.recovered);
  w.Key("recovered_snapshot").Value(s.recovered_snapshot);
  w.Key("recovered_scrub").Value(s.recovered_scrub);
  w.Key("recovered_redeploy").Value(s.recovered_redeploy);
  w.Key("unrecovered").Value(s.unrecovered);
  w.Key("permanent_failure").Value(s.permanent_failure);
  w.Key("sdc_rate").Value(s.SdcRate());
  w.Key("detect_latency_samples").Value(s.detect_count);
  w.Key("mean_detect_latency_cycles").Value(s.MeanDetectLatencyCycles());
  w.EndObject();
}

}  // namespace

std::string FaultCampaignJson(const FaultCampaignResult& result) {
  const FaultCampaignConfig& cfg = result.config;
  JsonWriter w;
  w.BeginObject();
  w.Key("campaign").BeginObject();
  w.Key("seed").Value(cfg.seed);
  w.Key("trials_per_encoding").Value(cfg.trials_per_encoding);
  w.Key("fault_model").Value(FaultModelName(cfg.fault_model));
  w.Key("bits").Value(cfg.bits);
  w.Key("trigger").Value(FaultTriggerName(cfg.trigger));
  w.Key("policy").BeginObject();
  w.Key("snapshot_retry").Value(cfg.policy.snapshot_retry);
  w.Key("scrub_retry").Value(cfg.policy.scrub_retry);
  w.Key("redeploy").Value(cfg.policy.redeploy);
  w.Key("dual_run").Value(cfg.policy.dual_run);
  w.Key("watchdog_headroom").Value(cfg.policy.watchdog_headroom);
  w.EndObject();
  w.Key("budget_margin").Value(cfg.budget_margin);
  w.Key("model").BeginObject();
  w.Key("in_dim").Value(static_cast<uint64_t>(cfg.in_dim));
  w.Key("hidden_dim").Value(static_cast<uint64_t>(cfg.hidden_dim));
  w.Key("out_dim").Value(static_cast<uint64_t>(cfg.out_dim));
  w.Key("density").Value(cfg.density);
  w.EndObject();
  w.EndObject();
  w.Key("encodings").BeginArray();
  for (const EncodingCampaignResult& enc : result.encodings) {
    w.BeginObject();
    w.Key("encoding").Value(EncodingKindName(enc.encoding));
    w.Key("golden_instructions").Value(enc.golden_instructions);
    w.Key("golden_cycles").Value(enc.golden_cycles);
    w.Key("program_bytes").Value(static_cast<uint64_t>(enc.program_bytes));
    w.Key("regions").BeginArray();
    for (size_t r = 0; r < enc.regions.size(); ++r) {
      w.BeginObject();
      w.Key("region").Value(CampaignRegionName(cfg.regions[r]));
      w.Key("stats");
      WriteStats(w, enc.regions[r]);
      w.EndObject();
    }
    w.EndArray();
    w.Key("totals");
    WriteStats(w, enc.totals);
    w.EndObject();
  }
  w.EndArray();
  w.Key("totals");
  WriteStats(w, result.totals);
  w.EndObject();
  return w.str();
}

}  // namespace neuroc
