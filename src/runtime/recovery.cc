#include "src/runtime/recovery.h"

#include <algorithm>
#include <utility>

#include "src/common/check.h"
#include "src/obs/registry.h"

namespace neuroc {

const char* RecoveryRungName(RecoveryRung rung) {
  switch (rung) {
    case RecoveryRung::kNone: return "none";
    case RecoveryRung::kSnapshotRetry: return "snapshot_retry";
    case RecoveryRung::kScrubRetry: return "scrub_retry";
    case RecoveryRung::kRedeploy: return "redeploy";
    case RecoveryRung::kPermanentFailure: return "permanent_failure";
  }
  return "unknown";
}

StatusOr<GuardedModel> GuardedModel::Create(NeuroCModel model,
                                            const MachineConfig& config,
                                            const RecoveryPolicy& policy) {
  DeployedModel::Program program(model, config);
  return Create(std::move(model), std::move(program), policy);
}

StatusOr<GuardedModel> GuardedModel::Create(NeuroCModel model,
                                            DeployedModel::Program program,
                                            const RecoveryPolicy& policy) {
  NEUROC_CHECK(policy.watchdog_headroom == 0.0 || policy.watchdog_headroom >= 1.0);
  GuardedModel gm;
  gm.model_ = std::make_shared<const NeuroCModel>(std::move(model));
  gm.config_ = program.config;
  gm.policy_ = policy;
  gm.primary_encoding_ = gm.model_->layers().front().encoding->kind();
  Status deployed = gm.Deploy(std::move(program), gm.primary_encoding_);
  if (!deployed.ok()) {
    return deployed;
  }
  return gm;
}

GuardedModel GuardedModel::Fork() const {
  NEUROC_CHECK_MSG(active_encoding_ == primary_encoding_,
                   "cannot fork a guarded model running a fallback encoding");
  GuardedModel gm;
  gm.model_ = model_;
  gm.config_ = config_;
  gm.policy_ = policy_;
  gm.dm_ = std::make_unique<DeployedModel>(dm_->Fork());
  gm.primary_encoding_ = primary_encoding_;
  gm.active_encoding_ = active_encoding_;
  return gm;
}

Status GuardedModel::Deploy(DeployedModel::Program program, EncodingKind kind) {
  StatusOr<DeployedModel> dm = DeployedModel::TryDeploy(std::move(program));
  if (!dm.ok()) {
    return dm.status();
  }
  auto fresh = std::make_unique<DeployedModel>(std::move(*dm));
  if (policy_.watchdog_headroom > 0.0) {
    Status armed = fresh->ArmWatchdog(policy_.watchdog_headroom);
    if (!armed.ok()) {
      return armed;
    }
  }
  dm_ = std::move(fresh);
  active_encoding_ = kind;
  return Status::Ok();
}

// One attempt from the current machine state. Single mode is one supervised TryPredict;
// dual mode runs twice with an SRAM+register restore from the pristine snapshot between
// runs and byte-compares the output vectors.
StatusOr<int> GuardedModel::RunOnce(std::span<const int8_t> input, bool* mismatch,
                                    uint64_t* elapsed) {
  *mismatch = false;
  *elapsed = 0;
  const uint64_t before1 = dm_->machine().cpu().cycles();
  StatusOr<int> first = dm_->TryPredict(input);
  *elapsed = dm_->machine().cpu().cycles() - before1;
  if (!policy_.dual_run || !first.ok()) {
    return first;
  }
  const std::vector<int8_t> out1 = dm_->LastOutput();
  dm_->machine().Restore(dm_->pristine_snapshot(), RestoreScope::kRamAndRegisters);
  const uint64_t before2 = dm_->machine().cpu().cycles();
  StatusOr<int> second = dm_->TryPredict(input);
  *elapsed += dm_->machine().cpu().cycles() - before2;
  if (!second.ok()) {
    return second;
  }
  if (dm_->LastOutput() != out1) {
    *mismatch = true;
  }
  return second;
}

GuardedResult GuardedModel::Predict(std::span<const int8_t> input) {
  GuardedResult gr;
  gr.active_encoding = active_encoding_;
  MetricsRegistry& reg = MetricsRegistry::Global();

  bool mismatch = false;
  uint64_t elapsed = 0;
  StatusOr<int> res = RunOnce(input, &mismatch, &elapsed);
  if (res.ok() && !mismatch) {
    gr.ok = true;
    gr.prediction = *res;
    return gr;
  }

  // First detection: capture provenance before any rung destroys the evidence.
  gr.detection_cycles = elapsed;
  if (!res.ok()) {
    gr.faulted = true;
    gr.first_fault =
        res.status().fault() != nullptr ? *res.status().fault() : FaultReport{};
    if (gr.first_fault.code == ErrorCode::kOk) {
      gr.first_fault.code = res.status().code();
      gr.first_fault.message = res.status().message();
    }
    if (gr.first_fault.code == ErrorCode::kDeadlineExceeded) {
      reg.GetCounter("recovery.deadline_faults").Add(1);
    }
  } else {
    // Both runs completed; the mismatch is known only after the second finishes.
    gr.sdc_detected = true;
    gr.first_fault.code = ErrorCode::kIntegrityFailure;
    gr.first_fault.message = "dual-run output mismatch";
    reg.GetCounter("recovery.dual_run_mismatch").Add(1);
  }
  gr.corrupted_sections = dm_->CorruptedSections();

  // A rung has recovered only when the retry is behaviorally clean AND the flash CRCs
  // pass. The integrity check is what keeps persistent flash corruption from slipping
  // through the cheaper rungs: after a RAM-only restore, a dual-run pair shares the
  // corrupted flash and agrees on the same wrong output — consistent, but not recovered.
  const auto intact = [&] { return dm_->CorruptedSections().empty(); };

  // The ladder, cheapest rung first. Each rung repairs, retries, and returns on success.
  // The RAM-only rung leaves flash as it is, so once the CRCs have blamed flash its retry
  // can never pass intact(): skip it.
  if (policy_.snapshot_retry && gr.corrupted_sections.empty()) {
    reg.GetCounter("recovery.snapshot_retry").Add(1);
    dm_->machine().Restore(dm_->pristine_snapshot(), RestoreScope::kRamAndRegisters);
    ++gr.retries;
    res = RunOnce(input, &mismatch, &elapsed);
    if (res.ok() && !mismatch && intact()) {
      gr.ok = true;
      gr.prediction = *res;
      gr.resolved_by = RecoveryRung::kSnapshotRetry;
      return gr;
    }
  }
  if (policy_.scrub_retry) {
    reg.GetCounter("recovery.scrub_retry").Add(1);
    dm_->Scrub();
    ++gr.retries;
    res = RunOnce(input, &mismatch, &elapsed);
    if (res.ok() && !mismatch && intact()) {
      gr.ok = true;
      gr.prediction = *res;
      gr.resolved_by = RecoveryRung::kScrubRetry;
      return gr;
    }
  }
  if (policy_.redeploy) {
    // TryDeployWithFallback's order, skipping whatever is currently deployed.
    for (const EncodingKind kind : kFallbackEncodings) {
      if (kind == active_encoding_) {
        continue;
      }
      if (!Deploy(DeployedModel::Program(ReencodeModel(*model_, kind), config_), kind)
               .ok()) {
        continue;
      }
      reg.GetCounter("recovery.redeploy").Add(1);
      ++gr.retries;
      gr.active_encoding = active_encoding_;
      res = RunOnce(input, &mismatch, &elapsed);
      if (res.ok() && !mismatch && intact()) {
        gr.ok = true;
        gr.prediction = *res;
        gr.resolved_by = RecoveryRung::kRedeploy;
        return gr;
      }
      break;  // one fallback deployment per ladder walk, like TryDeployWithFallback
    }
  }
  reg.GetCounter("recovery.permanent_failure").Add(1);
  gr.resolved_by = RecoveryRung::kPermanentFailure;
  return gr;
}

std::vector<GuardedResult> GuardedModel::PredictBatch(
    const std::vector<std::vector<int8_t>>& inputs, std::vector<uint64_t>* cycles) {
  std::vector<GuardedResult> results;
  results.reserve(inputs.size());
  if (cycles != nullptr) {
    cycles->clear();
    cycles->reserve(inputs.size());
  }
  // Lockstep first, chunks of two to Cpu::kMaxLanes inputs: a committed chunk is exactly
  // the clean path of Predict on each of its inputs. A chunk that does not commit
  // changed nothing, and the per-input loop below, ladder included, takes over from its
  // first input. Dual-run batches stay sequential.
  size_t next = 0;
  if (!policy_.dual_run) {
    while (inputs.size() - next >= 2) {
      const size_t n = std::min(inputs.size() - next, Cpu::kMaxLanes);
      const std::optional<std::vector<int>> predictions = dm_->TryPredictLockstep(
          std::span<const std::vector<int8_t>>(inputs).subspan(next, n));
      if (!predictions) {
        break;
      }
      for (const int prediction : *predictions) {
        GuardedResult gr;
        gr.ok = true;
        gr.prediction = prediction;
        gr.active_encoding = active_encoding_;
        results.push_back(gr);
        if (cycles != nullptr) {
          cycles->push_back(dm_->report().cycles_per_inference);
        }
      }
      next += n;
    }
  }
  for (const std::vector<int8_t>& input :
       std::span<const std::vector<int8_t>>(inputs).subspan(next)) {
    results.push_back(Predict(input));
    if (cycles != nullptr) {
      cycles->push_back(results.back().ok ? dm_->report().cycles_per_inference : 0);
    }
  }
  return results;
}

}  // namespace neuroc
