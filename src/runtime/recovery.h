// Guarded execution: a recovery-policy ladder around DeployedModel inference.
//
// A GuardedModel wraps one deployed model with the full fault-tolerance stack:
//
//   - a watchdog (per-inference cycle budget, auto-calibrated golden × headroom) that
//     converts runaway execution into structured kDeadlineExceeded faults,
//   - optional redundant execution (RecoveryPolicy::dual_run): the inference runs twice —
//     SRAM and registers restored from the pristine snapshot between runs — and the
//     output vectors are byte-compared. A mismatch means state the second run did not
//     share (an SRAM upset, a mid-flight transient) corrupted the first: silent data
//     corruption becomes a detected fault. Persistent flash corruption affects both runs
//     identically and is NOT caught this way — that is the CRC rung's job.
//   - a recovery ladder walked on any detected fault (guest fault, watchdog deadline, or
//     dual-run mismatch), cheapest rung first. A rung succeeds only when its retry is
//     behaviorally clean AND the per-section flash CRCs pass — without the integrity
//     check, a RAM-only restore under persistent flash corruption yields a dual-run pair
//     that agrees on the same wrong output. Rungs:
//       1. kSnapshotRetry — restore SRAM + registers from the pristine deploy snapshot
//          (no flash rewrite, no decode-cache invalidation) and retry. Fixes transient
//          and SRAM-resident faults.
//       2. kScrubRetry   — attribute flash damage via the per-section CRCs, restore the
//          full pristine snapshot (flash included) and retry. Fixes flash corruption.
//       3. kRedeploy     — re-encode the model with the next encoding of
//          kFallbackEncodings (delta, mixed, csc, block — skipping the active one),
//          deploy fresh and retry. The last resort when a scrubbed machine still faults.
//       4. kPermanentFailure — structured give-up; the result carries the first fault.
//
// Every rung taken is counted in the MetricsRegistry (recovery.*). All decisions are
// deterministic functions of the machine state, so guarded inference composes with the
// campaign's byte-identical-at-any-thread-count requirement.

#ifndef NEUROC_SRC_RUNTIME_RECOVERY_H_
#define NEUROC_SRC_RUNTIME_RECOVERY_H_

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/core/neuroc_model.h"
#include "src/runtime/deployed_model.h"

namespace neuroc {

enum class RecoveryRung : uint8_t {
  kNone = 0,          // no recovery needed (clean inference)
  kSnapshotRetry = 1, // SRAM+register restore from the pristine snapshot fixed it
  kScrubRetry = 2,    // full scrub (flash rewrite from snapshot) fixed it
  kRedeploy = 3,      // redeploy with a fallback encoding fixed it
  kPermanentFailure = 4,  // every enabled rung failed
};
const char* RecoveryRungName(RecoveryRung rung);

struct RecoveryPolicy {
  bool snapshot_retry = true;
  bool scrub_retry = true;
  bool redeploy = true;
  bool dual_run = false;           // redundant execution for SDC detection (~2x cycles)
  double watchdog_headroom = 8.0;  // cycle budget = golden × headroom; 0 disables
};

// Outcome of one guarded inference.
struct GuardedResult {
  int prediction = -1;       // valid when ok
  bool ok = false;           // a (possibly recovered) clean prediction was produced
  bool faulted = false;      // a guest/watchdog fault was observed at some point
  bool sdc_detected = false; // dual-run output mismatch caught silent corruption
  RecoveryRung resolved_by = RecoveryRung::kNone;
  FaultReport first_fault;   // meaningful when faulted
  std::vector<std::string> corrupted_sections;  // CRC attribution at first detection
  // Cycles from the start of the guarded inference to the detection of the first
  // fault/mismatch (0 when nothing was detected). Injection-relative latency is the
  // caller's subtraction: it knows when it injected.
  uint64_t detection_cycles = 0;
  int retries = 0;           // ladder retries performed (0 on the clean path)
  EncodingKind active_encoding = EncodingKind::kCsc;  // encoding that produced the result
};

class GuardedModel {
 public:
  // Takes ownership of `model` (NeuroCModel is move-only; the kRedeploy rung re-encodes
  // it), deploys it and arms the watchdog per `policy`. Fails with the deploy or
  // calibration status; never aborts on guest faults.
  static StatusOr<GuardedModel> Create(NeuroCModel model,
                                       const MachineConfig& config = {},
                                       const RecoveryPolicy& policy = {});

  // One guarded inference: watchdog-supervised (and dual-run, when enabled) execution
  // with the recovery ladder walked on any detected fault. Never aborts.
  GuardedResult Predict(std::span<const int8_t> input);

  // Batched entrypoint for the serving layer: runs `inputs` back-to-back on the one
  // deployed machine (the simulated MCU is single-core — batching amortizes host-side
  // work, it cannot parallelize the guest). Without dual_run, inputs run in lockstep
  // chunks of up to Cpu::kMaxLanes (DeployedModel::TryPredictLockstep), and from the
  // first chunk that does not commit on, each element gets the full guarded treatment
  // independently; `cycles` (when non-null) receives the per-inference simulated cycle
  // count of each successful element (0 on permanent failure). Results, the machine
  // state and the metrics are identical to calling Predict in a loop, apart from
  // runtime.lockstep_fallbacks.
  std::vector<GuardedResult> PredictBatch(
      const std::vector<std::vector<int8_t>>& inputs,
      std::vector<uint64_t>* cycles = nullptr);

  // Re-deploys the original model/encoding if a previous Predict's kRedeploy rung left a
  // fallback encoding active. Campaign trials call this so every trial starts from an
  // identical deployment regardless of what earlier trials in the chunk hit.
  Status ResetToPrimary();

  DeployedModel& deployed() { return *dm_; }
  // Host copy of the (primary-encoding) model, e.g. for golden-prediction comparison.
  const NeuroCModel& model() const { return model_; }
  const RecoveryPolicy& policy() const { return policy_; }
  EncodingKind active_encoding() const { return active_encoding_; }
  EncodingKind primary_encoding() const { return primary_encoding_; }

 private:
  GuardedModel() = default;
  // Runs the (single or dual) inference once from the current machine state. On success
  // returns the prediction; `mismatch` reports a dual-run output divergence. `elapsed`
  // is the simulated cycles the attempt consumed (both runs in dual mode — restores
  // rewind the machine's cycle counter, so callers cannot reconstruct this themselves).
  StatusOr<int> RunOnce(std::span<const int8_t> input, bool* mismatch, uint64_t* elapsed);
  // Deploys `model` (model_ or a re-encoding of it), arms the watchdog per the policy and
  // swaps the deployment in as encoding `kind`. On failure the current deployment stays.
  Status Deploy(const NeuroCModel& model, EncodingKind kind);

  NeuroCModel model_;      // host copy, re-encoded on the kRedeploy rung
  MachineConfig config_;
  RecoveryPolicy policy_;
  std::unique_ptr<DeployedModel> dm_;
  EncodingKind primary_encoding_ = EncodingKind::kCsc;
  EncodingKind active_encoding_ = EncodingKind::kCsc;
};

}  // namespace neuroc

#endif  // NEUROC_SRC_RUNTIME_RECOVERY_H_
