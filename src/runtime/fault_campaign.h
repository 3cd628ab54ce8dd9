// Deterministic memory-fault injection campaigns over guarded Neuro-C deployments.
//
// A campaign builds one synthetic model per weight encoding (same seeded adjacency for
// every encoding, so rates are comparable across all five encodings — CSC, delta, mixed,
// block, and unrolled per-model kernels), builds it once for the simulated MCU, deploys
// that build behind a GuardedModel, and runs seeded fault-injection trials on forks of
// that deployment (GuardedModel::Fork). Each trial scrubs the device back to pristine
// state, injects one fault (bit flip or stuck-at, into kernel code, layer descriptors,
// the packed weight payload, or activation SRAM; before or mid-inference), runs one
// guarded inference and classifies the outcome:
//
//   correct            prediction matches the fault-free golden run (fault masked/benign)
//   sdc                silent data corruption — wrong prediction, nothing detected
//   detected           the guest faulted (undefined instruction, unmapped access, ...)
//   budget_exceeded    runaway execution caught by the per-trial instruction budget
//   deadline_exceeded  runaway execution caught first by the watchdog cycle budget
//   dual_run_caught    redundant execution detected an output mismatch (former SDC)
//
// Detected faults walk the configured recovery ladder (snapshot retry → scrub retry →
// redeploy; see src/runtime/recovery.h) and are counted per resolving rung, plus
// recovered/unrecovered/permanent_failure totals and injection→detection latency. Every
// trial derives its RNG stream from (seed, trial index) with a SplitMix64 finalizer and
// owns a pre-sized result slot, so campaign output — including the JSON report — is
// byte-identical for any NEUROC_NUM_THREADS.

#ifndef NEUROC_SRC_RUNTIME_FAULT_CAMPAIGN_H_
#define NEUROC_SRC_RUNTIME_FAULT_CAMPAIGN_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/core/encoding.h"
#include "src/runtime/recovery.h"
#include "src/sim/fault_injector.h"

namespace neuroc {

enum class FaultTrigger : uint8_t {
  kPreInference = 0,  // corrupt the image/SRAM between inferences, then run
  kMidInference = 1,  // corrupt after a seeded number of retired instructions
};
const char* FaultTriggerName(FaultTrigger trigger);
bool ParseFaultTrigger(std::string_view text, FaultTrigger* out);

// Where a trial's fault lands.
enum class CampaignRegion : uint8_t {
  kKernelCode = 0,   // assembled Thumb kernels
  kDescriptors = 1,  // 80-byte per-layer descriptors
  kPayload = 2,      // packed encodings / scales / biases (the weight image)
  kSram = 3,         // activation buffers + scratch
};
inline constexpr CampaignRegion kAllCampaignRegions[] = {
    CampaignRegion::kKernelCode, CampaignRegion::kDescriptors, CampaignRegion::kPayload,
    CampaignRegion::kSram};
const char* CampaignRegionName(CampaignRegion region);
bool ParseCampaignRegion(std::string_view text, CampaignRegion* out);

struct FaultCampaignConfig {
  int trials_per_encoding = 256;
  uint64_t seed = 1;
  FaultModel fault_model = FaultModel::kSingleBitFlip;
  int bits = 2;  // kMultiBitFlip only
  FaultTrigger trigger = FaultTrigger::kPreInference;
  std::vector<CampaignRegion> regions{kAllCampaignRegions,
                                      kAllCampaignRegions + 4};
  std::vector<EncodingKind> encodings{std::begin(kAllEncodingKinds),
                                      std::end(kAllEncodingKinds)};
  // Recovery ladder + watchdog + dual-run configuration for every trial's GuardedModel.
  // Disabling every rung reproduces the raw (unrecovered) outcome distribution.
  RecoveryPolicy policy;
  // Per-trial instruction budget = golden instructions × margin (runaway trials classify
  // as budget_exceeded instead of burning the 400M-instruction default guard). The
  // watchdog cycle budget (policy.watchdog_headroom) usually fires first.
  double budget_margin = 8.0;

  // Synthetic campaign model shape (in → hidden → out, ternary density `density`).
  size_t in_dim = 64;
  size_t hidden_dim = 32;
  size_t out_dim = 10;
  double density = 0.2;
};

// Aggregated outcome counters for one (encoding, region) cell.
struct RegionStats {
  uint64_t trials = 0;
  uint64_t correct = 0;
  uint64_t sdc = 0;
  uint64_t detected = 0;
  uint64_t budget_exceeded = 0;
  uint64_t deadline_exceeded = 0;  // watchdog cycle budget fired (kDeadlineExceeded)
  uint64_t dual_run_caught = 0;    // redundant execution flagged an output mismatch
  uint64_t masked = 0;       // injection left the byte unchanged (stuck-at at value)
  uint64_t recovered = 0;    // detected trials the ladder fixed (correct prediction)
  uint64_t unrecovered = 0;  // detected trials no enabled rung fixed
  uint64_t crc_flagged = 0;  // detected faults attributed to a section by CRC
  // Which ladder rung resolved each recovered trial.
  uint64_t recovered_snapshot = 0;
  uint64_t recovered_scrub = 0;
  uint64_t recovered_redeploy = 0;
  uint64_t permanent_failure = 0;  // ladder exhausted without a clean prediction
  // Injection→detection latency, summed over trials where both endpoints are known
  // (pre-inference: cycles from inference start; mid-inference: cycles from the strike).
  uint64_t detect_latency_cycles_sum = 0;
  uint64_t detect_count = 0;

  void Add(const RegionStats& o);
  double SdcRate() const {
    return trials == 0 ? 0.0 : static_cast<double>(sdc) / static_cast<double>(trials);
  }
  double MeanDetectLatencyCycles() const {
    return detect_count == 0 ? 0.0
                             : static_cast<double>(detect_latency_cycles_sum) /
                                   static_cast<double>(detect_count);
  }
};

struct EncodingCampaignResult {
  EncodingKind encoding = EncodingKind::kCsc;
  uint64_t golden_instructions = 0;  // fault-free instructions per inference
  uint64_t golden_cycles = 0;
  size_t program_bytes = 0;
  std::vector<RegionStats> regions;  // parallel to FaultCampaignConfig::regions
  RegionStats totals;
};

struct FaultCampaignResult {
  FaultCampaignConfig config;
  std::vector<EncodingCampaignResult> encodings;
  RegionStats totals;
};

// Runs the campaign. Deterministic: byte-identical results for a given (config) at any
// thread count. Never aborts on injected faults — every outcome is a classified value.
FaultCampaignResult RunFaultCampaign(const FaultCampaignConfig& config);

// Deterministic JSON report (per-encoding × per-region outcome counts and SDC rates).
std::string FaultCampaignJson(const FaultCampaignResult& result);

}  // namespace neuroc

#endif  // NEUROC_SRC_RUNTIME_FAULT_CAMPAIGN_H_
