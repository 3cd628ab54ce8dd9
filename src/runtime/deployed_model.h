// Deployment of a quantized model onto the simulated MCU: code + constant data placement in
// flash, activation buffers in SRAM, and per-inference execution with cycle accounting.
//
// The reported program-memory figure mirrors the paper's metric (size of the statically
// linked sections holding weights and inference code): assembled kernel bytes + packed model
// image bytes + a fixed bare-metal runtime overhead.

#ifndef NEUROC_SRC_RUNTIME_DEPLOYED_MODEL_H_
#define NEUROC_SRC_RUNTIME_DEPLOYED_MODEL_H_

#include <array>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/core/mlp_model.h"
#include "src/core/model_image.h"
#include "src/core/neuroc_model.h"
#include "src/kernels/kernel_set.h"
#include "src/sim/machine.h"

namespace neuroc {

struct DeploymentReport {
  size_t code_bytes = 0;       // assembled kernels
  size_t image_bytes = 0;      // descriptors + weights/encodings
  size_t program_bytes = 0;    // code + image + kRuntimeOverheadBytes
  size_t ram_bytes = 0;        // activation buffers + scratch
  uint64_t cycles_per_inference = 0;  // from the most recent Predict/MeasureLatency
  double latency_ms = 0.0;
  std::vector<uint64_t> layer_cycles;  // per-layer split of the most recent inference
};

// What the flash-budget guard did: whether the requested model overflowed flash, the
// structured overflow status naming the shortfall, and which encoding was deployed instead.
struct DeployFallbackReport {
  bool fell_back = false;
  EncodingKind requested = EncodingKind::kBlock;   // first layer's encoding as requested
  EncodingKind selected = EncodingKind::kBlock;    // encoding actually deployed
  size_t requested_bytes = 0;                      // estimate for the requested model
  size_t selected_bytes = 0;                       // estimate for the deployed model
  size_t flash_budget = 0;
  Status overflow = Status::Ok();  // kResourceExhausted naming the overflow when fell_back
};

// The encodings a flash-budget fallback or a recovery redeploy tries, in descending
// expected speed.
inline constexpr std::array<EncodingKind, 4> kFallbackEncodings = {
    EncodingKind::kDelta, EncodingKind::kMixed, EncodingKind::kCsc, EncodingKind::kBlock};

class DeployedModel {
 public:
  // Computes the program-memory footprint without requiring the model to fit the device
  // (used to classify the paper's "non-deployable" configurations).
  static size_t EstimateProgramBytes(const NeuroCModel& model);
  static size_t EstimateProgramBytes(const MlpModel& model);

  // Places the model on a simulated machine. Returns kResourceExhausted when the model does
  // not fit flash/RAM instead of aborting, so callers (architecture search, campaigns) can
  // skip infeasible configurations.
  static StatusOr<DeployedModel> TryDeploy(const NeuroCModel& model,
                                           const MachineConfig& config = {});
  static StatusOr<DeployedModel> TryDeploy(const MlpModel& model,
                                           const MachineConfig& config = {});

  // Flash-budget guard: deploys `model` if it fits the platform flash; otherwise reports
  // the overflow as a structured kResourceExhausted Status (in `report->overflow`) and
  // falls back to the best fitting encoding — candidates tried in kFallbackEncodings
  // order, first fit wins. Fails only when no encoding fits. Primarily guards kUnrolled,
  // whose flash cost grows with every nonzero compiled into the kernel text.
  static StatusOr<DeployedModel> TryDeployWithFallback(const NeuroCModel& model,
                                                       const MachineConfig& config = {},
                                                       DeployFallbackReport* report =
                                                           nullptr);

  // Legacy abort-on-failure wrappers around TryDeploy; check EstimateProgramBytes against
  // the platform budget first.
  static DeployedModel Deploy(const NeuroCModel& model, const MachineConfig& config = {});
  static DeployedModel Deploy(const MlpModel& model, const MachineConfig& config = {});

  // Runs one inference on the simulator and returns the arg-max class, or the FaultReport
  // Status when the guest faults mid-inference (corrupted kernel/descriptor/weights, budget
  // overrun). Updates the report's cycle/latency fields on success.
  StatusOr<int> TryPredict(std::span<const int8_t> input);

  // Legacy abort-on-fault wrapper: prints the FaultReport diagnostic and aborts if the
  // inference faults.
  int Predict(std::span<const int8_t> input);

  // Batch entry point: runs `inputs` (1..Cpu::kMaxLanes) as one lockstep batch
  // (Machine::TryRunLockstep), under the watchdog like TryPredict. When the batch
  // commits, returns the predictions and leaves the machine, report() and the runtime.*
  // counters exactly as TryPredict on each input in order would. Otherwise — the lanes
  // diverged, one would fault or hit the watchdog, or an observer is attached — returns
  // nullopt with nothing changed except runtime.lockstep_fallbacks, and the caller runs
  // its per-input loop.
  std::optional<std::vector<int>> TryPredictLockstep(
      std::span<const std::vector<int8_t>> inputs);

  // Re-verifies every integrity section (kernel code + packed image) against the CRC-32
  // digests captured at pack/deploy time. Returns kIntegrityFailure naming the mismatching
  // sections, or OK.
  Status VerifyIntegrity() const;
  // Names of the sections whose device bytes no longer match their pack-time digest.
  std::vector<std::string> CorruptedSections() const;

  // Restores pristine state from the deploy-time machine snapshot: flash (kernel code +
  // packed image), all of SRAM, CPU registers/flags and counters. The machine afterwards
  // is byte-identical to a fresh deployment — registers and counters included, which the
  // old rewrite-the-sections scrub never guaranteed.
  void Scrub();

  // Deploy-time machine snapshot (taken before any guest instruction ran). Exposed so
  // recovery ladders and search-trial forking can restore or clone pristine state
  // directly; RestoreScope::kRamAndRegisters restores from it without the flash rewrite.
  const MachineSnapshot& pristine_snapshot() const { return pristine_; }

  // Watchdog supervision. ArmWatchdog calibrates a per-inference cycle budget from one
  // golden (zero-input, fault-free by assumption) inference: budget = golden cycles ×
  // `headroom`. Subsequent TryPredict calls are supervised — an inference that exceeds
  // the budget stops with a structured kDeadlineExceeded FaultReport carrying the PC it
  // was stopped at, distinguishable from genuine guest faults. The golden run's side
  // effects are undone by a scrub, so arming leaves the machine pristine. Returns the
  // fault status if the calibration run itself faults. headroom must be >= 1.
  Status ArmWatchdog(double headroom = 8.0);
  void DisarmWatchdog() { watchdog_budget_ = 0; }
  // Cycle budget enforced per inference; 0 when disarmed.
  uint64_t watchdog_budget() const { return watchdog_budget_; }

  // Final-layer activations after the last Predict.
  std::vector<int8_t> LastOutput();

  // Runs one inference on a zero input just to measure latency (execution time is
  // input-independent by construction — validated in tests).
  double MeasureLatencyMs();
  // Fault-aware variant for search trials over possibly-degenerate configurations.
  StatusOr<double> TryMeasureLatencyMs();

  const DeploymentReport& report() const { return report_; }
  Machine& machine() { return *machine_; }
  const Machine& machine() const { return *machine_; }
  // Pristine packed image (host copy) — sections carry the pack-time CRC-32 digests.
  const DeviceModelImage& image() const { return image_; }
  // Device address the packed image is loaded at.
  uint32_t image_base() const { return image_base_; }
  size_t input_dim() const { return image_.input_dim; }
  size_t output_dim() const { return image_.output_dim; }
  size_t num_layers() const { return image_.num_layers(); }

  // Assembled kernel section, including its symbol table (kernel entry points and inner
  // loop labels) — the resolution substrate for the cycle profiler (src/obs/).
  const AssembledProgram& kernel_program() const { return kernels_.program(); }

  // First SRAM address above the planned activation buffers/scratch — everything at or
  // above this is stack territory for the simulated kernels.
  uint32_t activation_top_addr() const;

 private:
  DeployedModel() = default;
  static StatusOr<DeployedModel> DeployImage(DeviceModelImage image, KernelSet kernels,
                                             const MachineConfig& config,
                                             uint32_t image_base);

  // Records `inferences` inferences of `cycles` each in report_ and the runtime.*
  // counters.
  void AccountInferences(uint64_t inferences, uint64_t cycles);

  std::unique_ptr<Machine> machine_;  // stable address; KernelSet/image refer to it
  DeviceModelImage image_;
  KernelSet kernels_;
  std::vector<uint32_t> layer_entries_;
  DeploymentReport report_;
  uint32_t image_base_ = 0;
  uint32_t kernel_crc_ = 0;  // digest of the assembled kernel section, taken at deploy
  MachineSnapshot pristine_;  // machine state right after load, before any execution
  uint64_t watchdog_budget_ = 0;  // per-inference cycle budget; 0 = unsupervised
};

}  // namespace neuroc

#endif  // NEUROC_SRC_RUNTIME_DEPLOYED_MODEL_H_
