#include "src/runtime/deployed_model.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "src/common/check.h"
#include "src/common/crc32.h"
#include "src/kernels/kernel_sources.h"
#include "src/obs/registry.h"

namespace neuroc {

namespace {

constexpr uint32_t kScratchFlashBase = 0x08000000;

// Where a Program's image starts: after its kernels and the runtime's reserve,
// word-aligned.
uint32_t ImageBase(const KernelSet& kernels, const MachineConfig& cfg) {
  return (cfg.flash_base + static_cast<uint32_t>(kernels.code_bytes()) +
          static_cast<uint32_t>(kRuntimeOverheadBytes) + 3u) &
         ~3u;
}

size_t EstimateFromParts(size_t code_bytes, size_t image_bytes) {
  return code_bytes + image_bytes + kRuntimeOverheadBytes;
}

// Index of the largest final-layer activation (the first on ties): the predicted class.
int ArgMax(std::span<const int8_t> activations) {
  int best = 0;
  for (size_t i = 1; i < activations.size(); ++i) {
    if (activations[i] > activations[best]) {
      best = static_cast<int>(i);
    }
  }
  return best;
}

// The runtime.* counters every inference updates, resolved once: a GetCounter call is a
// name lookup under the registry mutex, which serving workers would otherwise contend
// on per inference. Resolved at the first successful inference, where the lookups used
// to register them, so registration order is unchanged.
struct InferenceCounters {
  MetricsRegistry::Counter& inferences;
  MetricsRegistry::Counter& cycles;
};

InferenceCounters& GlobalInferenceCounters() {
  static InferenceCounters counters{
      MetricsRegistry::Global().GetCounter("runtime.inferences"),
      MetricsRegistry::Global().GetCounter("runtime.inference_cycles")};
  return counters;
}

}  // namespace

DeployedModel::Program::Program(const NeuroCModel& model, const MachineConfig& cfg)
    : config(cfg),
      kernels(KernelSet::Build(PackNeuroCModel(model, kScratchFlashBase, cfg.ram_base).variants,
                               cfg.flash_base, /*include_conv=*/false, &model)),
      image_base(ImageBase(kernels, cfg)),
      image(PackNeuroCModel(model, image_base, cfg.ram_base)) {}

DeployedModel::Program::Program(const MlpModel& model, const MachineConfig& cfg)
    : config(cfg),
      kernels(KernelSet::Build(PackMlpModel(model, kScratchFlashBase, cfg.ram_base).variants,
                               cfg.flash_base)),
      image_base(ImageBase(kernels, cfg)),
      image(PackMlpModel(model, image_base, cfg.ram_base)) {}

size_t DeployedModel::Program::bytes() const {
  return EstimateFromParts(kernels.code_bytes(), image.flash.size());
}

size_t DeployedModel::EstimateProgramBytes(const NeuroCModel& model) {
  return Program(model, MachineConfig{}).bytes();
}

size_t DeployedModel::EstimateProgramBytes(const MlpModel& model) {
  return Program(model, MachineConfig{}).bytes();
}

StatusOr<DeployedModel> DeployedModel::DeployImage(DeviceModelImage image, KernelSet kernels,
                                                   const MachineConfig& config,
                                                   uint32_t image_base) {
  DeployedModel dm;
  dm.machine_ = std::make_unique<Machine>(config);
  dm.report_.code_bytes = kernels.code_bytes();
  dm.report_.image_bytes = image.flash.size();
  dm.report_.program_bytes = EstimateFromParts(kernels.code_bytes(), image.flash.size());
  dm.report_.ram_bytes = image.ram_bytes_used;
  if (dm.report_.program_bytes > config.flash_size) {
    return Status(ErrorCode::kResourceExhausted,
                  "model does not fit program memory: needs " +
                      std::to_string(dm.report_.program_bytes) + " B (" +
                      std::to_string(kernels.code_bytes()) + " B code + " +
                      std::to_string(image.flash.size()) + " B image + " +
                      std::to_string(kRuntimeOverheadBytes) + " B runtime) of " +
                      std::to_string(config.flash_size) +
                      " B flash; check EstimateProgramBytes before deploying");
  }
  if (image.ram_bytes_used > config.ram_size - 512) {
    return Status(ErrorCode::kResourceExhausted,
                  "activation plan leaves no room for the stack");
  }
  dm.machine_->LoadBytes(kernels.program().base_addr, kernels.program().bytes);
  dm.machine_->LoadBytes(image_base, image.flash);
  for (size_t k = 0; k < image.num_layers(); ++k) {
    dm.layer_entries_.push_back(kernels.EntryFor(image.variants[k]));
  }
  dm.image_base_ = image_base;
  dm.kernel_crc_ = Crc32(std::span<const uint8_t>(kernels.program().bytes));
  dm.image_ = std::move(image);
  dm.kernels_ = std::move(kernels);
  // Pristine machine snapshot: everything is loaded, nothing has executed. Scrub() and
  // the recovery ladder restore from this instead of rewriting sections piecemeal.
  dm.pristine_ = dm.machine_->Snapshot();
  return dm;
}

StatusOr<DeployedModel> DeployedModel::TryDeploy(const NeuroCModel& model,
                                                 const MachineConfig& config) {
  return TryDeploy(Program(model, config));
}

StatusOr<DeployedModel> DeployedModel::TryDeploy(Program program) {
  return DeployImage(std::move(program.image), std::move(program.kernels), program.config,
                     program.image_base);
}

StatusOr<DeployedModel> DeployedModel::TryDeployWithFallback(const NeuroCModel& model,
                                                             const MachineConfig& config,
                                                             DeployFallbackReport* report) {
  DeployFallbackReport local;
  DeployFallbackReport& r = report != nullptr ? *report : local;
  r = DeployFallbackReport{};
  r.requested = model.layers().front().encoding->kind();
  r.selected = r.requested;
  r.flash_budget = config.flash_size;
  // Each candidate is built once: the build that is sized is the one deployed.
  Program requested(model, config);
  r.requested_bytes = requested.bytes();
  r.selected_bytes = r.requested_bytes;
  if (r.requested_bytes <= config.flash_size) {
    return TryDeploy(std::move(requested));
  }
  r.fell_back = true;
  r.overflow = Status(
      ErrorCode::kResourceExhausted,
      std::string("flash budget overflow: ") + EncodingKindName(r.requested) +
          " image needs " + std::to_string(r.requested_bytes) + " B of " +
          std::to_string(config.flash_size) + " B flash; falling back");
  // Candidates in descending expected speed: the guard exists because the caller asked for
  // the fastest scheme, so "best fitting" is the fastest one that still fits.
  for (const EncodingKind kind : kFallbackEncodings) {
    Program candidate(ReencodeModel(model, kind), config);
    if (candidate.bytes() <= config.flash_size) {
      r.selected = kind;
      r.selected_bytes = candidate.bytes();
      return TryDeploy(std::move(candidate));
    }
  }
  return Status(ErrorCode::kResourceExhausted,
                "no encoding fits the flash budget: " +
                    std::to_string(r.requested_bytes) + " B requested (" +
                    EncodingKindName(r.requested) + ") vs " +
                    std::to_string(config.flash_size) + " B flash");
}

StatusOr<DeployedModel> DeployedModel::TryDeploy(const MlpModel& model,
                                                 const MachineConfig& config) {
  return TryDeploy(Program(model, config));
}

namespace {

[[noreturn]] void AbortOnStatus(const Status& status) {
  if (status.fault() != nullptr) {
    std::fprintf(stderr, "%s\n", status.fault()->Describe().c_str());
  } else {
    std::fprintf(stderr, "deploy failed: %s\n", status.ToString().c_str());
  }
  std::abort();
}

}  // namespace

DeployedModel DeployedModel::Deploy(const NeuroCModel& model, const MachineConfig& config) {
  StatusOr<DeployedModel> dm = TryDeploy(model, config);
  if (!dm.ok()) AbortOnStatus(dm.status());
  return std::move(*dm);
}

DeployedModel DeployedModel::Deploy(const MlpModel& model, const MachineConfig& config) {
  StatusOr<DeployedModel> dm = TryDeploy(model, config);
  if (!dm.ok()) AbortOnStatus(dm.status());
  return std::move(*dm);
}

DeployedModel DeployedModel::Fork() const {
  DeployedModel dm;
  dm.machine_ = std::make_unique<Machine>(machine_->config());
  dm.machine_->Restore(pristine_);
  dm.image_ = image_;
  dm.kernels_ = kernels_;
  dm.layer_entries_ = layer_entries_;
  dm.report_ = report_;
  dm.image_base_ = image_base_;
  dm.kernel_crc_ = kernel_crc_;
  dm.pristine_ = pristine_;
  dm.watchdog_budget_ = watchdog_budget_;
  return dm;
}

uint32_t DeployedModel::activation_top_addr() const {
  return machine_->config().ram_base + static_cast<uint32_t>(image_.ram_bytes_used);
}

StatusOr<int> DeployedModel::TryPredict(std::span<const int8_t> input) {
  NEUROC_CHECK(input.size() == image_.input_dim);
  machine_->LoadBytes(image_.input_addr,
                      std::span<const uint8_t>(
                          reinterpret_cast<const uint8_t*>(input.data()), input.size()));
  uint64_t cycles = 0;
  report_.layer_cycles.assign(image_.num_layers(), 0);
  for (size_t k = 0; k < image_.num_layers(); ++k) {
    // Watchdog supervision: each layer call gets whatever remains of the per-inference
    // cycle budget. A budget exhausted exactly on a layer boundary synthesizes the same
    // structured deadline fault the in-layer watchdog raises.
    uint64_t layer_budget = 0;
    if (watchdog_budget_ != 0) {
      if (cycles >= watchdog_budget_) {
        FaultReport report;
        report.code = ErrorCode::kDeadlineExceeded;
        report.message = "watchdog cycle deadline exceeded";
        report.pc = machine_->cpu().pc();
        report.cycles = machine_->cpu().cycles();
        report.instructions = machine_->cpu().instructions();
        return Status::FromFault(std::move(report));
      }
      layer_budget = watchdog_budget_ - cycles;
    }
    StatusOr<uint64_t> layer_cycles = machine_->TryCallFunction(
        layer_entries_[k], {image_.descriptor_addrs[k]}, layer_budget);
    if (!layer_cycles.ok()) {
      return layer_cycles.status();
    }
    report_.layer_cycles[k] = *layer_cycles;
    cycles += report_.layer_cycles[k];
  }
  AccountInferences(1, cycles);
  return ArgMax(LastOutput());
}

void DeployedModel::AccountInferences(uint64_t inferences, uint64_t cycles) {
  report_.cycles_per_inference = cycles;
  report_.latency_ms = machine_->CyclesToMs(cycles);
  InferenceCounters& counters = GlobalInferenceCounters();
  counters.inferences.Add(inferences);
  counters.cycles.Add(inferences * cycles);
}

std::optional<std::vector<int>> DeployedModel::TryPredictLockstep(
    std::span<const std::vector<int8_t>> inputs) {
  std::vector<std::span<const uint8_t>> bytes;
  bytes.reserve(inputs.size());
  for (const std::vector<int8_t>& input : inputs) {
    NEUROC_CHECK(input.size() == image_.input_dim);
    bytes.emplace_back(reinterpret_cast<const uint8_t*>(input.data()), input.size());
  }
  std::vector<LockstepCall> calls;
  calls.reserve(image_.num_layers());
  for (size_t k = 0; k < image_.num_layers(); ++k) {
    calls.push_back({layer_entries_[k], image_.descriptor_addrs[k]});
  }
  LockstepBatch batch;
  batch.input_addr = image_.input_addr;
  batch.inputs = bytes;
  batch.calls = calls;
  batch.cycle_budget = watchdog_budget_;
  batch.output_addr = image_.output_addr;
  batch.output_size = static_cast<uint32_t>(image_.output_dim);
  const std::optional<LockstepResult> result = machine_->TryRunLockstep(batch);
  if (!result) {
    static MetricsRegistry::Counter& fallbacks =
        MetricsRegistry::Global().GetCounter("runtime.lockstep_fallbacks");
    fallbacks.Add(1);
    return std::nullopt;
  }
  report_.layer_cycles = result->call_cycles;
  uint64_t cycles = 0;
  for (const uint64_t c : result->call_cycles) {
    cycles += c;
  }
  AccountInferences(inputs.size(), cycles);
  static MetricsRegistry::Counter& lockstep_inferences =
      MetricsRegistry::Global().GetCounter("runtime.lockstep_inferences");
  lockstep_inferences.Add(inputs.size());
  std::vector<int> predictions;
  predictions.reserve(inputs.size());
  for (const std::vector<uint8_t>& out : result->outputs) {
    predictions.push_back(
        ArgMax({reinterpret_cast<const int8_t*>(out.data()), out.size()}));
  }
  return predictions;
}

int DeployedModel::Predict(std::span<const int8_t> input) {
  StatusOr<int> best = TryPredict(input);
  if (!best.ok()) AbortOnStatus(best.status());
  return *best;
}

Status DeployedModel::VerifyIntegrity() const {
  std::vector<std::string> bad = CorruptedSections();
  if (bad.empty()) {
    return Status::Ok();
  }
  std::string names;
  for (const std::string& name : bad) {
    if (!names.empty()) names += ", ";
    names += name;
  }
  return Status(ErrorCode::kIntegrityFailure,
                "integrity check failed: CRC mismatch in " + names);
}

std::vector<std::string> DeployedModel::CorruptedSections() const {
  std::vector<std::string> bad;
  std::vector<uint8_t> buf;
  auto check = [&](const std::string& name, uint32_t addr, uint32_t size, uint32_t want) {
    buf.resize(size);
    machine_->memory().HostRead(addr, std::span<uint8_t>(buf));
    if (Crc32(std::span<const uint8_t>(buf)) != want) {
      bad.push_back(name);
    }
  };
  check("kernel_code", kernels_.program().base_addr,
        static_cast<uint32_t>(kernels_.program().bytes.size()), kernel_crc_);
  for (const ImageSection& s : image_.sections) {
    check(s.name, image_base_ + s.offset, s.size, s.crc32);
  }
  return bad;
}

void DeployedModel::Scrub() {
  machine_->Restore(pristine_);
}

Status DeployedModel::ArmWatchdog(double headroom) {
  NEUROC_CHECK(headroom >= 1.0);
  DisarmWatchdog();
  // Calibration: one unsupervised golden inference (zero input — latency is
  // input-independent by construction, so it represents every input).
  std::vector<int8_t> zeros(image_.input_dim, 0);
  StatusOr<int> golden = TryPredict(zeros);
  if (!golden.ok()) {
    Scrub();
    return golden.status();
  }
  const uint64_t golden_cycles = report_.cycles_per_inference;
  // The +64 floor keeps the budget strictly above the golden count even at headroom 1.0,
  // so a clean inference can never trip its own deadline.
  watchdog_budget_ = std::max<uint64_t>(
      static_cast<uint64_t>(headroom * static_cast<double>(golden_cycles)),
      golden_cycles + 64);
  Scrub();  // undo the calibration run's side effects (SRAM, counters)
  return Status::Ok();
}

std::vector<int8_t> DeployedModel::LastOutput() {
  std::vector<int8_t> out(image_.output_dim);
  machine_->memory().HostRead(
      image_.output_addr,
      std::span<uint8_t>(reinterpret_cast<uint8_t*>(out.data()), out.size()));
  return out;
}

double DeployedModel::MeasureLatencyMs() {
  std::vector<int8_t> zeros(image_.input_dim, 0);
  Predict(zeros);
  return report_.latency_ms;
}

StatusOr<double> DeployedModel::TryMeasureLatencyMs() {
  std::vector<int8_t> zeros(image_.input_dim, 0);
  StatusOr<int> best = TryPredict(zeros);
  if (!best.ok()) {
    return best.status();
  }
  return report_.latency_ms;
}

}  // namespace neuroc
