// `neuroc` — command-line front end for the library. Subcommands:
//
//   neuroc train   --dataset <name> [--hidden 128,64] [--density 0.12] [--epochs 8]
//                  [--tnn] [--seed N] --out model.ncm
//   neuroc eval    --model model.ncm --dataset <name> [--seed N]
//   neuroc inspect --model model.ncm
//   neuroc bench   --model model.ncm [--platform STM32F072RB]
//   neuroc profile --model model.ncm [--platform STM32F072RB] [--json out.json]
//                  [--trace out.trace] [--asm]
//   neuroc deploy  --model model.ncm --format c|hex --out <path> [--prefix name]
//   neuroc faultcampaign [--trials N] [--seed N] [--fault bitflip|multibit|stuck0|stuck1]
//                  [--bits N] [--trigger pre|mid] [--regions a,b,..] [--encodings a,b,..]
//                  [--no-retry] [--no-snapshot-retry] [--no-redeploy] [--no-watchdog]
//                  [--dual-run] [--json out.json] [--smoke]
//   neuroc fuzz    --oracle kernel|isa|serde|frame [--seed N] [--cases N] [--json out.json]
//                  [--corpus-dir dir] [--no-minimize] | --replay case.fuzzcase
//                  | --case-seed 0x... | --smoke
//   neuroc serve   --models <dir> [--port N] [--max-batch N] [--cache N] [--queue N]
//   neuroc report  --in runs.jsonl [--json out.json]
//
// Every subcommand also accepts --metrics-out <runs.jsonl>: on exit it appends one
// metrics-registry run record (counters/gauges/histograms from this invocation, e.g.
// train's per-epoch train.* metrics) that `neuroc report` aggregates. Options may be
// spelled `--key value` or `--key=value`.
//
// Datasets: digits, mnist, fashion, cifar5, events (procedural; see src/data/synth.h).

#include <algorithm>
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "src/core/adjacency_stats.h"
#include "src/core/model_serde.h"
#include "src/fuzz/fuzz.h"
#include "src/data/synth.h"
#include "src/obs/json_reader.h"
#include "src/obs/json_writer.h"
#include "src/obs/registry.h"
#include "src/obs/trace.h"
#include "src/runtime/c_emitter.h"
#include "src/runtime/deployed_model.h"
#include "src/runtime/fault_campaign.h"
#include "src/runtime/firmware_image.h"
#include "src/runtime/platform.h"
#include "src/runtime/profile.h"
#include "src/serve/server.h"
#include "src/serve/service.h"
#include "src/train/metrics.h"
#include "src/train/trainer.h"

namespace neuroc {
namespace {

struct Args {
  std::string command;
  std::map<std::string, std::string> options;

  const char* Get(const std::string& key, const char* fallback = nullptr) const {
    auto it = options.find(key);
    return it == options.end() ? fallback : it->second.c_str();
  }
  bool Has(const std::string& key) const { return options.count(key) > 0; }
};

int Usage() {
  std::fprintf(stderr,
               "usage: neuroc "
               "<train|eval|inspect|bench|profile|deploy|faultcampaign|fuzz|serve|report>"
               " [options]\n"
               "  train   --dataset <digits|mnist|fashion|cifar5|events> --out model.ncm\n"
               "          [--hidden 128,64] [--density 0.12] [--epochs 8] [--tnn] [--seed N]\n"
               "  eval    --model model.ncm --dataset <name> [--seed N]\n"
               "  inspect --model model.ncm\n"
               "  bench   --model model.ncm [--platform STM32F072RB]\n"
               "  profile --model model.ncm [--platform STM32F072RB] [--json out.json]\n"
               "          [--trace out.trace] [--asm]\n"
               "          [--encoding <csc|delta|mixed|block|unrolled>]\n"
               "  deploy  --model model.ncm --format <c|hex> --out <path> [--prefix name]\n"
               "          [--encoding <csc|delta|mixed|block|unrolled>]\n"
               "  faultcampaign [--trials N] [--seed N]\n"
               "          [--fault <bitflip|multibit|stuck0|stuck1>] [--bits N]\n"
               "          [--trigger <pre|mid>]\n"
               "          [--regions <kernel_code,descriptors,payload,sram>]\n"
               "          [--encodings <csc,delta,mixed,block,unrolled>] [--no-retry]\n"
               "          [--no-snapshot-retry] [--no-redeploy] [--no-watchdog]\n"
               "          [--dual-run] [--json out.json] [--smoke]\n"
               "  fuzz    --oracle <kernel|isa|serde|frame> [--seed N] [--cases N]\n"
               "          [--json out.json] [--corpus-dir dir] [--no-minimize]\n"
               "          | --replay case.fuzzcase | --case-seed 0xSEED | --smoke\n"
               "  serve   --models <dir of .ncm images> [--port N (default 7433)]\n"
               "          [--max-batch N] [--cache N] [--queue N]\n"
               "  report  --in runs.jsonl [--json out.json]\n"
               "every subcommand accepts --metrics-out runs.jsonl (append one run record)\n");
  return 2;
}

Dataset MakeDataset(const std::string& name, size_t count, uint64_t seed) {
  if (name == "digits") {
    return MakeDigits8x8(count, seed);
  }
  if (name == "mnist") {
    return MakeMnistLike(count, seed);
  }
  if (name == "fashion") {
    return MakeFashionLike(count, seed);
  }
  if (name == "cifar5") {
    return MakeCifar5Like(count, seed);
  }
  if (name == "events") {
    return MakeEventDetection(count, seed);
  }
  std::fprintf(stderr, "unknown dataset: %s\n", name.c_str());
  std::exit(2);
}

// Splits "a,b,c" and parses every element with `parse`; returns false (after printing the
// offending token) on the first failure.
template <typename T, typename ParseFn>
bool ParseCsvList(const char* csv, ParseFn parse, std::vector<T>* out) {
  out->clear();
  const std::string s = csv;
  size_t pos = 0;
  while (pos <= s.size()) {
    size_t end = s.find(',', pos);
    if (end == std::string::npos) {
      end = s.size();
    }
    const std::string token = s.substr(pos, end - pos);
    T value;
    if (!parse(token, &value)) {
      std::fprintf(stderr, "cannot parse: %s\n", token.c_str());
      return false;
    }
    out->push_back(value);
    pos = end + 1;
  }
  return !out->empty();
}

// True when no two entries of `values` are equal; otherwise prints which option repeats
// one. A campaign list that names an entry twice would run and report it twice.
template <typename T>
bool AllDistinct(const char* option, std::vector<T> values) {
  std::sort(values.begin(), values.end());
  if (std::adjacent_find(values.begin(), values.end()) != values.end()) {
    std::fprintf(stderr, "--%s names an entry twice\n", option);
    return false;
  }
  return true;
}

// Parses `text` as a whole decimal number in [min, max]. Signs, blanks, trailing
// characters and out-of-range values fail.
bool ParseBounded(const char* text, uint64_t min, uint64_t max, uint64_t* out) {
  if (*text < '0' || *text > '9') {
    return false;
  }
  char* end = nullptr;
  errno = 0;
  const unsigned long long value = std::strtoull(text, &end, 10);
  if (errno != 0 || *end != '\0' || value < min || value > max) {
    return false;
  }
  *out = value;
  return true;
}

// --seed, shared by every verb that draws random numbers: any whole decimal uint64.
bool ParseSeed(const Args& args, uint64_t* seed) {
  return ParseBounded(args.Get("seed", "1"), 0, std::numeric_limits<uint64_t>::max(), seed);
}

// A count option that must be at least one (epochs, trials, cases) and fit an int.
bool ParseCount(const Args& args, const char* key, const char* fallback, int* out) {
  uint64_t value = 0;
  if (!ParseBounded(args.Get(key, fallback), 1, std::numeric_limits<int>::max(), &value)) {
    return false;
  }
  *out = static_cast<int>(value);
  return true;
}

// --density: a number in (0, 1], the fraction of nonzero ternary weights.
bool ParseDensity(const char* text, float* out) {
  char* end = nullptr;
  errno = 0;
  const float value = static_cast<float>(std::strtod(text, &end));
  if (end == text || errno != 0 || *end != '\0' || !(value > 0.0f && value <= 1.0f)) {
    return false;
  }
  *out = value;
  return true;
}

// --hidden: comma-separated layer widths, each a whole number in [1, 65535] (the sparse
// encodings store indices and counts in at most 16 bits).
bool ParseHidden(const char* csv, std::vector<size_t>* widths) {
  return ParseCsvList<size_t>(
      csv,
      [](const std::string& t, size_t* w) {
        uint64_t value = 0;
        if (!ParseBounded(t.c_str(), 1, 65535, &value)) {
          return false;
        }
        *w = static_cast<size_t>(value);
        return true;
      },
      widths);
}

int CmdTrain(const Args& args) {
  uint64_t seed = 0;
  NeuroCSpec spec;
  TrainConfig cfg;
  if (!args.Has("dataset") || !args.Has("out") || !ParseSeed(args, &seed) ||
      !ParseHidden(args.Get("hidden", "128"), &spec.hidden) ||
      !ParseDensity(args.Get("density", "0.12"), &spec.layer.ternary.target_density) ||
      !ParseCount(args, "epochs", "8", &cfg.epochs)) {
    return Usage();
  }
  Dataset all = MakeDataset(args.Get("dataset"), 4000, seed);
  Rng split_rng(seed + 1);
  auto [train, test] = all.Split(0.2, split_rng);

  spec.layer.use_per_neuron_scale = !args.Has("tnn");

  cfg.batch_size = 64;
  cfg.learning_rate = 2e-3f;
  cfg.lr_decay = 0.9f;
  cfg.verbose = true;
  if (args.Has("trace")) {
    TraceRecorder::Global().set_enabled(true);
    TraceRecorder::Global().Start();
  }

  Rng rng(seed + 2);
  Network net =
      BuildNeuroC(train.input_dim(), static_cast<size_t>(train.num_classes), spec, rng);
  std::printf("training %s on %s (%zu train / %zu test)\n", net.Summary().c_str(),
              all.name.c_str(), train.num_examples(), test.num_examples());
  const TrainResult result = Train(net, train, test, cfg);
  if (args.Has("trace") &&
      TraceRecorder::Global().WriteChromeTrace(args.Get("trace"))) {
    std::printf("wrote %s\n", args.Get("trace"));
  }
  NeuroCModel model = NeuroCModel::FromTrained(net, train);
  const float q_acc = model.EvaluateAccuracy(QuantizeInputs(test));
  std::printf("float accuracy %.4f | int8 accuracy %.4f\n", result.final_test_accuracy,
              q_acc);
  if (!SaveModel(model, args.Get("out"))) {
    std::fprintf(stderr, "failed to write %s\n", args.Get("out"));
    return 1;
  }
  std::printf("saved %s (%zu layers, %zu weight bytes)\n", args.Get("out"),
              model.layers().size(), model.WeightBytes());
  return 0;
}

StatusOr<NeuroCModel> LoadOrComplain(const Args& args) {
  if (!args.Has("model")) {
    Usage();
    return Status(ErrorCode::kInvalidArgument, "missing --model");
  }
  StatusOr<NeuroCModel> model = LoadNeuroCModel(args.Get("model"));
  if (!model.ok()) {
    std::fprintf(stderr, "cannot load model %s: %s\n", args.Get("model"),
                 model.status().ToString().c_str());
  }
  return model;
}

int CmdEval(const Args& args) {
  uint64_t seed = 0;
  if (!ParseSeed(args, &seed)) {
    return Usage();
  }
  auto model = LoadOrComplain(args);
  if (!model || !args.Has("dataset")) {
    return model ? Usage() : 1;
  }
  Dataset all = MakeDataset(args.Get("dataset"), 4000, seed);
  Rng split_rng(seed + 1);
  auto [train, test] = all.Split(0.2, split_rng);
  (void)train;
  if (test.input_dim() != model->in_dim()) {
    std::fprintf(stderr, "model expects %zu inputs, dataset has %zu\n", model->in_dim(),
                 test.input_dim());
    return 1;
  }
  const QuantizedDataset q = QuantizeInputs(test);
  ConfusionMatrix cm(static_cast<int>(model->out_dim()));
  for (size_t i = 0; i < q.num_examples(); ++i) {
    cm.Add(q.labels[i], model->Predict({q.example(i), q.input_dim}));
  }
  std::printf("%s", cm.Format().c_str());
  return 0;
}

int CmdInspect(const Args& args) {
  auto model = LoadOrComplain(args);
  if (!model) {
    return 1;
  }
  std::printf("model: %s\n", model->Summary().c_str());
  std::printf("weight bytes: %zu; estimated program memory: %zu B\n", model->WeightBytes(),
              DeployedModel::EstimateProgramBytes(*model));
  for (size_t k = 0; k < model->layers().size(); ++k) {
    const QuantNeuroCLayer& l = model->layers()[k];
    std::printf("\nlayer %zu (%s, shift %d, in_frac %d -> out_frac %d):\n%s", k,
                EncodingKindName(l.encoding->kind()), l.requant_shift, l.in_frac, l.out_frac,
                FormatAdjacencyStats(AnalyzeAdjacency(l.encoding->Decode())).c_str());
  }
  return 0;
}

int CmdBench(const Args& args) {
  auto model = LoadOrComplain(args);
  if (!model) {
    return 1;
  }
  const PlatformSpec& platform = PlatformByName(args.Get("platform", "STM32F072RB"));
  const size_t bytes = DeployedModel::EstimateProgramBytes(*model);
  std::printf("platform: %s (%s @ %.0f MHz, %u KB flash)\n", platform.name.c_str(),
              platform.core.c_str(), platform.clock_hz / 1e6, platform.flash_bytes / 1024);
  if (bytes > platform.flash_bytes) {
    std::printf("NOT DEPLOYABLE: needs %zu B of %u B flash\n", bytes, platform.flash_bytes);
    return 1;
  }
  DeployedModel deployed = DeployedModel::Deploy(*model, platform.ToMachineConfig());
  const ExecutionProfile profile = ProfileInference(deployed);
  std::printf("latency: %.3f ms (%llu cycles)\n", deployed.report().latency_ms,
              static_cast<unsigned long long>(deployed.report().cycles_per_inference));
  std::printf("program memory: %zu B | RAM buffers: %zu B\n",
              deployed.report().program_bytes, deployed.report().ram_bytes);
  std::printf("%s", FormatProfile(profile).c_str());
  return 0;
}

bool ParseEncodingKind(const std::string& text, EncodingKind* out);

// Applies --encoding=<kind>: re-encodes every layer of the loaded model in place, so any
// model file can be profiled or exported under any of the five encodings.
bool MaybeReencode(const Args& args, NeuroCModel* model) {
  if (!args.Has("encoding")) {
    return true;
  }
  EncodingKind kind;
  if (!ParseEncodingKind(args.Get("encoding"), &kind)) {
    std::fprintf(stderr, "unknown encoding: %s (csc|delta|mixed|block|unrolled)\n",
                 args.Get("encoding"));
    return false;
  }
  *model = ReencodeModel(*model, kind);
  return true;
}

int CmdProfile(const Args& args) {
  auto model = LoadOrComplain(args);
  if (!model) {
    return 1;
  }
  if (!MaybeReencode(args, &*model)) {
    return 2;
  }
  const PlatformSpec& platform = PlatformByName(args.Get("platform", "STM32F072RB"));
  std::printf("platform: %s (%s @ %.0f MHz, %u KB flash)\n", platform.name.c_str(),
              platform.core.c_str(), platform.clock_hz / 1e6, platform.flash_bytes / 1024);
  // Oversized models fall back to the fastest encoding that fits (unrolled kernels are
  // the usual reason: they trade flash for cycles).
  DeployFallbackReport fallback;
  StatusOr<DeployedModel> deployed_or =
      DeployedModel::TryDeployWithFallback(*model, platform.ToMachineConfig(), &fallback);
  if (!deployed_or.ok()) {
    std::printf("NOT DEPLOYABLE: needs %zu B of %u B flash (%s)\n", fallback.requested_bytes,
                platform.flash_bytes, deployed_or.status().ToString().c_str());
    return 1;
  }
  if (fallback.fell_back) {
    std::printf("flash fallback: %s (%zu B) -> %s (%zu B)\n",
                EncodingKindName(fallback.requested), fallback.requested_bytes,
                EncodingKindName(fallback.selected), fallback.selected_bytes);
  }
  DeployedModel deployed = std::move(*deployed_or);
  const InferenceProfile profile = ProfileInferenceDetailed(deployed);
  std::printf("latency: %.3f ms (%llu cycles)\n", deployed.report().latency_ms,
              static_cast<unsigned long long>(deployed.report().cycles_per_inference));
  std::printf("%s", FormatInferenceProfile(profile, deployed, args.Has("asm")).c_str());

  if (args.Has("json")) {
    JsonWriter w;
    WriteInferenceProfileJson(w, profile, deployed);
    if (WriteStringToFile(args.Get("json"), w.str() + "\n")) {
      std::printf("wrote %s\n", args.Get("json"));
    }
  }
  if (args.Has("trace")) {
    // Cycle-exact per-layer timeline on track "sim": simulated cycles scaled to
    // microseconds at the platform clock, loadable in Perfetto / chrome://tracing.
    TraceRecorder rec;
    rec.set_enabled(true);
    rec.Start();
    const double us_per_cycle = 1e6 / platform.clock_hz;
    double ts_us = 0.0;
    double total_us = 0.0;
    for (const uint64_t c : profile.layer_cycles) {
      total_us += static_cast<double>(c) * us_per_cycle;
    }
    rec.AddCompleteEvent("inference", "sim", 0.0, total_us);
    for (size_t k = 0; k < profile.layer_cycles.size(); ++k) {
      const double dur_us = static_cast<double>(profile.layer_cycles[k]) * us_per_cycle;
      char name[32];
      std::snprintf(name, sizeof(name), "layer_%zu", k);
      rec.AddCompleteEvent(name, "sim", ts_us, dur_us);
      ts_us += dur_us;
    }
    if (rec.WriteChromeTrace(args.Get("trace"))) {
      std::printf("wrote %s\n", args.Get("trace"));
    }
  }
  return 0;
}

int CmdDeploy(const Args& args) {
  auto model = LoadOrComplain(args);
  if (!model || !args.Has("format") || !args.Has("out")) {
    return model ? Usage() : 1;
  }
  if (!MaybeReencode(args, &*model)) {
    return 2;
  }
  const std::string format = args.Get("format");
  if (format == "c") {
    const std::string prefix = args.Get("prefix", "model");
    const CSources sources = EmitCSources(*model, prefix);
    std::filesystem::create_directories(args.Get("out"));
    const std::string h = std::string(args.Get("out")) + "/" + prefix + ".h";
    const std::string c = std::string(args.Get("out")) + "/" + prefix + ".c";
    std::ofstream(h) << sources.header;
    std::ofstream(c) << sources.source;
    std::printf("wrote %s and %s\n", h.c_str(), c.c_str());
    return 0;
  }
  if (format == "hex") {
    const std::string hex = FirmwareHex(DeployedModel::Program(*model, MachineConfig{}));
    std::ofstream(args.Get("out")) << hex;
    std::printf("wrote %s (%zu bytes of Intel HEX)\n", args.Get("out"), hex.size());
    return 0;
  }
  std::fprintf(stderr, "unknown format: %s\n", format.c_str());
  return 2;
}

bool ParseEncodingKind(const std::string& text, EncodingKind* out) {
  for (EncodingKind kind : kAllEncodingKinds) {
    if (text == EncodingKindName(kind)) {
      *out = kind;
      return true;
    }
  }
  return false;
}

int CmdFaultCampaign(const Args& args) {
  FaultCampaignConfig cfg;
  uint64_t bits = 0;
  // A multi-bit upset flips 1..8 bits of one byte.
  if (!ParseSeed(args, &cfg.seed) ||
      !ParseCount(args, "trials", "256", &cfg.trials_per_encoding) ||
      !ParseBounded(args.Get("bits", "2"), 1, 8, &bits)) {
    return Usage();
  }
  cfg.bits = static_cast<int>(bits);
  if (args.Has("no-retry")) {  // raw outcome distribution: no ladder at all
    cfg.policy.snapshot_retry = false;
    cfg.policy.scrub_retry = false;
    cfg.policy.redeploy = false;
  }
  if (args.Has("no-snapshot-retry")) cfg.policy.snapshot_retry = false;
  if (args.Has("no-redeploy")) cfg.policy.redeploy = false;
  if (args.Has("no-watchdog")) cfg.policy.watchdog_headroom = 0.0;
  if (args.Has("dual-run")) cfg.policy.dual_run = true;
  if (args.Has("smoke")) {
    cfg.trials_per_encoding = 24;  // tier-1 CI mode: small but covers every cell
    cfg.policy.dual_run = true;    // exercise the full ladder including SDC detection
  }
  if (!ParseFaultModel(args.Get("fault", "bitflip"), &cfg.fault_model) ||
      !ParseFaultTrigger(args.Get("trigger", "pre"), &cfg.trigger)) {
    return Usage();
  }
  if (args.Has("regions") &&
      (!ParseCsvList<CampaignRegion>(
           args.Get("regions"),
           [](const std::string& t, CampaignRegion* r) { return ParseCampaignRegion(t, r); },
           &cfg.regions) ||
       !AllDistinct("regions", cfg.regions))) {
    return Usage();
  }
  if (args.Has("encodings") &&
      (!ParseCsvList<EncodingKind>(args.Get("encodings"), ParseEncodingKind,
                                   &cfg.encodings) ||
       !AllDistinct("encodings", cfg.encodings))) {
    return Usage();
  }

  const FaultCampaignResult result = RunFaultCampaign(cfg);
  std::printf("fault campaign: %d trials x %zu encodings, %s faults, trigger=%s\n",
              cfg.trials_per_encoding, cfg.encodings.size(),
              FaultModelName(cfg.fault_model), FaultTriggerName(cfg.trigger));
  for (const EncodingCampaignResult& enc : result.encodings) {
    const RegionStats& t = enc.totals;
    std::printf(
        "  %-8s correct=%llu sdc=%llu detected=%llu budget=%llu deadline=%llu "
        "dualrun=%llu recovered=%llu/%llu (snap=%llu scrub=%llu redeploy=%llu) "
        "sdc_rate=%.4f latency=%.0f\n",
        EncodingKindName(enc.encoding), static_cast<unsigned long long>(t.correct),
        static_cast<unsigned long long>(t.sdc), static_cast<unsigned long long>(t.detected),
        static_cast<unsigned long long>(t.budget_exceeded),
        static_cast<unsigned long long>(t.deadline_exceeded),
        static_cast<unsigned long long>(t.dual_run_caught),
        static_cast<unsigned long long>(t.recovered),
        static_cast<unsigned long long>(t.recovered + t.unrecovered),
        static_cast<unsigned long long>(t.recovered_snapshot),
        static_cast<unsigned long long>(t.recovered_scrub),
        static_cast<unsigned long long>(t.recovered_redeploy), t.SdcRate(),
        t.MeanDetectLatencyCycles());
  }
  const RegionStats& tot = result.totals;
  std::printf(
      "totals: %llu trials, %llu sdc (%.4f), %llu detected, %llu dual-run caught, "
      "%llu recovered, %llu permanent\n",
      static_cast<unsigned long long>(tot.trials),
      static_cast<unsigned long long>(tot.sdc), tot.SdcRate(),
      static_cast<unsigned long long>(tot.detected + tot.budget_exceeded +
                                      tot.deadline_exceeded),
      static_cast<unsigned long long>(tot.dual_run_caught),
      static_cast<unsigned long long>(tot.recovered),
      static_cast<unsigned long long>(tot.permanent_failure));
  if (args.Has("json")) {
    if (WriteStringToFile(args.Get("json"), FaultCampaignJson(result) + "\n")) {
      std::printf("wrote %s\n", args.Get("json"));
    } else {
      return 1;
    }
  }
  // With any ladder rung enabled, the deterministic simulator must recover every detected
  // fault — an unrecovered one means pristine-state restoration is broken.
  const bool ladder_enabled =
      cfg.policy.snapshot_retry || cfg.policy.scrub_retry || cfg.policy.redeploy;
  if (ladder_enabled && tot.unrecovered != 0) {
    std::fprintf(stderr, "FAIL: %llu detected faults did not recover via the ladder\n",
                 static_cast<unsigned long long>(tot.unrecovered));
    return 1;
  }
  return 0;
}

// Prints one campaign's outcome; returns the number of failures.
uint64_t ReportFuzzCampaign(const FuzzCampaignResult& result) {
  const FuzzConfig& cfg = result.config;
  std::printf("fuzz %s: seed=%llu cases=%d passed=%llu skipped=%llu failed=%llu\n",
              FuzzOracleName(cfg.oracle), static_cast<unsigned long long>(cfg.seed),
              cfg.cases, static_cast<unsigned long long>(result.passed),
              static_cast<unsigned long long>(result.skipped),
              static_cast<unsigned long long>(result.failed));
  for (const FuzzFailure& f : result.failures) {
    std::fprintf(stderr, "FAIL case %llu: %s\n",
                 static_cast<unsigned long long>(f.index), f.detail.c_str());
    std::fprintf(stderr, "  minimized (%d shrink steps): %s\n",
                 f.minimize_stats.reductions, f.minimized_detail.c_str());
    std::fprintf(stderr, "%s", f.minimized.ToText().c_str());
    std::fprintf(stderr, "  repro: %s\n", FuzzReproCommand(f).c_str());
  }
  return result.failed;
}

int CmdFuzz(const Args& args) {
  // Single-case replay from a corpus file: the one-command repro printed on failure.
  if (args.Has("replay")) {
    const StatusOr<FuzzCase> c = LoadFuzzCase(args.Get("replay"));
    if (!c.ok()) {
      std::fprintf(stderr, "cannot replay %s: %s\n", args.Get("replay"),
                   c.status().ToString().c_str());
      return 2;
    }
    const CaseResult r = RunFuzzCase(*c);
    std::printf("%s: %s%s%s\n", args.Get("replay"), FuzzVerdictName(r.verdict),
                r.detail.empty() ? "" : ": ", r.detail.c_str());
    return r.verdict == FuzzVerdict::kFail ? 1 : 0;
  }

  FuzzConfig cfg;
  if (!ParseSeed(args, &cfg.seed) || !ParseCount(args, "cases", "256", &cfg.cases)) {
    return Usage();
  }
  cfg.minimize = !args.Has("no-minimize");
  cfg.corpus_dir = args.Get("corpus-dir", "");
  if (!cfg.corpus_dir.empty()) {
    std::filesystem::create_directories(cfg.corpus_dir);
  }

  // Single-case mode: regenerate one campaign case from its SplitMix64 seed.
  if (args.Has("case-seed")) {
    if (!args.Has("oracle") || !ParseFuzzOracle(args.Get("oracle"), &cfg.oracle)) {
      return Usage();
    }
    const uint64_t case_seed = std::strtoull(args.Get("case-seed"), nullptr, 0);
    const FuzzCase c = GenerateFuzzCase(cfg.oracle, case_seed);
    const CaseResult r = RunFuzzCase(c);
    std::printf("%s", c.ToText().c_str());
    std::printf("verdict %s%s%s\n", FuzzVerdictName(r.verdict),
                r.detail.empty() ? "" : ": ", r.detail.c_str());
    if (r.verdict == FuzzVerdict::kFail && cfg.minimize) {
      const FuzzCase min = MinimizeFuzzCase(c, [](const FuzzCase& cand) {
        return RunFuzzCase(cand).verdict == FuzzVerdict::kFail;
      });
      std::printf("minimized:\n%s", min.ToText().c_str());
    }
    return r.verdict == FuzzVerdict::kFail ? 1 : 0;
  }

  if (args.Has("smoke")) {
    // Tier-1 CI mode: a small deterministic campaign per oracle, all must come back clean.
    uint64_t failed = 0;
    const std::pair<FuzzOracle, int> budgets[] = {{FuzzOracle::kKernel, 24},
                                                  {FuzzOracle::kIsa, 2048},
                                                  {FuzzOracle::kSerde, 48},
                                                  {FuzzOracle::kFrame, 512}};
    for (const auto& [oracle, cases] : budgets) {
      cfg.oracle = oracle;
      cfg.cases = cases;
      failed += ReportFuzzCampaign(RunFuzzCampaign(cfg));
    }
    return failed == 0 ? 0 : 1;
  }

  if (!args.Has("oracle") || !ParseFuzzOracle(args.Get("oracle"), &cfg.oracle)) {
    return Usage();
  }
  const FuzzCampaignResult result = RunFuzzCampaign(cfg);
  const uint64_t failed = ReportFuzzCampaign(result);
  if (args.Has("json")) {
    if (WriteStringToFile(args.Get("json"), FuzzCampaignJson(result) + "\n")) {
      std::printf("wrote %s\n", args.Get("json"));
    } else {
      return 1;
    }
  }
  return failed == 0 ? 0 : 1;
}

// Multi-tenant batched inference over TCP (see docs/SERVING.md). Blocks until killed.
int CmdServe(const Args& args) {
  constexpr uint64_t kMaxCount = std::numeric_limits<size_t>::max();
  uint64_t max_batch = 0;
  uint64_t cache = 0;
  uint64_t queue = 0;
  uint64_t port = 0;
  if (!args.Has("models") ||
      !ParseBounded(args.Get("max-batch", "8"), 1, kMaxCount, &max_batch) ||
      !ParseBounded(args.Get("cache", "4"), 1, kMaxCount, &cache) ||
      !ParseBounded(args.Get("queue", "1024"), 1, kMaxCount, &queue) ||
      !ParseBounded(args.Get("port", "7433"), 0, 65535, &port)) {
    return Usage();
  }
  ServeConfig cfg;
  cfg.max_batch = static_cast<size_t>(max_batch);
  cfg.cache_capacity = static_cast<size_t>(cache);
  cfg.max_queue_depth = static_cast<size_t>(queue);

  InferenceService service(cfg, DirectoryModelLoader(args.Get("models")));
  service.Start();
  FrameServer server(&service);
  // The banner reports the bound port (not the requested one, which may be 0) and is
  // flushed, so a client reading this process's stdout through a pipe sees it before
  // the first accept.
  const Status st = server.ListenAndServe(static_cast<uint16_t>(port), [&] {
    std::printf("neuroc serve: models=%s port=%u max_batch=%zu cache=%zu queue=%zu\n",
                args.Get("models"), static_cast<unsigned>(server.bound_port()),
                cfg.max_batch, cfg.cache_capacity, cfg.max_queue_depth);
    std::fflush(stdout);
  });
  if (!st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return 1;
  }
  return 0;
}

// Aggregates metrics-registry run records (JSONL files appended via --metrics-out) into
// one summary: counters sum across runs, gauges keep their last-seen value, histograms
// merge count/sum/min/max. First-seen order is preserved so output is deterministic.
int CmdReport(const Args& args) {
  if (!args.Has("in")) {
    return Usage();
  }
  std::ifstream in(args.Get("in"), std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "cannot open %s\n", args.Get("in"));
    return 1;
  }
  std::string text((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  std::vector<JsonValue> records;
  std::string error;
  if (!ParseJsonl(text, &records, &error)) {
    std::fprintf(stderr, "%s: %s\n", args.Get("in"), error.c_str());
    return 1;
  }

  // First-seen-order aggregation maps.
  std::vector<std::pair<std::string, double>> counters;  // name -> summed value
  std::vector<std::pair<std::string, double>> gauges;    // name -> last value
  struct HistAgg {
    std::string name;
    double count = 0, sum = 0, min = 0, max = 0;
    bool any = false;
  };
  std::vector<HistAgg> hists;
  const auto slot = [](std::vector<std::pair<std::string, double>>& v,
                       const std::string& name) -> double& {
    for (auto& [n, value] : v) {
      if (n == name) {
        return value;
      }
    }
    return v.emplace_back(name, 0.0).second;
  };

  for (const JsonValue& rec : records) {
    if (const JsonValue* cs = rec.Find("counters"); cs != nullptr && cs->is_object()) {
      for (const auto& [name, v] : cs->members) {
        slot(counters, name) += v.AsDouble();
      }
    }
    if (const JsonValue* gs = rec.Find("gauges"); gs != nullptr && gs->is_object()) {
      for (const auto& [name, v] : gs->members) {
        slot(gauges, name) = v.AsDouble();
      }
    }
    if (const JsonValue* hs = rec.Find("histograms"); hs != nullptr && hs->is_object()) {
      for (const auto& [name, v] : hs->members) {
        HistAgg* agg = nullptr;
        for (HistAgg& h : hists) {
          if (h.name == name) {
            agg = &h;
            break;
          }
        }
        if (agg == nullptr) {
          hists.emplace_back();
          hists.back().name = name;
          agg = &hists.back();
        }
        const JsonValue* count = v.Find("count");
        if (count == nullptr || count->AsDouble() == 0.0) {
          continue;
        }
        const double lo = v.Find("min") ? v.Find("min")->AsDouble() : 0.0;
        const double hi = v.Find("max") ? v.Find("max")->AsDouble() : 0.0;
        agg->count += count->AsDouble();
        agg->sum += v.Find("sum") ? v.Find("sum")->AsDouble() : 0.0;
        agg->min = agg->any ? std::min(agg->min, lo) : lo;
        agg->max = agg->any ? std::max(agg->max, hi) : hi;
        agg->any = true;
      }
    }
  }

  std::printf("%zu run record(s) from %s\n", records.size(), args.Get("in"));
  for (const JsonValue& rec : records) {
    const JsonValue* run = rec.Find("run");
    std::printf("  run: %s\n", run != nullptr && run->is_string() ? run->text.c_str()
                                                                  : "(unnamed)");
  }
  if (!counters.empty()) {
    std::printf("counters (summed across runs):\n");
    for (const auto& [name, value] : counters) {
      std::printf("  %-36s %.0f\n", name.c_str(), value);
    }
  }
  if (!gauges.empty()) {
    std::printf("gauges (last value):\n");
    for (const auto& [name, value] : gauges) {
      std::printf("  %-36s %g\n", name.c_str(), value);
    }
  }
  if (!hists.empty()) {
    std::printf("histograms (merged):\n");
    for (const HistAgg& h : hists) {
      std::printf("  %-36s count=%.0f mean=%g min=%g max=%g\n", h.name.c_str(), h.count,
                  h.count == 0 ? 0.0 : h.sum / h.count, h.min, h.max);
    }
  }

  if (args.Has("json")) {
    JsonWriter w;
    w.BeginObject();
    w.Key("schema").Value("neuroc.report.v1");
    w.Key("runs").Value(static_cast<uint64_t>(records.size()));
    w.Key("counters").BeginObject();
    for (const auto& [name, value] : counters) {
      w.Key(name).Value(value);
    }
    w.EndObject();
    w.Key("gauges").BeginObject();
    for (const auto& [name, value] : gauges) {
      w.Key(name).Value(value);
    }
    w.EndObject();
    w.Key("histograms").BeginObject();
    for (const HistAgg& h : hists) {
      w.Key(h.name).BeginObject();
      w.Key("count").Value(h.count);
      w.Key("sum").Value(h.sum);
      w.Key("min").Value(h.min);
      w.Key("max").Value(h.max);
      w.EndObject();
    }
    w.EndObject();
    w.EndObject();
    if (WriteStringToFile(args.Get("json"), w.str() + "\n")) {
      std::printf("wrote %s\n", args.Get("json"));
    } else {
      return 1;
    }
  }
  return 0;
}

int Main(int argc, char** argv) {
  if (argc < 2) {
    return Usage();
  }
  Args args;
  args.command = argv[1];
  for (int i = 2; i < argc; ++i) {
    std::string key = argv[i];
    if (key.rfind("--", 0) != 0) {
      return Usage();
    }
    key = key.substr(2);
    if (const size_t eq = key.find('='); eq != std::string::npos) {
      args.options[key.substr(0, eq)] = key.substr(eq + 1);  // --key=value
    } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      args.options[key] = argv[++i];
    } else {
      args.options[key] = "";  // boolean flag
    }
  }
  int rc = -1;
  if (args.command == "train") {
    rc = CmdTrain(args);
  } else if (args.command == "eval") {
    rc = CmdEval(args);
  } else if (args.command == "inspect") {
    rc = CmdInspect(args);
  } else if (args.command == "bench") {
    rc = CmdBench(args);
  } else if (args.command == "profile") {
    rc = CmdProfile(args);
  } else if (args.command == "deploy") {
    rc = CmdDeploy(args);
  } else if (args.command == "faultcampaign") {
    rc = CmdFaultCampaign(args);
  } else if (args.command == "fuzz") {
    rc = CmdFuzz(args);
  } else if (args.command == "serve") {
    rc = CmdServe(args);
  } else if (args.command == "report") {
    rc = CmdReport(args);
  } else {
    return Usage();
  }
  // Structured observability export: one registry run record per invocation, appended so
  // multi-command pipelines build a stream `neuroc report` can aggregate.
  if (args.Has("metrics-out") && *args.Get("metrics-out") != '\0') {
    if (MetricsRegistry::Global().AppendRunRecord(args.Get("metrics-out"), args.command)) {
      std::printf("appended metrics run record to %s\n", args.Get("metrics-out"));
    }
  }
  return rc;
}

}  // namespace
}  // namespace neuroc

int main(int argc, char** argv) { return neuroc::Main(argc, argv); }
