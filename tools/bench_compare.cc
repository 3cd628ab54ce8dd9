// bench_compare — regression gate over the committed BENCH_*.json baselines.
//
//   bench_compare [--smoke] [--tol 0.5] <baseline.json> <fresh.json> [<b2> <f2> ...]
//
// Walks each baseline/fresh pair structurally and diffs every numeric leaf. Metrics are
// classified by key name:
//
//   deterministic  simulated cycles, instruction counts, program bytes, accuracies —
//                  anything the simulator's determinism contract covers. Any mismatch is
//                  a FAIL (exit 1), in both modes: these cannot legitimately drift
//                  without a code change that should also update the baseline.
//   host-varying   wall-clock throughput (sim_mips, *_ms, *_per_sec, speedups): compared
//                  against --tol relative tolerance (default 0.5). Beyond tolerance is a
//                  FAIL in full mode but only a WARN in --smoke mode — CI containers are
//                  1-core and noisy, so smoke mode gates determinism only.
//   ignored        environment/config stamps (host_threads_available, smoke, reps) that
//                  legitimately differ between a committed full run and a CI smoke run.
//   skipped        parallel speed-ups (`*_vs_1t`) unless both files stamp
//                  host_threads_available >= 4 at their root: a speed-up measured with
//                  fewer cores says nothing about four-core scaling, so it is reported
//                  as skipped instead of compared.
//
// A key present in the baseline but missing from the fresh output FAILs (schema
// regression); extra fresh keys are reported but harmless (new metrics land before the
// baseline is regenerated).

#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "src/obs/json_reader.h"

namespace neuroc {
namespace {

enum class MetricClass { kDeterministic, kHostVarying, kIgnored };

bool Contains(std::string_view hay, std::string_view needle) {
  return hay.find(needle) != std::string_view::npos;
}

// Classification is by the leaf's own key, so nested objects ("speedups": {...}) work
// through the per-leaf key, not the path.
MetricClass Classify(std::string_view key) {
  static constexpr std::string_view kIgnored[] = {
      "host_threads_available", "smoke",  "reps_per_timing",
      "reps",                   "trials", "epochs",
      "timing_reps"};
  for (const std::string_view k : kIgnored) {
    if (key == k) {
      return MetricClass::kIgnored;
    }
  }
  // Cycle-derived metrics are deterministic even when the key also matches a
  // host-varying pattern: "cycle_ratio_delta_vs_unrolled" is a ratio of simulated cycle
  // counts, which cannot drift without a code change.
  if (Contains(key, "cycle")) {
    return MetricClass::kDeterministic;
  }
  static constexpr std::string_view kHostPatterns[] = {
      "wall", "mips", "per_sec", "_ms",  "ms_",     "seconds",   "speedup",
      "_vs_", "ratio", "overhead", "host", "elapsed", "throughput"};
  for (const std::string_view p : kHostPatterns) {
    if (Contains(key, p)) {
      return MetricClass::kHostVarying;
    }
  }
  return MetricClass::kDeterministic;
}

// Fewest cores both runs must have had for their `*_vs_1t` speed-ups to be compared.
constexpr double kMinThreadsForSpeedups = 4;

struct CompareStats {
  int compared = 0;
  int warnings = 0;
  int failures = 0;
  int skipped = 0;
  bool smoke = false;
  double tol = 0.5;
  bool speedups_comparable = false;  // both files of the current pair have >= 4 threads
};

// host_threads_available stamped at the document root, or 0 when it is missing.
double HostThreadsAvailable(const JsonValue& doc) {
  const JsonValue* v = doc.is_object() ? doc.Find("host_threads_available") : nullptr;
  return v != nullptr && v->is_number() ? v->number : 0.0;
}

double RelativeDelta(double baseline, double fresh) {
  if (baseline == fresh) {
    return 0.0;
  }
  const double denom = std::fabs(baseline) > 1e-12 ? std::fabs(baseline) : 1.0;
  return std::fabs(fresh - baseline) / denom;
}

// Array elements are labeled by an identifying member when one exists, so a diff in
// inference[5] reads as inference[mixed/block] in the report.
std::string ElementLabel(const JsonValue& element, size_t index) {
  std::string label;
  for (const char* key : {"encoding", "decode", "mode", "bench", "name", "kernel"}) {
    const JsonValue* v = element.Find(key);
    if (v != nullptr && v->is_string()) {
      label += label.empty() ? v->text : "/" + v->text;
    }
  }
  if (label.empty()) {
    label = std::to_string(index);
  }
  return label;
}

void Compare(const std::string& path, std::string_view key, const JsonValue& baseline,
             const JsonValue& fresh, CompareStats* stats) {
  if (baseline.is_object()) {
    if (!fresh.is_object()) {
      std::printf("FAIL %s: baseline is an object, fresh is not\n", path.c_str());
      ++stats->failures;
      return;
    }
    for (const auto& [name, value] : baseline.members) {
      const JsonValue* other = fresh.Find(name);
      const std::string child = path.empty() ? name : path + "." + name;
      if (other == nullptr) {
        if (Classify(name) != MetricClass::kIgnored) {
          std::printf("FAIL %s: missing from fresh output\n", child.c_str());
          ++stats->failures;
        }
        continue;
      }
      Compare(child, name, value, *other, stats);
    }
    for (const auto& [name, value] : fresh.members) {
      if (baseline.Find(name) == nullptr) {
        std::printf("NOTE %s.%s: new metric not in baseline\n", path.c_str(),
                    name.c_str());
      }
    }
    return;
  }
  if (baseline.is_array()) {
    if (!fresh.is_array() || fresh.elements.size() != baseline.elements.size()) {
      std::printf("FAIL %s: array shape differs (baseline %zu, fresh %zu)\n", path.c_str(),
                  baseline.elements.size(),
                  fresh.is_array() ? fresh.elements.size() : size_t{0});
      ++stats->failures;
      return;
    }
    for (size_t i = 0; i < baseline.elements.size(); ++i) {
      const std::string child =
          path + "[" + ElementLabel(baseline.elements[i], i) + "]";
      Compare(child, key, baseline.elements[i], fresh.elements[i], stats);
    }
    return;
  }
  if (!baseline.is_number()) {
    return;  // strings/bools are identity metadata, not gated metrics
  }
  const MetricClass cls = Classify(key);
  if (cls == MetricClass::kIgnored || !fresh.is_number()) {
    return;
  }
  if (key.ends_with("_vs_1t") && !stats->speedups_comparable) {
    std::printf("SKIP %s: baseline=%g fresh=%g (compared only when both files have "
                "host_threads_available >= %g)\n",
                path.c_str(), baseline.number, fresh.number, kMinThreadsForSpeedups);
    ++stats->skipped;
    return;
  }
  ++stats->compared;
  const double delta = RelativeDelta(baseline.number, fresh.number);
  if (cls == MetricClass::kDeterministic) {
    if (baseline.number != fresh.number) {
      std::printf("FAIL %s: baseline=%g fresh=%g (determinism-sensitive)\n", path.c_str(),
                  baseline.number, fresh.number);
      ++stats->failures;
    }
    return;
  }
  if (delta > stats->tol) {
    const bool hard = !stats->smoke;
    std::printf("%s %s: baseline=%g fresh=%g (%+.1f%%, tol %.0f%%)\n",
                hard ? "FAIL" : "WARN", path.c_str(), baseline.number, fresh.number,
                100.0 * (fresh.number - baseline.number) /
                    (baseline.number != 0.0 ? baseline.number : 1.0),
                100.0 * stats->tol);
    ++(hard ? stats->failures : stats->warnings);
  }
}

int Usage() {
  std::fprintf(stderr,
               "usage: bench_compare [--smoke] [--tol R] <baseline.json> <fresh.json>"
               " [<baseline2> <fresh2> ...]\n");
  return 2;
}

int Main(int argc, char** argv) {
  CompareStats stats;
  std::vector<std::string> files;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--smoke") {
      stats.smoke = true;
    } else if (arg == "--tol" && i + 1 < argc) {
      stats.tol = std::strtod(argv[++i], nullptr);
    } else if (arg.rfind("--tol=", 0) == 0) {
      stats.tol = std::strtod(argv[i] + 6, nullptr);
    } else if (arg.rfind("--", 0) == 0) {
      return Usage();
    } else {
      files.emplace_back(arg);
    }
  }
  if (files.empty() || files.size() % 2 != 0) {
    return Usage();
  }

  for (size_t p = 0; p < files.size(); p += 2) {
    JsonValue baseline, fresh;
    std::string error;
    if (!ParseJsonFile(files[p], &baseline, &error)) {
      std::fprintf(stderr, "bench_compare: %s\n", error.c_str());
      return 2;
    }
    if (!ParseJsonFile(files[p + 1], &fresh, &error)) {
      std::fprintf(stderr, "bench_compare: %s\n", error.c_str());
      return 2;
    }
    std::printf("comparing %s (baseline) vs %s (fresh)%s\n", files[p].c_str(),
                files[p + 1].c_str(), stats.smoke ? " [smoke]" : "");
    stats.speedups_comparable = HostThreadsAvailable(baseline) >= kMinThreadsForSpeedups &&
                                HostThreadsAvailable(fresh) >= kMinThreadsForSpeedups;
    Compare("", "", baseline, fresh, &stats);
  }
  std::printf(
      "bench_compare: %d metric(s) compared, %d warning(s), %d failure(s), %d skipped\n",
      stats.compared, stats.warnings, stats.failures, stats.skipped);
  return stats.failures == 0 ? 0 : 1;
}

}  // namespace
}  // namespace neuroc

int main(int argc, char** argv) { return neuroc::Main(argc, argv); }
