// serve_mt: multi-tenant serving through FrameServer (see serve_harness.h), measured
// closed loop: each tenant keeps a fixed number of requests outstanding, so the service
// stays busy and its latency and throughput reflect the work per request rather than
// how fast an idle host wakes threads up. On the 4-vCPU host this was tuned on, the
// open loop's latency at the same offered rate moved 2-4x from run to run, so the open
// loop (nominal-rate latency, the rate ladder and max_rps_at_slo) is measured in the
// traced run instead (RunLayerProbes). Every response is checked against the host
// reference; a difference fails the run.

#include "bench.h"
#include "serve_harness.h"

namespace perfbench {

namespace {

class ServeMt : public Workload {
 public:
  explicit ServeMt(const Options& o) : options_(o) {}

  void Setup(SpanLog* log) override {
    harness_ = std::make_unique<ServeHarness>(options_.seed, log);
    harness_->Start(HostThreads(), log);
  }

  void Run(double seconds, Tracer* tracer, SpanLog*, Report& report) override {
    const ServeStep step = harness_->RunClosedFrameStep(seconds, 1, tracer);
    report.ops.Add(step.ops);
    CheckPayloads(step, report);
    const Summary& lat = step.latency;
    report.Add("latency_ms", "ms", lat.median);
    report.Add("latency_p99_ms", "ms", lat.tail);
    report.Add("throughput_per_s", "1/s", step.throughput);
    report.Add("target_cycles_per_op", "cycles", harness_->mean_cycles());
    report.Add("target_flash_bytes", "bytes", static_cast<double>(harness_->flash_bytes()));
    report.Note("serve_mt closed loop: " + std::to_string(lat.count) +
                " latency samples, tail at p" + Fmt(lat.tail_pct));
    report.Note("target_energy_uj_per_op: " + Fmt(harness_->mean_energy_pj() * 1e-6) + " uJ");
  }

 private:
  Options options_;
  std::unique_ptr<ServeHarness> harness_;
};

}  // namespace

std::unique_ptr<Workload> MakeServeMt(const Options& options) {
  return std::make_unique<ServeMt>(options);
}

}  // namespace perfbench
