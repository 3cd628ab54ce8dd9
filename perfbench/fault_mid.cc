// fault_mid: RunFaultCampaign with the mid-inference trigger over all five encodings and
// all four regions, dual_run on, on the global pool (one worker per host thread).
//
// One operation is one campaign of kTrialsPerEncoding trials per encoding. The campaign
// is deterministic, so every repetition in a run must produce byte-identical JSON; any
// difference, or a trial that ends in permanent failure, counts as a failed operation.

#include "bench.h"
#include "src/runtime/fault_campaign.h"

namespace perfbench {
namespace {

constexpr int kTrialsPerEncoding = 100;

class FaultMid : public Workload {
 public:
  explicit FaultMid(const Options& o) {
    config_.seed = o.seed;
    config_.trials_per_encoding = kTrialsPerEncoding;
    config_.trigger = neuroc::FaultTrigger::kMidInference;
    config_.policy.dual_run = true;
  }

  // Set-up is the campaign's golden pass (one deployment and fault-free inference per
  // encoding), run as a zero-trial campaign.
  void Setup(SpanLog* log) override {
    neuroc::FaultCampaignConfig golden_only = config_;
    golden_only.trials_per_encoding = 0;
    ScopedSpan span(log, "runtime.fault_campaign_golden");
    golden_ = neuroc::RunFaultCampaign(golden_only);
  }

  void Run(double seconds, Tracer*, SpanLog* log, Report& report) override {
    std::vector<double> latency_ms;
    uint64_t trials = 0;
    std::string reference;
    neuroc::FaultCampaignResult last;
    const Clock::time_point start = Clock::now();
    double elapsed = 0.0;
    while (elapsed < seconds) {
      const Clock::time_point t0 = Clock::now();
      {
        ScopedSpan span(log, "runtime.fault_campaign", 0, latency_ms.size() + 1);
        last = neuroc::RunFaultCampaign(config_);
      }
      latency_ms.push_back(MsSince(t0));
      trials += last.totals.trials;
      report.ops.attempted += last.totals.trials;
      report.ops.failed += last.totals.permanent_failure;
      std::string json;
      {
        ScopedSpan span(log, "bench.check_campaign", 0, latency_ms.size());
        json = neuroc::FaultCampaignJson(last);
      }
      if (reference.empty()) {
        reference = json;
        CheckGolden(last, report);
      } else if (json != reference) {
        report.ops.failed += last.totals.trials;
        report.Mismatch("fault_mid: a repeated campaign produced different results");
      }
      elapsed = SecondsSince(start);
    }

    const Summary s = Summarize(latency_ms);
    double cycles = 0.0;
    double flash = 0.0;
    for (const neuroc::EncodingCampaignResult& e : last.encodings) {
      cycles += static_cast<double>(e.golden_cycles);
      flash += static_cast<double>(e.program_bytes);
    }
    const neuroc::RegionStats& t = last.totals;
    report.Add("latency_ms", "ms", s.median);
    report.Add("latency_p99_ms", "ms", s.tail);
    report.Add("throughput_per_s", "1/s", static_cast<double>(trials) / elapsed);
    report.Add("target_cycles_per_op", "cycles",
               cycles / static_cast<double>(last.encodings.size()));
    report.Add("target_flash_bytes", "bytes", flash);
    report.Note("fault_mid: " + std::to_string(latency_ms.size()) + " campaigns of " +
                std::to_string(t.trials) + " trials; latency samples " +
                std::to_string(s.count) + ", tail at p" + Fmt(s.tail_pct));
    report.Note("sdc_rate: " + Fmt(t.SdcRate()) + " ratio (" + std::to_string(t.sdc) +
                " of " + std::to_string(t.trials) + " trials); recovered snapshot/scrub/" +
                "redeploy " + std::to_string(t.recovered_snapshot) + "/" +
                std::to_string(t.recovered_scrub) + "/" +
                std::to_string(t.recovered_redeploy) + ", permanent failures " +
                std::to_string(t.permanent_failure));
  }

 private:
  // The timed campaigns must deploy exactly what set-up deployed.
  void CheckGolden(const neuroc::FaultCampaignResult& r, Report& report) const {
    for (size_t e = 0; e < r.encodings.size(); ++e) {
      if (r.encodings[e].golden_cycles != golden_.encodings[e].golden_cycles ||
          r.encodings[e].program_bytes != golden_.encodings[e].program_bytes) {
        report.Mismatch("fault_mid: campaign golden pass differs from set-up");
      }
    }
  }

  neuroc::FaultCampaignConfig config_;
  neuroc::FaultCampaignResult golden_;
};

}  // namespace

std::unique_ptr<Workload> MakeFaultMid(const Options& options) {
  return std::make_unique<FaultMid>(options);
}

}  // namespace perfbench
