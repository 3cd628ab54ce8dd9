// The serving harness shared by the serve_mt workload and the serve layer probes: four
// resident models behind one InferenceService, three tenants each on its own socketpair
// through FrameServer::AddConnection, and an open-loop load generator with seeded Poisson
// arrivals.
//
// The generator times every request from its *scheduled* send time, so a stall in the
// generator or the server shows up as latency of the requests behind it (the in-tree
// RunOpenLoop times from the actual send). It records how late each send was and samples
// QueueDepth() at every send (the backlog test). Every response, open or closed loop, is
// checked against a host reference: prediction from NeuroCModel::Predict, cycles and
// energy from a solo deploy. Threads: the open loop uses the calling thread to generate
// and three reader threads to decode, four in all; the closed loop one thread per tenant.

#ifndef PERFBENCH_SERVE_HARNESS_H_
#define PERFBENCH_SERVE_HARNESS_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "src/serve/server.h"
#include "src/serve/service.h"

namespace perfbench {

inline constexpr size_t kServeTenants = 3;
inline constexpr size_t kServeModels = 4;
// The nominal open-loop rate, requests per second: about half the capacity measured on a
// 4-core host (perfbench/PROVENANCE.json).
inline constexpr double kServeNominalRate = 35000.0;
// Closed loop: requests each tenant keeps outstanding (about the open loop's 60/20/20
// tenant shares).
inline constexpr size_t kClosedWindow[kServeTenants] = {12, 4, 4};
// Latency is summarized per chunk of this many consecutive requests (enough for a p99
// with 10 samples beyond it) and the chunks' medians reported: the host this was tuned
// on stalls threads for milliseconds several times a second, and a stall should move
// the chunks it hits rather than the result.
inline constexpr size_t kLatencyChunk = 2000;

struct ServeStep {
  // Per request, in schedule order: latency from the scheduled send time to the decoded
  // response (+infinity when it failed, was refused, differed or never came).
  std::vector<double> latency_ms;
  std::vector<double> lag_ms;         // how late each send left the generator
  std::vector<size_t> queue_depth;    // QueueDepth() at each send
  std::vector<double> submit_us;      // direct steps: time inside Submit
  std::vector<double> service_ms;     // direct steps: Submit entry to completion
  OpCounts ops;                       // failed: the +infinity latencies
  uint64_t mismatched = 0;            // OK responses that differ from the reference
  Summary latency;                    // closed loop: chunked, from the actual send
  double throughput = 0.0;            // closed loop: completions per second
};

// Serve model `index` (0..kServeModels-1) for `seed`, exactly as the service loads it.
neuroc::NeuroCModel BuildServeModel(uint64_t seed, size_t index);

class ServeHarness {
 public:
  explicit ServeHarness(uint64_t seed, SpanLog* log = nullptr);
  ~ServeHarness();
  ServeHarness(const ServeHarness&) = delete;
  ServeHarness& operator=(const ServeHarness&) = delete;

  // Starts the service with a global pool of `pool_threads` workers, connects the three
  // tenants and loads every model with one request each.
  void Start(unsigned pool_threads, SpanLog* log = nullptr);
  void Stop();

  // One open-loop step at `rate` for `seconds` through the socket front end.
  ServeStep RunFrameStep(double rate, double seconds, uint64_t step_seed);
  // The same schedule submitted straight to InferenceService::Submit (no framing).
  ServeStep RunDirectStep(double rate, double seconds, uint64_t step_seed);
  // Closed loop through the socket front end for `seconds`: each tenant's thread keeps
  // kClosedWindow[tenant] requests outstanding on its connection and sends the next one
  // as each response arrives. Fills `latency` (chunked per tenant, from the actual send)
  // and `throughput` (completions per second) instead of per-request vectors, so memory
  // does not grow with throughput.
  ServeStep RunClosedFrameStep(double seconds, uint64_t step_seed, Tracer* tracer);

  // Sum of the four solo deployments' program bytes, and the mean over the four models
  // (requests pick them uniformly) of the simulated cycles and energy per inference;
  // every response's cycles and energy are checked equal to its model's.
  size_t flash_bytes() const;
  double mean_cycles() const;
  double mean_energy_pj() const;
  // Models built by the benchmark's loader wrapper, and the time spent in it.
  uint64_t model_loads() const { return loads_.load(); }
  double model_load_ms() const { return static_cast<double>(load_ns_.load()) * 1e-6; }

 private:
  struct Model {
    std::string name;
    std::vector<std::vector<int8_t>> inputs;  // request input pool
    std::vector<int> expected;                // NeuroCModel::Predict per pool input
    uint64_t cycles = 0;                      // solo deploy, per inference
    uint64_t energy_pj = 0;                   // solo deploy energy proxy, rounded
    size_t program_bytes = 0;
  };
  struct Request {
    uint64_t id = 0;
    uint8_t tenant = 0;
    uint8_t model = 0;
    uint16_t input = 0;
    double at_s = 0.0;  // scheduled offset from the step start
  };
  std::vector<Request> Schedule(double rate, double seconds, uint64_t step_seed);
  neuroc::ServeRequest MakeRequest(const Request& r) const;
  // Checks one response against the reference; false on any difference.
  bool Matches(const Request& r, const neuroc::ServeResponse& resp) const;

  uint64_t seed_;
  std::vector<Model> models_;
  std::atomic<uint64_t> loads_{0};
  std::atomic<uint64_t> load_ns_{0};
  uint64_t next_id_ = 1;
  std::unique_ptr<neuroc::InferenceService> service_;
  std::unique_ptr<neuroc::FrameServer> server_;
  int client_fd_[kServeTenants] = {-1, -1, -1};
};

// ChunkedSummary with kLatencyChunk of `samples` in order.
Summary Chunked(const std::vector<double>& samples);

// Fails the run when any OK response of `step` differed from the host reference.
void CheckPayloads(const ServeStep& step, Report& report);

struct OpenLoopResult {
  ServeStep nominal;           // the framed step at kServeNominalRate
  Summary latency;             // chunked latency of `nominal`
  Summary lag;                 // chunked generator lag of `nominal`
  double max_rps_at_slo = 0.0;  // highest ladder rate meeting the SLO; 0 when none does
};

// The open loop through the socket front end: one step at the nominal rate for
// `nominal_seconds`, then the fixed rate ladder upwards, `step_seconds` per rate, each
// step judged against the service-level objective (chunked p99 within the limit, no
// failed request, no growing backlog, generator on time). The walk stops after two
// failing steps. Refusals above capacity fail only their step. Adds one note per step.
OpenLoopResult MeasureOpenLoop(ServeHarness& harness, double nominal_seconds,
                               double step_seconds, Report& report);

}  // namespace perfbench

#endif  // PERFBENCH_SERVE_HARNESS_H_
