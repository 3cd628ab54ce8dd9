// The multi-tenant batched inference service behind `neuroc serve`.
//
// Request lifecycle:
//
//   Submit() ──admission──▶ per-model queues (per-tenant sub-queues) ──▶ W worker
//     threads the service owns (W = the global pool's thread count at Start). Each worker
//     claims a model with queued requests and a free machine, forms one batch
//     (round-robin across tenants, so no tenant can starve another inside a shared
//     model), runs it on that machine via GuardedModel::PredictBatch (a simulated MCU is
//     single-core, so requests *within* a batch run back-to-back), completes the requests
//     and claims again ──▶ completions fire with the response.
//
// Every served model has one record under the service mutex: its tenant queues, its
// machines (machine 0 is the loaded GuardedModel, the rest are forks of it; none while
// the model is not resident), which of them are busy, the energy proxy and a last-use
// stamp. A model that is not resident is loaded, outside the lock, by the worker that
// claims its machine 0; requests arriving meanwhile wait for that one load. While a model
// has a backlog and every machine of it is busy, the worker holding machine 0 forks a
// replica (GuardedModel::Fork) before running its batch, up to W machines per model, so
// one hot model's backlog spreads across workers. Forks happen only there: never at
// load, and never while machine 0 runs a fallback encoding (its deployment is what Fork
// copies). Beyond cache_capacity resident models, the least-recently-used one is
// evicted with all its machines; if a batch still holds one of them, eviction waits for
// that batch's release. Any flash corruption a machine picks up mid-service is healed by
// GuardedModel's scrub-and-retry rungs on the next request.
//
// Determinism contract: a response payload is a pure function of (request, model) —
// inference is input-deterministic, per-inference cycles are input-independent, every
// replica is indistinguishable from machine 0, and the energy proxy is profiled once per
// model load — so payloads are byte-identical at any NEUROC_NUM_THREADS and any
// batching/arrival interleaving (asserted in tests/serve_test.cc). Scheduling order, by
// contrast, is load-dependent by design; only the payloads are pinned.
//
// Observability: global serve.* counters/histograms (model residency under
// serve.cache.{hits,misses,evictions,load_failures}) plus per-tenant
// serve.tenant.<name>.* metrics in the process MetricsRegistry — the `neuroc.serve.v1`
// metrics schema documented in docs/SERVING.md. Handles are resolved once (LazyMetric),
// never looked up per request.
//
// What client-chosen names can grow is bounded: a failed load erases its model's record
// (failing the requests queued behind that load with the load's status), so records
// outlive their requests only for names the loader resolves; a tenant's FIFO lives only
// while it holds requests; and only the first kMaxTenantScopes tenants get their own
// metric scope.

#ifndef NEUROC_SRC_SERVE_SERVICE_H_
#define NEUROC_SRC_SERVE_SERVICE_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/common/status.h"
#include "src/obs/registry.h"
#include "src/runtime/recovery.h"
#include "src/serve/frame.h"
#include "src/sim/machine.h"

namespace neuroc {

// Resolves a model name to a freshly loaded host model (e.g. <dir>/<name>.ncm, or an
// in-memory registry in tests/benches). Must be pure: same name -> same model bytes.
using ModelLoader = std::function<StatusOr<NeuroCModel>(const std::string& name)>;

// Loader over a directory of v2 CRC model images: name -> <dir>/<name>.ncm.
ModelLoader DirectoryModelLoader(const std::string& dir);

struct ServeConfig {
  size_t max_batch = 8;          // requests per batch
  size_t max_queue_depth = 1024; // admission cap; beyond it requests are rejected
  size_t cache_capacity = 4;     // resident deployed models (LRU beyond this)
  MachineConfig machine;
  RecoveryPolicy policy;
  // Tests: keep a journal of formed batches (model, machine, per-tenant composition).
  bool record_batches = false;
};

// One formed batch — the observable batching decision the test harness asserts on.
struct BatchRecord {
  std::string model;
  size_t machine = 0;  // 0: the loaded GuardedModel; k >= 1: its k-th replica
  size_t size = 0;
  // Tenant -> requests taken this batch, in pop order (round-robin).
  std::vector<std::pair<std::string, size_t>> per_tenant;
};

class InferenceService {
 public:
  // Runs when the request completes (on a worker, or the Submit/Stop caller for
  // refusals; never twice for the same request). Must not block for long — it sits on
  // the serving hot path.
  using Completion = std::function<void(const ServeResponse&)>;

  InferenceService(const ServeConfig& config, ModelLoader loader);
  ~InferenceService();

  InferenceService(const InferenceService&) = delete;
  InferenceService& operator=(const InferenceService&) = delete;

  // Starts W worker threads, W being the global pool's thread count now. Requests
  // submitted before Start wait in their queues; a 1-worker service then forms its
  // batches from them in a deterministic order. No-op once started or stopped.
  void Start();
  // Stops the workers — each finishes the batch it runs, completing its requests — and
  // fails any still-queued request with kResourceExhausted ("shutting down") so no
  // client is left waiting. Idempotent.
  void Stop();

  // Thread-safe asynchronous intake. Admission control rejects (with an immediate
  // error completion) when the total queue depth is at max_queue_depth.
  void Submit(ServeRequest request, Completion done);

  // Tenants with their own serve.tenant.<name>.* scope; every later tenant is counted
  // under serve.tenant_overflow.*, so client-chosen names cannot grow the registry
  // without bound.
  static constexpr size_t kMaxTenantScopes = 64;

  // Requests queued but not yet dispatched.
  size_t QueueDepth() const;
  // Drains the batch journal (record_batches mode).
  std::vector<BatchRecord> TakeBatchRecords();

  // Test hook: machine `k` of `model` (0: as loaded, k >= 1: a fork), or null when the
  // model is not resident or has no machine k. The pointer stays valid until the model
  // is evicted; touch the machine only while no batch runs on it.
  GuardedModel* MachineForTest(const std::string& model, size_t k = 0);
  // Test hook: the model records the service holds.
  size_t ModelRecordsForTest() const;

  const ServeConfig& config() const { return config_; }

 private:
  // Handles of one metric scope's <scope>.* metrics: serve.tenant.<name> for a tenant,
  // made at its first request, or serve.tenant_overflow.
  struct TenantMetrics {
    explicit TenantMetrics(const std::string& scope);
    LazyCounter requests;
    LazyCounter failures;
    LazyHistogram latency_ms;
    LazyHistogram cycles;
  };
  struct Pending {
    ServeRequest request;
    Completion done;
    TenantMetrics* tenant = nullptr;
    std::chrono::steady_clock::time_point submitted;
  };
  using Machines = std::vector<std::unique_ptr<GuardedModel>>;
  // One served model, guarded by mutex_.
  struct Model {
    // Admission queue: per-tenant FIFOs plus the round-robin state that keeps batch
    // formation fair across tenants. A tenant is here only while its FIFO holds
    // requests: batch formation drops it when it empties, and its next request appends
    // it again.
    std::vector<std::string> tenant_order;  // arrival order of the queued tenants
    std::map<std::string, std::deque<Pending>> by_tenant;
    size_t rr_cursor = 0;  // index into tenant_order to start the next batch from
    size_t depth = 0;
    // machines[0] is the loaded GuardedModel, machines[k >= 1] its forks; empty while
    // the model is not resident. Each sits behind a pointer, so a batch keeps running on
    // its machine while the holder of machine 0 appends a fork.
    Machines machines;
    // busy[k]: a batch holds machine k. One slot per machine, and one while the model
    // is not resident: the claim that takes it loads the model as machine 0.
    std::vector<bool> busy = std::vector<bool>(1, false);
    size_t idle = 1;         // slots not busy
    uint64_t energy_pj = 0;  // per-inference energy proxy, profiled once at load
    uint64_t last_use = 0;   // the service's use clock at the last claim or load

    bool claimable() const { return depth > 0 && idle > 0; }
  };
  using ModelMap = std::map<std::string, Model>;
  // A batch's hold on one machine of its model, from claim to release.
  struct Claim {
    ModelMap::iterator model;
    size_t machine = 0;
    // The claimed machine, and its model's energy proxy. Null when the model was not
    // resident: the claim holds slot 0 and loads the model into it.
    GuardedModel* gm = nullptr;
    uint64_t energy_pj = 0;
    std::vector<Pending> requests;
  };

  // A worker: claim, form, (fork,) execute, release, until Stop.
  void WorkerLoop();
  // The next model after the last claimed one (name order, wrapping) that is claimable.
  ModelMap::iterator FindClaimableLocked();
  // Claims the lowest free machine of a claimable model and forms the batch.
  Claim ClaimLocked(ModelMap::iterator model);
  // Pops up to max_batch requests from `model` round-robin across tenants.
  std::vector<Pending> FormBatchLocked(ModelMap::iterator model, size_t machine);
  // Loads the model when needed and runs the batch on the claimed machine, completing
  // every request.
  void ExecuteClaim(Claim& claim);
  // Loads `name` as a new machine 0, outside the lock, and installs it (a miss). On a
  // failure it erases the model's record, leaving claim.model at models_.end(), and
  // completes the requests queued behind the load with the load's status.
  Status LoadClaim(Claim& claim);
  // Frees the claimed machine, if its model still has a record. Returns the machines of
  // any model this evicts, for the caller to destroy once it has dropped the lock.
  Machines ReleaseLocked(Claim& claim);
  // Evicts least-recently-used models while more than cache_capacity are resident,
  // stopping at one a batch still holds. Returns the evicted machines.
  Machines EvictOverflowLocked();
  void CompleteRequest(Pending& pending, const ServeResponse& response);

  ServeConfig config_;
  ModelLoader loader_;

  LazyCounter accepted_;
  LazyCounter rejected_;
  LazyCounter completed_;
  LazyCounter failed_;
  LazyCounter batches_;
  LazyHistogram batch_size_;
  LazyHistogram latency_ms_;
  LazyCounter hits_;
  LazyCounter misses_;
  LazyCounter evictions_;
  LazyCounter load_failures_;

  mutable std::mutex mutex_;
  std::condition_variable work_available_;
  ModelMap models_;           // keyed by model name; a failed load erases its record
  std::string last_claimed_;  // the workers' round-robin cursor over models
  size_t total_depth_ = 0;
  size_t resident_ = 0;       // models with machines
  uint64_t use_clock_ = 0;    // stamps Model::last_use
  std::map<std::string, TenantMetrics> tenants_;  // at most kMaxTenantScopes
  TenantMetrics overflow_tenants_{"serve.tenant_overflow"};
  std::vector<BatchRecord> batch_records_;
  size_t machine_cap_ = 1;  // machines per model: the number of workers
  bool stopping_ = false;

  std::vector<std::thread> workers_;
};

}  // namespace neuroc

#endif  // NEUROC_SRC_SERVE_SERVICE_H_
