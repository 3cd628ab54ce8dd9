// The multi-tenant batched inference service behind `neuroc serve`.
//
// Request lifecycle:
//
//   Submit() ──admission──▶ per-model queues (per-tenant sub-queues) ──▶ W workers, one
//     ParallelFor over the global pool for the service's lifetime (W = the pool's thread
//     count). Each worker claims a model with queued requests and a free machine, forms
//     one batch (round-robin across tenants, so no tenant can starve another inside a
//     shared model), runs it on that machine via GuardedModel::PredictBatch (a simulated
//     MCU is single-core, so requests *within* a batch run back-to-back), completes the
//     requests and claims again ──▶ completions fire with the response.
//
// A model starts with one machine, the loaded GuardedModel (machine 0). While a model has
// a backlog and every machine of it is busy, the worker holding machine 0 forks a replica
// (GuardedModel::Fork) before running its batch, up to W machines per model, so one hot
// model's backlog spreads across workers. Forks happen only there: never at load, and
// never while machine 0 runs a fallback encoding (its deployment is what Fork copies).
//
// Determinism contract: a response payload is a pure function of (request, model) —
// inference is input-deterministic, per-inference cycles are input-independent, every
// replica is indistinguishable from machine 0, and the energy proxy is profiled once per
// model load — so payloads are byte-identical at any NEUROC_NUM_THREADS and any
// batching/arrival interleaving (asserted in tests/serve_test.cc). Scheduling order, by
// contrast, is load-dependent by design; only the payloads are pinned.
//
// Observability: global serve.* counters/histograms plus per-tenant serve.tenant.<name>.*
// metrics in the process MetricsRegistry — the `neuroc.serve.v1` metrics schema
// documented in docs/SERVING.md. Handles are resolved once (LazyMetric), never looked up
// per request.

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

#include "src/common/thread_pool.h"
#include "src/obs/registry.h"
#include "src/serve/frame.h"
#include "src/serve/model_cache.h"

namespace neuroc {

struct ServeConfig {
  size_t max_batch = 8;          // requests per batch
  size_t max_queue_depth = 1024; // admission cap; beyond it requests are rejected
  size_t cache_capacity = 4;     // resident deployed models (LRU beyond this)
  MachineConfig machine;
  RecoveryPolicy policy;
  // Tests: no workers; the test drives RunOnce() itself, making batch formation a
  // deterministic function of the queued requests.
  bool manual_dispatch = false;
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
  // Runs when the request completes (on a worker, the RunOnce caller, or the Submit/Stop
  // caller for refusals; never twice for the same request). Must not block for long — it
  // sits on the serving hot path.
  using Completion = std::function<void(const ServeResponse&)>;

  InferenceService(const ServeConfig& config, ModelLoader loader);
  ~InferenceService();

  InferenceService(const InferenceService&) = delete;
  InferenceService& operator=(const InferenceService&) = delete;

  // Starts the workers on the global pool as it is now (no-op under manual_dispatch).
  void Start();
  // Stops the workers — each finishes the batch it runs, completing its requests — and
  // fails any still-queued request with kResourceExhausted ("shutting down") so no
  // client is left waiting. Idempotent.
  void Stop();

  // Thread-safe asynchronous intake. Admission control rejects (with an immediate
  // error completion) when the total queue depth is at max_queue_depth.
  void Submit(ServeRequest request, Completion done);

  // The manual-dispatch pass: forms at most one batch per model with pending work whose
  // machine 0 is free, in model-name order, and runs them one after another on machine 0
  // on the calling thread. Returns the number of requests completed. Built from the same
  // claim, form, execute and release steps as the workers.
  size_t RunOnce();

  // Requests queued but not yet dispatched.
  size_t QueueDepth() const;
  // Drains the batch journal (record_batches mode).
  std::vector<BatchRecord> TakeBatchRecords();

  ModelCache& cache() { return cache_; }
  const ServeConfig& config() const { return config_; }

 private:
  // Handles of one tenant's serve.tenant.<name>.* metrics, made at its first request.
  struct TenantMetrics {
    explicit TenantMetrics(const std::string& tenant);
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
  // Per-model admission queue: per-tenant FIFOs plus the round-robin state that keeps
  // batch formation fair across tenants, and which of the model's machines are busy.
  struct ModelQueue {
    std::vector<std::string> tenant_order;  // first-arrival order, stable
    std::map<std::string, std::deque<Pending>> by_tenant;
    size_t rr_cursor = 0;  // index into tenant_order to start the next batch from
    size_t depth = 0;
    // busy[k]: a batch holds machine k. One slot per machine the model has: 1 until
    // machine 0's holder forks a replica, and 1 again once the cache has evicted it.
    std::vector<bool> busy = std::vector<bool>(1, false);
    size_t idle = 1;  // machines not busy

    bool empty() const { return depth == 0; }
    bool claimable() const { return depth > 0 && idle > 0; }
  };
  struct Batch {
    std::string model;
    std::vector<Pending> requests;
  };
  // A batch's hold on one machine of its model, from claim to release.
  struct Claim {
    ModelQueue* queue = nullptr;
    size_t machine = 0;
    // Pinned at claim. Null when the model was not resident: the holder of machine 0
    // loads it.
    ModelCache::Entry* entry = nullptr;
    Batch batch;
  };

  // A worker: claim, form, (fork,) execute, release, until Stop. `slots` is how many
  // of the W workers it stands for: 1, or W when the pool ran the ParallelFor in-line.
  void WorkerLoop(size_t slots);
  // The next model after the last claimed one (name order, wrapping) that is claimable.
  std::map<std::string, ModelQueue>::iterator FindClaimableLocked();
  // Claims the lowest free machine of a claimable `model`, pins its cache entry and forms
  // the batch. A model the cache has evicted since its last claim restarts from one
  // machine here.
  Claim ClaimLocked(const std::string& model, ModelQueue& mq);
  // Pops up to max_batch requests from `mq` round-robin across tenants (mutex held).
  Batch FormBatchLocked(const std::string& model, ModelQueue& mq, size_t machine);
  // Loads the model when needed and runs the batch on the claimed machine, completing
  // every request.
  void ExecuteClaim(Claim& claim);
  // Frees the claimed machine and unpins its entry (mutex held).
  void ReleaseLocked(Claim& claim);
  void CompleteRequest(Pending& pending, const ServeResponse& response);

  ServeConfig config_;
  ModelCache cache_;

  LazyCounter accepted_;
  LazyCounter rejected_;
  LazyCounter completed_;
  LazyCounter failed_;
  LazyCounter batches_;
  LazyHistogram batch_size_;
  LazyHistogram latency_ms_;

  mutable std::mutex mutex_;
  std::condition_variable work_available_;
  std::map<std::string, ModelQueue> queues_;  // keyed by model name
  std::string last_claimed_;                  // the workers' round-robin cursor over models
  size_t total_depth_ = 0;
  std::map<std::string, TenantMetrics> tenants_;
  std::vector<BatchRecord> batch_records_;
  size_t machine_cap_ = 1;  // machines per model: the number of workers
  bool stopping_ = false;

  // Hosts the workers' ParallelFor, as one of them. The pool is held so that a
  // SetGlobalThreads while the service runs cannot destroy it under the workers.
  std::shared_ptr<ThreadPool> pool_;
  std::thread host_;
};

}  // namespace neuroc

#endif  // NEUROC_SRC_SERVE_SERVICE_H_
