#include "src/serve/service.h"

#include <algorithm>

#include "src/common/check.h"

namespace neuroc {

namespace {

double MsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - t0)
      .count();
}

ServeResponse ErrorResponse(const ServeRequest& request, const Status& status) {
  ServeResponse resp;
  resp.request_id = request.request_id;
  resp.code = status.code();
  resp.message = status.message();
  return resp;
}

}  // namespace

InferenceService::TenantMetrics::TenantMetrics(const std::string& tenant)
    : requests(MetricsRegistry::Global(), "serve.tenant." + tenant + ".requests"),
      failures(MetricsRegistry::Global(), "serve.tenant." + tenant + ".failures"),
      latency_ms(MetricsRegistry::Global(), "serve.tenant." + tenant + ".latency_ms"),
      cycles(MetricsRegistry::Global(), "serve.tenant." + tenant + ".cycles") {}

InferenceService::InferenceService(const ServeConfig& config, ModelLoader loader)
    : config_(config),
      cache_(ModelCacheConfig{config.cache_capacity, config.machine, config.policy},
             std::move(loader)),
      accepted_(MetricsRegistry::Global(), "serve.accepted"),
      rejected_(MetricsRegistry::Global(), "serve.rejected"),
      completed_(MetricsRegistry::Global(), "serve.completed"),
      failed_(MetricsRegistry::Global(), "serve.failed"),
      batches_(MetricsRegistry::Global(), "serve.batches"),
      batch_size_(MetricsRegistry::Global(), "serve.batch_size"),
      latency_ms_(MetricsRegistry::Global(), "serve.latency_ms") {
  NEUROC_CHECK(config_.max_batch >= 1);
  NEUROC_CHECK(config_.max_queue_depth >= 1);
}

InferenceService::~InferenceService() { Stop(); }

void InferenceService::Start() {
  if (config_.manual_dispatch || host_.joinable()) {
    return;
  }
  pool_ = ThreadPool::GlobalShared();
  const size_t workers = pool_->num_threads();
  machine_cap_ = workers;
  // One chunk per worker, each running until Stop. When the pool is already running
  // another caller's task, the call runs in-line: one worker on the host thread.
  host_ = std::thread([this, workers] {
    pool_->ParallelFor(0, workers, 1, [this](size_t b, size_t e) { WorkerLoop(e - b); });
  });
}

void InferenceService::Stop() {
  std::vector<Pending> orphans;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (stopping_) {
      return;
    }
    stopping_ = true;
    // Fail queued-but-undispatched work now; leaving the completions unfired would hang
    // any client blocked on a response.
    for (auto& [model, mq] : queues_) {
      for (auto& [tenant, q] : mq.by_tenant) {
        for (Pending& p : q) {
          orphans.push_back(std::move(p));
        }
        q.clear();
      }
      mq.depth = 0;
    }
    total_depth_ = 0;
  }
  work_available_.notify_all();
  if (host_.joinable()) {
    host_.join();  // every worker has finished its batch and left the pool
  }
  pool_.reset();
  const Status shutdown(ErrorCode::kResourceExhausted, "serve: shutting down");
  for (Pending& p : orphans) {
    p.done(ErrorResponse(p.request, shutdown));
  }
}

void InferenceService::Submit(ServeRequest request, Completion done) {
  Pending pending;
  pending.submitted = std::chrono::steady_clock::now();
  bool claimable = false;
  {
    std::unique_lock<std::mutex> lock(mutex_);
    if (stopping_ || total_depth_ >= config_.max_queue_depth) {
      const bool shutting_down = stopping_;
      lock.unlock();
      rejected_->Add(1);
      const Status overload =
          shutting_down ? Status(ErrorCode::kResourceExhausted, "serve: shutting down")
                        : Status(ErrorCode::kResourceExhausted,
                                 "serve: admission queue full (" +
                                     std::to_string(config_.max_queue_depth) + ")");
      done(ErrorResponse(request, overload));
      return;
    }
    accepted_->Add(1);
    TenantMetrics& tenant = tenants_.try_emplace(request.tenant, request.tenant).first->second;
    tenant.requests->Add(1);
    ModelQueue& mq = queues_[request.model];
    auto [it, inserted] = mq.by_tenant.try_emplace(request.tenant);
    if (inserted) {
      mq.tenant_order.push_back(request.tenant);
    }
    pending.request = std::move(request);
    pending.done = std::move(done);
    pending.tenant = &tenant;
    it->second.push_back(std::move(pending));
    ++mq.depth;
    ++total_depth_;
    // Wake a worker only when this request makes the model claimable. Had the model
    // queued requests already, a worker is on its way to them or every machine of the
    // model is busy and its holders claim again when they finish.
    claimable = mq.depth == 1 && mq.idle > 0;
  }
  if (claimable) {
    work_available_.notify_one();
  }
}

void InferenceService::WorkerLoop(size_t slots) {
  std::unique_lock<std::mutex> lock(mutex_);
  machine_cap_ -= slots - 1;  // one worker standing in for `slots` of them
  for (;;) {
    auto next = queues_.end();
    work_available_.wait(lock, [&] {
      return stopping_ || (next = FindClaimableLocked()) != queues_.end();
    });
    if (stopping_) {
      return;
    }
    last_claimed_ = next->first;
    ModelQueue& mq = next->second;
    Claim claim = ClaimLocked(next->first, mq);
    // The holder of machine 0 forks when the backlog would otherwise wait for a busy
    // machine; forks made at load would only slow set-up, so a load claim never forks.
    const bool fork = claim.machine == 0 && claim.entry != nullptr && mq.depth > 0 &&
                      mq.idle == 0 && mq.busy.size() < machine_cap_;
    // Pass the wake-up on: a worker that stays asleep while another model is claimable
    // would leave a core idle.
    const bool more = FindClaimableLocked() != queues_.end();
    lock.unlock();
    if (more) {
      work_available_.notify_one();
    }
    if (fork) {
      GuardedModel& primary = cache_.Machine(claim.entry, 0);
      // A fallback deployment is not forked: a replica must be indistinguishable from a
      // fresh load (GuardedModel::Fork checks it too).
      if (primary.active_encoding() == primary.primary_encoding()) {
        GuardedModel replica = primary.Fork();
        lock.lock();
        const size_t k = cache_.AddReplica(claim.entry, std::move(replica));
        NEUROC_CHECK(k == mq.busy.size());
        mq.busy.push_back(false);
        ++mq.idle;
        lock.unlock();
        work_available_.notify_one();
      }
    }
    ExecuteClaim(claim);
    lock.lock();
    ReleaseLocked(claim);
    // The batch's completions have just woken the connection threads that carry its
    // responses and bring the next requests. Where workers fill every core, those
    // threads would wait for the scheduler to preempt one, and that wait was the
    // closed loop's tail latency: give up the core before claiming again.
    lock.unlock();
    std::this_thread::yield();
    lock.lock();
  }
}

std::map<std::string, InferenceService::ModelQueue>::iterator
InferenceService::FindClaimableLocked() {
  const auto start = queues_.upper_bound(last_claimed_);
  for (auto it = start; it != queues_.end(); ++it) {
    if (it->second.claimable()) {
      return it;
    }
  }
  for (auto it = queues_.begin(); it != start; ++it) {
    if (it->second.claimable()) {
      return it;
    }
  }
  return queues_.end();
}

InferenceService::Claim InferenceService::ClaimLocked(const std::string& model,
                                                      ModelQueue& mq) {
  Claim claim;
  claim.queue = &mq;
  claim.entry = cache_.Pin(model);
  if (claim.entry == nullptr && mq.busy.size() > 1) {
    // Evicted since its last claim, and its replicas with it. Every claim pins the
    // entry, so no batch can still hold one of those machines.
    NEUROC_CHECK(mq.idle == mq.busy.size());
    mq.busy.assign(1, false);
    mq.idle = 1;
  }
  // The lowest free machine: machine 0 whenever it is free, so its holder can fork.
  while (mq.busy[claim.machine]) {
    ++claim.machine;
  }
  mq.busy[claim.machine] = true;
  --mq.idle;
  claim.batch = FormBatchLocked(model, mq, claim.machine);
  return claim;
}

InferenceService::Batch InferenceService::FormBatchLocked(const std::string& model,
                                                          ModelQueue& mq, size_t machine) {
  Batch batch;
  batch.model = model;
  BatchRecord record;
  record.model = model;
  record.machine = machine;
  // Round-robin across tenant FIFOs starting at the cursor: one request per non-empty
  // tenant per lap, so a flooding tenant shares every batch it rides in.
  const size_t n = mq.tenant_order.size();
  size_t scanned_empty = 0;
  size_t i = mq.rr_cursor % std::max<size_t>(1, n);
  while (batch.requests.size() < config_.max_batch && scanned_empty < n && mq.depth > 0) {
    const std::string& tenant = mq.tenant_order[i];
    std::deque<Pending>& q = mq.by_tenant[tenant];
    if (q.empty()) {
      ++scanned_empty;
    } else {
      scanned_empty = 0;
      batch.requests.push_back(std::move(q.front()));
      q.pop_front();
      --mq.depth;
      --total_depth_;
      if (!record.per_tenant.empty() && record.per_tenant.back().first == tenant) {
        ++record.per_tenant.back().second;
      } else {
        record.per_tenant.emplace_back(tenant, 1);
      }
    }
    i = (i + 1) % n;
  }
  mq.rr_cursor = i;
  if (config_.record_batches) {
    record.size = batch.requests.size();
    batch_records_.push_back(std::move(record));
  }
  return batch;
}

void InferenceService::ReleaseLocked(Claim& claim) {
  ModelQueue& mq = *claim.queue;
  mq.busy[claim.machine] = false;
  ++mq.idle;
  if (claim.entry != nullptr) {
    cache_.Release(claim.entry);
  }
}

size_t InferenceService::RunOnce() {
  std::vector<Claim> claims;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    // queues_ is an ordered map, so the pass always visits models in name order —
    // batch formation is a deterministic function of queue contents.
    for (auto& [model, mq] : queues_) {
      if (!mq.empty() && !mq.busy[0]) {
        claims.push_back(ClaimLocked(model, mq));
      }
    }
  }
  size_t served = 0;
  for (Claim& claim : claims) {
    served += claim.batch.requests.size();
    ExecuteClaim(claim);
    std::lock_guard<std::mutex> lock(mutex_);
    ReleaseLocked(claim);
  }
  return served;
}

void InferenceService::ExecuteClaim(Claim& claim) {
  Batch& batch = claim.batch;
  batches_->Add(1);
  batch_size_->Observe(static_cast<double>(batch.requests.size()));
  if (claim.entry == nullptr) {
    StatusOr<ModelCache::Entry*> loaded = cache_.Load(batch.model);
    if (!loaded.ok()) {
      for (Pending& p : batch.requests) {
        CompleteRequest(p, ErrorResponse(p.request, loaded.status()));
      }
      return;
    }
    claim.entry = *loaded;
  }
  GuardedModel& gm = cache_.Machine(claim.entry, claim.machine);
  const size_t in_dim = gm.deployed().input_dim();

  // Length-checked inputs run batched on the one machine; misfits answer immediately.
  std::vector<std::vector<int8_t>> inputs;
  std::vector<Pending*> batched;
  for (Pending& p : batch.requests) {
    if (p.request.input.size() != in_dim) {
      CompleteRequest(
          p, ErrorResponse(p.request,
                           Status(ErrorCode::kInvalidArgument,
                                  "serve: input length " +
                                      std::to_string(p.request.input.size()) +
                                      " != model input dim " + std::to_string(in_dim))));
      continue;
    }
    inputs.push_back(p.request.input);
    batched.push_back(&p);
  }
  std::vector<uint64_t> cycles;
  const std::vector<GuardedResult> results = gm.PredictBatch(inputs, &cycles);
  for (size_t i = 0; i < results.size(); ++i) {
    const GuardedResult& gr = results[i];
    ServeResponse resp;
    resp.request_id = batched[i]->request.request_id;
    if (gr.ok) {
      resp.prediction = gr.prediction;
      resp.cycles = cycles[i];
      resp.energy_pj = claim.entry->energy_pj;
    } else {
      resp.code = gr.first_fault.code == ErrorCode::kOk ? ErrorCode::kInternal
                                                        : gr.first_fault.code;
      resp.message = "serve: inference failed permanently: " + gr.first_fault.message;
    }
    CompleteRequest(*batched[i], resp);
  }
}

void InferenceService::CompleteRequest(Pending& pending, const ServeResponse& response) {
  const double latency_ms = MsSince(pending.submitted);
  latency_ms_->Observe(latency_ms);
  (response.ok() ? completed_ : failed_)->Add(1);
  TenantMetrics& tenant = *pending.tenant;
  tenant.latency_ms->Observe(latency_ms);
  if (response.ok()) {
    tenant.cycles->Observe(static_cast<double>(response.cycles));
  } else {
    tenant.failures->Add(1);
  }
  pending.done(response);
}

size_t InferenceService::QueueDepth() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return total_depth_;
}

std::vector<BatchRecord> InferenceService::TakeBatchRecords() {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<BatchRecord> out;
  out.swap(batch_records_);
  return out;
}

}  // namespace neuroc
