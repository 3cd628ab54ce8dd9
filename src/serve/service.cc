#include "src/serve/service.h"

#include <algorithm>
#include <cmath>
#include <iterator>

#include "src/common/check.h"
#include "src/common/thread_pool.h"
#include "src/core/model_serde.h"
#include "src/runtime/profile.h"

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

ModelLoader DirectoryModelLoader(const std::string& dir) {
  return [dir](const std::string& name) -> StatusOr<NeuroCModel> {
    return LoadNeuroCModel(dir + "/" + name + ".ncm");
  };
}

InferenceService::TenantMetrics::TenantMetrics(const std::string& scope)
    : requests(MetricsRegistry::Global(), scope + ".requests"),
      failures(MetricsRegistry::Global(), scope + ".failures"),
      latency_ms(MetricsRegistry::Global(), scope + ".latency_ms"),
      cycles(MetricsRegistry::Global(), scope + ".cycles") {}

InferenceService::InferenceService(const ServeConfig& config, ModelLoader loader)
    : config_(config),
      loader_(std::move(loader)),
      accepted_(MetricsRegistry::Global(), "serve.accepted"),
      rejected_(MetricsRegistry::Global(), "serve.rejected"),
      completed_(MetricsRegistry::Global(), "serve.completed"),
      failed_(MetricsRegistry::Global(), "serve.failed"),
      batches_(MetricsRegistry::Global(), "serve.batches"),
      batch_size_(MetricsRegistry::Global(), "serve.batch_size"),
      latency_ms_(MetricsRegistry::Global(), "serve.latency_ms"),
      hits_(MetricsRegistry::Global(), "serve.cache.hits"),
      misses_(MetricsRegistry::Global(), "serve.cache.misses"),
      evictions_(MetricsRegistry::Global(), "serve.cache.evictions"),
      load_failures_(MetricsRegistry::Global(), "serve.cache.load_failures") {
  NEUROC_CHECK(config_.max_batch >= 1);
  NEUROC_CHECK(config_.max_queue_depth >= 1);
  NEUROC_CHECK(config_.cache_capacity >= 1);
  NEUROC_CHECK(loader_ != nullptr);
}

InferenceService::~InferenceService() { Stop(); }

void InferenceService::Start() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (stopping_ || !workers_.empty()) {
    return;
  }
  machine_cap_ = ThreadPool::Global().num_threads();
  for (size_t i = 0; i < machine_cap_; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
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
    for (auto& [name, model] : models_) {
      for (auto& [tenant, q] : model.by_tenant) {
        for (Pending& p : q) {
          orphans.push_back(std::move(p));
        }
        q.clear();
      }
      model.depth = 0;
    }
    total_depth_ = 0;
  }
  work_available_.notify_all();
  for (std::thread& worker : workers_) {
    worker.join();  // after finishing its batch
  }
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
    auto scope = tenants_.find(request.tenant);
    if (scope == tenants_.end() && tenants_.size() < kMaxTenantScopes) {
      scope = tenants_.try_emplace(request.tenant, "serve.tenant." + request.tenant).first;
    }
    TenantMetrics& tenant = scope == tenants_.end() ? overflow_tenants_ : scope->second;
    tenant.requests->Add(1);
    Model& model = models_[request.model];
    auto [it, inserted] = model.by_tenant.try_emplace(request.tenant);
    if (inserted) {
      model.tenant_order.push_back(request.tenant);
    }
    pending.request = std::move(request);
    pending.done = std::move(done);
    pending.tenant = &tenant;
    it->second.push_back(std::move(pending));
    ++model.depth;
    ++total_depth_;
    // Wake a worker only when this request makes the model claimable. Had the model
    // queued requests already, a worker is on its way to them or every machine of the
    // model is busy and its holders claim again when they finish.
    claimable = model.depth == 1 && model.idle > 0;
  }
  if (claimable) {
    work_available_.notify_one();
  }
}

void InferenceService::WorkerLoop() {
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    auto next = models_.end();
    work_available_.wait(lock, [&] {
      return stopping_ || (next = FindClaimableLocked()) != models_.end();
    });
    if (stopping_) {
      return;
    }
    last_claimed_ = next->first;
    Model& model = next->second;
    Claim claim = ClaimLocked(next);
    // The holder of machine 0 forks when the backlog would otherwise wait for a busy
    // machine; forks made at load would only slow set-up, so a load claim never forks.
    const bool fork = claim.machine == 0 && claim.gm != nullptr && model.depth > 0 &&
                      model.idle == 0 && model.busy.size() < machine_cap_;
    // Pass the wake-up on: a worker that stays asleep while another model is claimable
    // would leave a core idle.
    const bool more = FindClaimableLocked() != models_.end();
    lock.unlock();
    if (more) {
      work_available_.notify_one();
    }
    // A fallback deployment is not forked: a replica must be indistinguishable from a
    // fresh load (GuardedModel::Fork checks it too).
    if (fork && claim.gm->active_encoding() == claim.gm->primary_encoding()) {
      auto replica = std::make_unique<GuardedModel>(claim.gm->Fork());
      lock.lock();
      model.machines.push_back(std::move(replica));
      model.busy.push_back(false);
      ++model.idle;
      lock.unlock();
      work_available_.notify_one();
    }
    ExecuteClaim(claim);
    lock.lock();
    Machines evicted = ReleaseLocked(claim);
    lock.unlock();
    evicted.clear();  // outside the lock, so Submit never waits on a machine's teardown
    // The batch's completions have just woken the connection threads that carry its
    // responses and bring the next requests. Where workers fill every core, those
    // threads would wait for the scheduler to preempt one, and that wait was the
    // closed loop's tail latency: give up the core before claiming again.
    std::this_thread::yield();
    lock.lock();
  }
}

InferenceService::ModelMap::iterator InferenceService::FindClaimableLocked() {
  const auto start = models_.upper_bound(last_claimed_);
  for (auto it = start; it != models_.end(); ++it) {
    if (it->second.claimable()) {
      return it;
    }
  }
  for (auto it = models_.begin(); it != start; ++it) {
    if (it->second.claimable()) {
      return it;
    }
  }
  return models_.end();
}

InferenceService::Claim InferenceService::ClaimLocked(ModelMap::iterator it) {
  Model& model = it->second;
  Claim claim;
  claim.model = it;
  // The lowest free machine: machine 0 whenever it is free, so its holder can fork.
  while (model.busy[claim.machine]) {
    ++claim.machine;
  }
  model.busy[claim.machine] = true;
  --model.idle;
  model.last_use = ++use_clock_;
  if (!model.machines.empty()) {
    hits_->Add(1);
    claim.gm = model.machines[claim.machine].get();
    claim.energy_pj = model.energy_pj;
  }
  claim.requests = FormBatchLocked(it, claim.machine);
  return claim;
}

std::vector<InferenceService::Pending> InferenceService::FormBatchLocked(
    ModelMap::iterator it, size_t machine) {
  Model& model = it->second;
  std::vector<Pending> batch;
  BatchRecord record;
  record.model = it->first;
  record.machine = machine;
  // Round-robin across tenant FIFOs starting at the cursor: one request per queued
  // tenant per lap, so a flooding tenant shares every batch it rides in. Every tenant in
  // tenant_order has requests, and one whose FIFO empties leaves it.
  size_t i = model.rr_cursor;
  while (batch.size() < config_.max_batch && model.depth > 0) {
    if (i >= model.tenant_order.size()) {
      i = 0;
    }
    const auto q = model.by_tenant.find(model.tenant_order[i]);
    const std::string& tenant = q->first;
    batch.push_back(std::move(q->second.front()));
    q->second.pop_front();
    --model.depth;
    --total_depth_;
    if (!record.per_tenant.empty() && record.per_tenant.back().first == tenant) {
      ++record.per_tenant.back().second;
    } else {
      record.per_tenant.emplace_back(tenant, 1);
    }
    if (q->second.empty()) {
      model.tenant_order.erase(model.tenant_order.begin() + static_cast<ptrdiff_t>(i));
      model.by_tenant.erase(q);
    } else {
      ++i;
    }
  }
  model.rr_cursor = i;
  if (config_.record_batches) {
    record.size = batch.size();
    batch_records_.push_back(std::move(record));
  }
  return batch;
}

InferenceService::Machines InferenceService::ReleaseLocked(Claim& claim) {
  if (claim.model != models_.end()) {
    Model& model = claim.model->second;
    model.busy[claim.machine] = false;
    ++model.idle;
  }
  return EvictOverflowLocked();  // the least-recently-used model may have waited on it
}

InferenceService::Machines InferenceService::EvictOverflowLocked() {
  Machines evicted;
  while (resident_ > config_.cache_capacity) {
    auto victim = models_.end();
    for (auto it = models_.begin(); it != models_.end(); ++it) {
      if (!it->second.machines.empty() &&
          (victim == models_.end() || it->second.last_use < victim->second.last_use)) {
        victim = it;
      }
    }
    Model& model = victim->second;
    if (model.idle < model.busy.size()) {
      break;  // still running a batch, whose release evicts it
    }
    evictions_->Add(1);
    std::move(model.machines.begin(), model.machines.end(), std::back_inserter(evicted));
    model.machines.clear();
    model.busy.assign(1, false);
    model.idle = 1;
    --resident_;
  }
  return evicted;
}

Status InferenceService::LoadClaim(Claim& claim) {
  misses_->Add(1);
  // Load outside the lock: deploy + watchdog calibration + the energy profile run are
  // milliseconds of simulation, and other models' batches must keep flowing meanwhile.
  StatusOr<NeuroCModel> host = loader_(claim.model->first);
  StatusOr<GuardedModel> guarded =
      host.ok() ? GuardedModel::Create(std::move(*host), config_.machine, config_.policy)
                : StatusOr<GuardedModel>(host.status());
  if (!guarded.ok()) {
    load_failures_->Add(1);
    // The claim holds the model's only slot, so no other claim refers to its record:
    // erase it, and fail what queued behind the load with the load's status. The next
    // request for the name makes a new record and tries the load again.
    std::vector<Pending> behind;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      Model& model = claim.model->second;
      for (auto& [tenant, q] : model.by_tenant) {
        std::move(q.begin(), q.end(), std::back_inserter(behind));
      }
      total_depth_ -= model.depth;
      models_.erase(claim.model);
      claim.model = models_.end();
    }
    for (Pending& p : behind) {
      CompleteRequest(p, ErrorResponse(p.request, guarded.status()));
    }
    return guarded.status();
  }
  // One profiled inference pins the per-request energy proxy. Cycles (and with them the
  // opcode mix) are input-independent by construction, so this zero-input estimate holds
  // for every request served by the model.
  const EnergyEstimate energy =
      EstimateEnergy(EnergyModel::CortexM0Proxy(), ProfileInference(guarded->deployed()));
  auto machine = std::make_unique<GuardedModel>(std::move(*guarded));
  claim.gm = machine.get();
  claim.energy_pj = static_cast<uint64_t>(std::llround(energy.total_pj));

  Machines evicted;  // destroyed after `lock` is dropped
  std::lock_guard<std::mutex> lock(mutex_);
  Model& model = claim.model->second;
  NEUROC_CHECK_MSG(model.machines.empty(), "serve: a resident model was loaded again");
  model.machines.push_back(std::move(machine));
  model.energy_pj = claim.energy_pj;
  model.last_use = ++use_clock_;
  ++resident_;
  evicted = EvictOverflowLocked();
  return Status::Ok();
}

void InferenceService::ExecuteClaim(Claim& claim) {
  batches_->Add(1);
  batch_size_->Observe(static_cast<double>(claim.requests.size()));
  if (claim.gm == nullptr) {
    const Status loaded = LoadClaim(claim);
    if (!loaded.ok()) {
      for (Pending& p : claim.requests) {
        CompleteRequest(p, ErrorResponse(p.request, loaded));
      }
      return;
    }
  }
  GuardedModel& gm = *claim.gm;
  const size_t in_dim = gm.deployed().input_dim();

  // Length-checked inputs run batched on the one machine; misfits answer immediately.
  std::vector<std::vector<int8_t>> inputs;
  std::vector<Pending*> batched;
  for (Pending& p : claim.requests) {
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
      resp.energy_pj = claim.energy_pj;
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

size_t InferenceService::ModelRecordsForTest() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return models_.size();
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

GuardedModel* InferenceService::MachineForTest(const std::string& model, size_t k) {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = models_.find(model);
  if (it == models_.end() || k >= it->second.machines.size()) {
    return nullptr;
  }
  return it->second.machines[k].get();
}

}  // namespace neuroc
