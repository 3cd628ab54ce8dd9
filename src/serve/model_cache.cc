#include "src/serve/model_cache.h"

#include <cmath>
#include <utility>

#include "src/common/check.h"
#include "src/core/model_serde.h"
#include "src/obs/registry.h"
#include "src/runtime/profile.h"

namespace neuroc {

ModelLoader DirectoryModelLoader(const std::string& dir) {
  return [dir](const std::string& name) -> StatusOr<NeuroCModel> {
    return LoadNeuroCModel(dir + "/" + name + ".ncm");
  };
}

ModelCache::ModelCache(const ModelCacheConfig& config, ModelLoader loader)
    : config_(config),
      loader_(std::move(loader)),
      hits_(MetricsRegistry::Global(), "serve.cache.hits"),
      misses_(MetricsRegistry::Global(), "serve.cache.misses"),
      evictions_(MetricsRegistry::Global(), "serve.cache.evictions"),
      load_failures_(MetricsRegistry::Global(), "serve.cache.load_failures") {
  NEUROC_CHECK(config_.capacity >= 1);
  NEUROC_CHECK(loader_ != nullptr);
}

ModelCache::Entry* ModelCache::Pin(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto it = entries_.begin(); it != entries_.end(); ++it) {
    if (it->name == name) {
      entries_.splice(entries_.begin(), entries_, it);  // move to MRU
      ++entries_.front().pins;
      hits_->Add(1);
      return &entries_.front();
    }
  }
  return nullptr;
}

StatusOr<ModelCache::Entry*> ModelCache::Load(const std::string& name) {
  misses_->Add(1);
  // Load outside the lock: deploy + watchdog calibration + the energy profile run are
  // milliseconds of simulation, and other models' batches must keep flowing meanwhile.
  StatusOr<NeuroCModel> model = loader_(name);
  if (!model.ok()) {
    load_failures_->Add(1);
    return model.status();
  }
  StatusOr<GuardedModel> guarded =
      GuardedModel::Create(std::move(*model), config_.machine, config_.policy);
  if (!guarded.ok()) {
    load_failures_->Add(1);
    return guarded.status();
  }
  // One profiled inference pins the per-request energy proxy. Cycles (and with them the
  // opcode mix) are input-independent by construction, so this zero-input estimate holds
  // for every request served by the model.
  const EnergyEstimate energy =
      EstimateEnergy(EnergyModel::CortexM0Proxy(), ProfileInference(guarded->deployed()));

  std::lock_guard<std::mutex> lock(mutex_);
  for (const Entry& e : entries_) {
    NEUROC_CHECK_MSG(e.name != name, "model cache: a resident model was loaded again");
  }
  entries_.push_front(Entry{name, std::move(*guarded),
                            static_cast<uint64_t>(std::llround(energy.total_pj)),
                            /*pins=*/1, {}});
  EvictOverflowLocked();
  return &entries_.front();
}

void ModelCache::Release(Entry* entry) {
  std::lock_guard<std::mutex> lock(mutex_);
  NEUROC_CHECK(entry->pins > 0);
  --entry->pins;
  if (entries_.size() > config_.capacity) {
    EvictOverflowLocked();  // an over-capacity entry was waiting on this pin
  }
}

GuardedModel& ModelCache::Machine(Entry* entry, size_t k) {
  std::lock_guard<std::mutex> lock(mutex_);
  NEUROC_CHECK(entry->pins > 0 && k <= entry->replicas.size());
  return k == 0 ? entry->model : *entry->replicas[k - 1];
}

size_t ModelCache::AddReplica(Entry* entry, GuardedModel replica) {
  std::lock_guard<std::mutex> lock(mutex_);
  NEUROC_CHECK(entry->pins > 0);
  entry->replicas.push_back(std::make_unique<GuardedModel>(std::move(replica)));
  return entry->replicas.size();
}

void ModelCache::EvictOverflowLocked() {
  while (entries_.size() > config_.capacity) {
    // LRU victim: the last unpinned entry. All-pinned over capacity is transient — the
    // releasing batch re-runs eviction.
    auto victim = entries_.end();
    for (auto it = entries_.begin(); it != entries_.end(); ++it) {
      if (it->pins == 0) {
        victim = it;  // keep scanning: later == less recently used
      }
    }
    if (victim == entries_.end()) {
      return;
    }
    evictions_->Add(1);
    entries_.erase(victim);
  }
}

size_t ModelCache::resident() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return entries_.size();
}

ModelCache::Entry* ModelCache::PeekForTest(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  for (Entry& e : entries_) {
    if (e.name == name) {
      return &e;
    }
  }
  return nullptr;
}

}  // namespace neuroc
