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
    : config_(config), loader_(std::move(loader)) {
  NEUROC_CHECK(config_.capacity >= 1);
  NEUROC_CHECK(loader_ != nullptr);
}

StatusOr<ModelCache::Entry*> ModelCache::Acquire(const std::string& name) {
  MetricsRegistry& reg = MetricsRegistry::Global();
  std::unique_lock<std::mutex> lock(mutex_);
  for (auto it = entries_.begin(); it != entries_.end(); ++it) {
    if (it->name == name) {
      entries_.splice(entries_.begin(), entries_, it);  // move to MRU
      ++entries_.front().pins;
      reg.GetCounter("serve.cache.hits").Add(1);
      return &entries_.front();
    }
  }
  reg.GetCounter("serve.cache.misses").Add(1);

  // Load outside the lock: deploy + watchdog calibration + the energy profile run are
  // milliseconds of simulation, and other models' batches must keep flowing meanwhile.
  lock.unlock();
  StatusOr<NeuroCModel> model = loader_(name);
  if (!model.ok()) {
    reg.GetCounter("serve.cache.load_failures").Add(1);
    return model.status();
  }
  StatusOr<GuardedModel> guarded =
      GuardedModel::Create(std::move(*model), config_.machine, config_.policy);
  if (!guarded.ok()) {
    reg.GetCounter("serve.cache.load_failures").Add(1);
    return guarded.status();
  }
  // One profiled inference pins the per-request energy proxy. Cycles (and with them the
  // opcode mix) are input-independent by construction, so this zero-input estimate holds
  // for every request served by the model.
  const EnergyEstimate energy =
      EstimateEnergy(EnergyModel::CortexM0Proxy(), ProfileInference(guarded->deployed()));

  lock.lock();
  // A concurrent Acquire may have loaded the same name while we were unlocked; prefer
  // the resident entry and drop ours so a model never has two live machines.
  for (auto it = entries_.begin(); it != entries_.end(); ++it) {
    if (it->name == name) {
      entries_.splice(entries_.begin(), entries_, it);
      ++entries_.front().pins;
      return &entries_.front();
    }
  }
  entries_.push_front(Entry{name, std::move(*guarded),
                            static_cast<uint64_t>(std::llround(energy.total_pj)),
                            /*pins=*/1});
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
    MetricsRegistry::Global().GetCounter("serve.cache.evictions").Add(1);
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
