// LRU cache of deployed models for the serving layer. Each entry owns the loaded
// GuardedModel (machine 0: deployed machine + watchdog + recovery ladder) plus the
// per-inference energy proxy profiled once at load, and grows replica machines — forks of
// machine 0 (GuardedModel::Fork) — when the service finds one model's backlog waiting on
// busy machines. Entries are pinned while a batch executes on any of their machines, so
// eviction can never free a machine another worker is driving; eviction victims are the
// least-recently-used unpinned entries, and eviction drops every machine of the entry. A
// reload after eviction goes through the same loader and starts again from one machine.
// Any flash corruption a cached machine picks up mid-service is healed by GuardedModel's
// scrub-and-retry rungs on the next request — the cache never needs a repair path.
//
// Which machine a batch runs on is the service's decision (InferenceService tracks the
// busy ones); the cache stores the machines and keeps their entry resident.
//
// Cache traffic is counted in the global MetricsRegistry: serve.cache.{hits,misses,
// evictions,load_failures}.

#ifndef NEUROC_SRC_SERVE_MODEL_CACHE_H_
#define NEUROC_SRC_SERVE_MODEL_CACHE_H_

#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/obs/registry.h"
#include "src/runtime/recovery.h"
#include "src/sim/machine.h"

namespace neuroc {

struct ModelCacheConfig {
  size_t capacity = 4;  // max resident models; >= 1
  MachineConfig machine;
  RecoveryPolicy policy;
};

// Resolves a model name to a freshly loaded host model (e.g. <dir>/<name>.ncm, or an
// in-memory registry in tests/benches). Must be pure: same name -> same model bytes.
using ModelLoader = std::function<StatusOr<NeuroCModel>(const std::string& name)>;

// Loader over a directory of v2 CRC model images: name -> <dir>/<name>.ncm.
ModelLoader DirectoryModelLoader(const std::string& dir);

class ModelCache {
 public:
  struct Entry {
    std::string name;
    GuardedModel model;      // machine 0, as loaded
    uint64_t energy_pj = 0;  // per-inference energy proxy, profiled once at load
    int pins = 0;            // in-flight batches executing on any of the machines
    // Machines 1.. : forks of machine 0, added by AddReplica. Read through Machine().
    std::vector<std::unique_ptr<GuardedModel>> replicas;
  };

  ModelCache(const ModelCacheConfig& config, ModelLoader loader);

  // Pins and returns the resident entry for `name` (a hit), or returns nullptr when it is
  // not resident. Never loads.
  Entry* Pin(const std::string& name);
  // Loads `name` (a miss) and returns its new entry pinned, evicting the LRU unpinned
  // entries beyond capacity. At most one load of a name may be in flight, and only while
  // the name is not resident. Load failures are structured (kIoError/kMalformedImage/
  // kResourceExhausted from the loader or deploy), never aborts.
  StatusOr<Entry*> Load(const std::string& name);
  void Release(Entry* entry);

  // Machine `k` of a pinned entry: 0 is `model`, k >= 1 is replica k.
  GuardedModel& Machine(Entry* entry, size_t k);
  // Appends `replica` to a pinned entry and returns its machine index.
  size_t AddReplica(Entry* entry, GuardedModel replica);

  // Entries currently resident (test/stats hook).
  size_t resident() const;
  // Unlocked peek used by tests to reach the deployed machine (e.g. to inject faults).
  // The entry pointer stays valid until the entry is evicted.
  Entry* PeekForTest(const std::string& name);

 private:
  // Evicts unpinned LRU entries until the cache fits capacity. Caller holds mutex_.
  void EvictOverflowLocked();

  ModelCacheConfig config_;
  ModelLoader loader_;
  LazyCounter hits_;
  LazyCounter misses_;
  LazyCounter evictions_;
  LazyCounter load_failures_;
  mutable std::mutex mutex_;
  // Front = most recently used. std::list keeps Entry addresses stable across splices
  // and unrelated evictions (pinned entries are pointed to by running batches).
  std::list<Entry> entries_;
};

}  // namespace neuroc

#endif  // NEUROC_SRC_SERVE_MODEL_CACHE_H_
