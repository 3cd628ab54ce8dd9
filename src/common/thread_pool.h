// Shared worker pool for the host-side training/evaluation hot paths.
//
// The deployment target is a single-core MCU, but the *trainer* runs on the host, where the
// batch dimension and the latent-weight rows parallelize trivially. All parallel loops in the
// repo go through ParallelFor so there is exactly one pool (no thread oversubscription when a
// layer forward nests inside batch evaluation) and one determinism story:
//
//   - Chunks are disjoint index ranges and every output element is written by exactly one
//     chunk, with the same internal iteration order regardless of worker count. Kernels built
//     on ParallelFor therefore produce bit-identical results for any NEUROC_NUM_THREADS,
//     including 1 (the fully deterministic in-line mode used by tests).
//   - Worker count comes from the NEUROC_NUM_THREADS environment variable when set (>= 1),
//     otherwise std::thread::hardware_concurrency().

#ifndef NEUROC_SRC_COMMON_THREAD_POOL_H_
#define NEUROC_SRC_COMMON_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace neuroc {

class ThreadPool {
 public:
  // Pool with `num_threads` total workers (the calling thread counts as one; `num_threads`
  // of 0 or 1 means no helper threads are spawned and every loop runs in-line).
  explicit ThreadPool(unsigned num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  unsigned num_threads() const { return num_threads_; }

  // Runs fn(chunk_begin, chunk_end) over disjoint chunks covering [begin, end). Each chunk
  // holds at least `grain` indices (except possibly the last), so tiny loops stay in-line.
  // The caller participates in the work and the call returns only when every chunk is done.
  // The pool runs one task at a time: a call from inside a ParallelFor body, or one that
  // finds another caller's task in flight (say, the serving workers, which hold the pool
  // for the life of the service), runs in-line as one chunk.
  void ParallelFor(size_t begin, size_t end, size_t grain,
                   const std::function<void(size_t, size_t)>& fn);

  // The process-wide pool used by the free ParallelFor below. Sized on first use from
  // NEUROC_NUM_THREADS / hardware_concurrency.
  static ThreadPool& Global();
  // The same pool as a shared handle, for a caller whose ParallelFor may still be running
  // when SetGlobalThreads replaces the global pool: the replaced pool lives until its
  // last handle is dropped.
  static std::shared_ptr<ThreadPool> GlobalShared();

  // True while the calling thread is executing a ParallelFor chunk body.
  static bool InsideChunk();

  // Resizes the global pool (benchmarks compare 1-vs-N in one process). Not safe while a
  // ParallelFor on the global pool is in flight, unless its caller holds GlobalShared().
  static void SetGlobalThreads(unsigned num_threads);

 private:
  struct Task {
    const std::function<void(size_t, size_t)>* fn = nullptr;
    size_t begin = 0;
    size_t end = 0;
    size_t grain = 1;
    size_t next = 0;        // next chunk start, guarded by mutex_
    size_t in_flight = 0;   // chunks currently running
    uint64_t generation = 0;
  };

  void WorkerLoop();
  // Claims and runs chunks of the current task until it is drained.
  void DrainTask(std::unique_lock<std::mutex>& lock);

  unsigned num_threads_;
  std::vector<std::thread> workers_;
  std::mutex mutex_;
  std::condition_variable wake_workers_;
  std::condition_variable task_done_;
  Task task_;
  bool has_task_ = false;
  bool shutdown_ = false;
};

// Worker count the global pool is created with: NEUROC_NUM_THREADS when set and >= 1,
// otherwise std::thread::hardware_concurrency() (at least 1).
unsigned DefaultThreadCount();

// Cost-based grain: minimum indices per chunk so that each chunk carries at least
// kParallelMinChunkOps elementary operations (one multiply-add, one float copy — same
// order of magnitude either way). Dispatching a chunk costs a mutex round trip plus
// condition-variable wakeups for sleeping workers, tens of microseconds end to end; a
// chunk below roughly half a million ops loses more to that dispatch than the extra cores
// return. The original fixed "32768 ops per chunk" grains produced exactly such chunks,
// which is why 4 threads trained *slower* than 1 at every density in
// BENCH_train_throughput.json. Loops whose whole iteration space carries fewer ops than
// one chunk run in-line (the ParallelFor wrapper short-circuits on `n <= grain`).
inline constexpr size_t kParallelMinChunkOps = size_t{1} << 19;

inline size_t GrainForOps(size_t ops_per_index) {
  return std::max<size_t>(1, kParallelMinChunkOps / std::max<size_t>(1, ops_per_index));
}

// Convenience wrapper over ThreadPool::Global().ParallelFor. A template so that loops which
// will run in-line anyway (single-threaded pool, fewer than `grain` indices, or nested
// inside another chunk body) call `fn` directly without type-erasing it into a
// std::function — the hot kernels issue tens of these calls per optimizer step, and the
// erased path costs an allocation plus an indirect call each time.
template <typename Fn>
void ParallelFor(size_t begin, size_t end, size_t grain, Fn&& fn) {
  if (end <= begin) {
    return;
  }
  ThreadPool& pool = ThreadPool::Global();
  if (pool.num_threads() <= 1 || end - begin <= std::max<size_t>(1, grain) ||
      ThreadPool::InsideChunk()) {
    // In-line: same single [begin, end) chunk the pool would run, minus the dispatch. The
    // pool is idle here, so a nested ParallelFor inside fn may still use it.
    fn(begin, end);
    return;
  }
  pool.ParallelFor(begin, end, grain, std::function<void(size_t, size_t)>(std::forward<Fn>(fn)));
}

}  // namespace neuroc

#endif  // NEUROC_SRC_COMMON_THREAD_POOL_H_
