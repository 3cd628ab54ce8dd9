#include "src/common/thread_pool.h"

#include <algorithm>
#include <cstdlib>
#include <memory>

namespace neuroc {

namespace {

// Set while a thread (worker or caller) executes a chunk body; nested ParallelFor calls from
// inside a body degrade to in-line execution instead of deadlocking on the pool.
thread_local bool t_inside_chunk = false;

std::unique_ptr<ThreadPool>& GlobalSlot() {
  static std::unique_ptr<ThreadPool> pool;
  return pool;
}

void RunInline(size_t begin, size_t end, const std::function<void(size_t, size_t)>& fn) {
  t_inside_chunk = true;
  fn(begin, end);
  t_inside_chunk = false;
}

}  // namespace

unsigned DefaultThreadCount() {
  if (const char* env = std::getenv("NEUROC_NUM_THREADS")) {
    char* end = nullptr;
    const unsigned long parsed = std::strtoul(env, &end, 10);
    if (end != env && parsed >= 1) {
      return static_cast<unsigned>(parsed);
    }
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

ThreadPool::ThreadPool(unsigned num_threads) : num_threads_(std::max(1u, num_threads)) {
  workers_.reserve(num_threads_ - 1);
  for (unsigned i = 0; i + 1 < num_threads_; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    shutdown_ = true;
  }
  wake_workers_.notify_all();
  for (std::thread& w : workers_) {
    w.join();
  }
}

void ThreadPool::ParallelFor(size_t begin, size_t end, size_t grain,
                             const std::function<void(size_t, size_t)>& fn) {
  if (end <= begin) {
    return;
  }
  grain = std::max<size_t>(1, grain);
  const size_t n = end - begin;
  if (workers_.empty() || n <= grain || t_inside_chunk) {
    RunInline(begin, end, fn);
    return;
  }
  // Chunk size: at least `grain`, and no more chunks than ~4 per worker so scheduling stays
  // cheap while stragglers can still be balanced.
  const size_t max_chunks = static_cast<size_t>(num_threads_) * 4;
  const size_t chunk = std::max(grain, (n + max_chunks - 1) / max_chunks);

  std::unique_lock<std::mutex> lock(mutex_);
  if (has_task_) {
    // Another caller's task holds the pool; replacing task_ under its running chunks
    // would strand both callers.
    lock.unlock();
    RunInline(begin, end, fn);
    return;
  }
  ++task_.generation;
  task_.fn = &fn;
  task_.begin = begin;
  task_.end = end;
  task_.grain = chunk;
  task_.next = begin;
  task_.in_flight = 0;
  has_task_ = true;
  // Wake only as many workers as there are chunks beyond the one the caller runs itself:
  // a worker woken with nothing left to claim costs a futex round trip — and, on an
  // oversubscribed host, a preemption of the very thread doing the work — for nothing.
  const size_t chunks = (n + chunk - 1) / chunk;
  const size_t helpers = std::min<size_t>(workers_.size(), chunks - 1);
  for (size_t i = 0; i < helpers; ++i) {
    wake_workers_.notify_one();
  }
  DrainTask(lock);
  task_done_.wait(lock, [this] { return task_.next >= task_.end && task_.in_flight == 0; });
  has_task_ = false;
}

void ThreadPool::DrainTask(std::unique_lock<std::mutex>& lock) {
  while (has_task_ && task_.next < task_.end) {
    const size_t b = task_.next;
    const size_t e = std::min(task_.end, b + task_.grain);
    task_.next = e;
    ++task_.in_flight;
    const std::function<void(size_t, size_t)>* fn = task_.fn;
    lock.unlock();
    t_inside_chunk = true;
    (*fn)(b, e);
    t_inside_chunk = false;
    lock.lock();
    --task_.in_flight;
    if (task_.next >= task_.end && task_.in_flight == 0) {
      task_done_.notify_all();
    }
  }
}

void ThreadPool::WorkerLoop() {
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    wake_workers_.wait(
        lock, [this] { return shutdown_ || (has_task_ && task_.next < task_.end); });
    if (shutdown_) {
      return;
    }
    DrainTask(lock);
  }
}

ThreadPool& ThreadPool::Global() {
  std::unique_ptr<ThreadPool>& slot = GlobalSlot();
  if (!slot) {
    slot = std::make_unique<ThreadPool>(DefaultThreadCount());
  }
  return *slot;
}

bool ThreadPool::InsideChunk() { return t_inside_chunk; }

void ThreadPool::SetGlobalThreads(unsigned num_threads) {
  GlobalSlot() = std::make_unique<ThreadPool>(
      num_threads == 0 ? DefaultThreadCount() : num_threads);
}

}  // namespace neuroc
