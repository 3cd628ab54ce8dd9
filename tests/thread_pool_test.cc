// ThreadPool / ParallelFor semantics: chunk coverage and disjointness, grain behaviour,
// in-line degradation (single-threaded pool, tiny ranges, nested calls, a second caller)
// and global-pool resizing. The determinism story of every kernel in the repo rests on
// these properties.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/common/thread_pool.h"
#include "tests/test_util.h"

namespace neuroc {
namespace {

using testutil::GlobalThreadsGuard;

TEST(ThreadPoolTest, ChunksCoverRangeExactlyOnce) {
  GlobalThreadsGuard guard;
  for (unsigned threads : {1u, 2u, 4u}) {
    ThreadPool::SetGlobalThreads(threads);
    for (size_t n : {size_t{1}, size_t{7}, size_t{64}, size_t{1000}}) {
      for (size_t grain : {size_t{1}, size_t{8}, size_t{2000}}) {
        std::vector<std::atomic<int>> hits(n);
        for (auto& h : hits) {
          h.store(0);
        }
        ParallelFor(0, n, grain, [&](size_t b, size_t e) {
          for (size_t i = b; i < e; ++i) {
            hits[i].fetch_add(1);
          }
        });
        for (size_t i = 0; i < n; ++i) {
          EXPECT_EQ(hits[i].load(), 1) << "threads=" << threads << " n=" << n
                                       << " grain=" << grain << " i=" << i;
        }
      }
    }
  }
}

TEST(ThreadPoolTest, ChunksAreDisjointOrderedRanges) {
  GlobalThreadsGuard guard;
  ThreadPool::SetGlobalThreads(4);
  std::mutex mu;
  std::vector<std::pair<size_t, size_t>> chunks;
  const size_t n = 500;
  const size_t grain = 16;
  ParallelFor(0, n, grain, [&](size_t b, size_t e) {
    std::lock_guard<std::mutex> lock(mu);
    chunks.emplace_back(b, e);
  });
  std::sort(chunks.begin(), chunks.end());
  ASSERT_FALSE(chunks.empty());
  EXPECT_EQ(chunks.front().first, 0u);
  EXPECT_EQ(chunks.back().second, n);
  size_t covered = 0;
  for (size_t c = 0; c < chunks.size(); ++c) {
    EXPECT_LT(chunks[c].first, chunks[c].second);
    if (c > 0) {
      EXPECT_EQ(chunks[c].first, chunks[c - 1].second) << "gap or overlap between chunks";
    }
    covered += chunks[c].second - chunks[c].first;
  }
  EXPECT_EQ(covered, n);
  // Every chunk holds at least `grain` indices, so there are at most n/grain of them.
  EXPECT_LE(chunks.size(), n / grain);
}

TEST(ThreadPoolTest, SmallRangeRunsInlineAsOneChunk) {
  GlobalThreadsGuard guard;
  ThreadPool::SetGlobalThreads(4);
  const auto caller = std::this_thread::get_id();
  int calls = 0;
  ParallelFor(0, 10, /*grain=*/100, [&](size_t b, size_t e) {
    ++calls;
    EXPECT_EQ(b, 0u);
    EXPECT_EQ(e, 10u);
    EXPECT_EQ(std::this_thread::get_id(), caller);
  });
  EXPECT_EQ(calls, 1);
}

TEST(ThreadPoolTest, EmptyRangeNeverInvokesBody) {
  GlobalThreadsGuard guard;
  ThreadPool::SetGlobalThreads(4);
  int calls = 0;
  ParallelFor(5, 5, 1, [&](size_t, size_t) { ++calls; });
  ParallelFor(7, 3, 1, [&](size_t, size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
}

TEST(ThreadPoolTest, SingleThreadedPoolRunsOnCallingThread) {
  GlobalThreadsGuard guard;
  ThreadPool::SetGlobalThreads(1);
  const auto caller = std::this_thread::get_id();
  int calls = 0;
  ParallelFor(0, 10000, 1, [&](size_t, size_t) {
    ++calls;  // safe: everything runs in-line on this thread
    EXPECT_EQ(std::this_thread::get_id(), caller);
  });
  EXPECT_EQ(calls, 1);  // in-line mode gets the whole range as one chunk
}

TEST(ThreadPoolTest, NestedParallelForDegradesToInline) {
  GlobalThreadsGuard guard;
  ThreadPool::SetGlobalThreads(4);
  EXPECT_FALSE(ThreadPool::InsideChunk());
  std::atomic<int> outer_chunks{0};
  std::atomic<int> inner_total{0};
  ParallelFor(0, 64, 8, [&](size_t, size_t) {
    EXPECT_TRUE(ThreadPool::InsideChunk());
    outer_chunks.fetch_add(1);
    const auto me = std::this_thread::get_id();
    int inner_calls = 0;
    ParallelFor(0, 1000, 1, [&](size_t b, size_t e) {
      ++inner_calls;  // in-line: no concurrent access
      EXPECT_EQ(std::this_thread::get_id(), me);
      inner_total.fetch_add(static_cast<int>(e - b));
    });
    EXPECT_EQ(inner_calls, 1);  // nested call must not re-enter the pool
  });
  EXPECT_FALSE(ThreadPool::InsideChunk());
  EXPECT_EQ(inner_total.load(), outer_chunks.load() * 1000);
}

// The pool runs one task at a time. A caller that finds another caller's task in flight
// runs in-line instead of replacing that task under its running chunks (which left both
// callers waiting forever).
TEST(ThreadPoolTest, ConcurrentCallersEachCoverTheirRangeOnce) {
  GlobalThreadsGuard guard;
  ThreadPool::SetGlobalThreads(4);
  ThreadPool& pool = ThreadPool::Global();
  constexpr size_t kN = 64;
  constexpr int kCalls = 50;
  const auto caller = [&pool](int* bad_calls) {
    for (int call = 0; call < kCalls; ++call) {
      std::vector<std::atomic<int>> hits(kN);
      for (auto& h : hits) {
        h.store(0);
      }
      pool.ParallelFor(0, kN, 1, [&](size_t b, size_t e) {
        for (size_t i = b; i < e; ++i) {
          hits[i].fetch_add(1);
        }
        std::this_thread::yield();  // widen the window in which both calls are in flight
      });
      for (const auto& h : hits) {
        if (h.load() != 1) {
          ++*bad_calls;
          break;
        }
      }
    }
  };
  int bad[2] = {0, 0};
  std::thread a(caller, &bad[0]);
  std::thread b(caller, &bad[1]);
  a.join();
  b.join();
  EXPECT_EQ(bad[0], 0);
  EXPECT_EQ(bad[1], 0);
}

// A caller holding GlobalShared() keeps its pool, running chunks and all, across a
// SetGlobalThreads that replaces the global pool.
TEST(ThreadPoolTest, SharedHandleOutlivesGlobalResize) {
  GlobalThreadsGuard guard;
  ThreadPool::SetGlobalThreads(4);
  std::shared_ptr<ThreadPool> held = ThreadPool::GlobalShared();
  std::atomic<int> started{0};
  std::atomic<bool> release{false};
  std::atomic<int> finished{0};
  std::thread runner([&] {
    held->ParallelFor(0, 4, 1, [&](size_t b, size_t e) {
      started.fetch_add(static_cast<int>(e - b));
      while (!release.load()) {
        std::this_thread::yield();
      }
      finished.fetch_add(static_cast<int>(e - b));
    });
  });
  while (started.load() < 4) {
    std::this_thread::yield();
  }
  ThreadPool::SetGlobalThreads(2);
  EXPECT_EQ(ThreadPool::Global().num_threads(), 2u);
  EXPECT_NE(&ThreadPool::Global(), held.get());
  release.store(true);
  runner.join();
  EXPECT_EQ(finished.load(), 4);
  held.reset();  // the last handle: joins the replaced pool's idle workers
}

TEST(ThreadPoolTest, SetGlobalThreadsResizesAndZeroRestoresDefault) {
  GlobalThreadsGuard guard;
  ThreadPool::SetGlobalThreads(3);
  EXPECT_EQ(ThreadPool::Global().num_threads(), 3u);
  ThreadPool::SetGlobalThreads(1);
  EXPECT_EQ(ThreadPool::Global().num_threads(), 1u);
  ThreadPool::SetGlobalThreads(0);
  EXPECT_EQ(ThreadPool::Global().num_threads(), DefaultThreadCount());
}

TEST(ThreadPoolTest, DefaultThreadCountReadsEnvironment) {
  // DefaultThreadCount re-reads NEUROC_NUM_THREADS on every call; the pool itself is only
  // sized from it at creation / SetGlobalThreads(0) time.
  const char* prev = std::getenv("NEUROC_NUM_THREADS");
  const std::string saved = prev ? prev : "";
  setenv("NEUROC_NUM_THREADS", "3", 1);
  EXPECT_EQ(DefaultThreadCount(), 3u);
  setenv("NEUROC_NUM_THREADS", "bogus", 1);
  EXPECT_GE(DefaultThreadCount(), 1u);  // unparsable → hardware concurrency fallback
  if (prev) {
    setenv("NEUROC_NUM_THREADS", saved.c_str(), 1);
  } else {
    unsetenv("NEUROC_NUM_THREADS");
  }
}

}  // namespace
}  // namespace neuroc
