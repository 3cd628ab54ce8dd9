#include "src/serve/load_gen.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <thread>

#include "src/common/check.h"
#include "src/common/rng.h"

namespace neuroc {

namespace {

uint64_t Fnv1a(const std::vector<uint8_t>& bytes) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (uint8_t b : bytes) {
    h ^= b;
    h *= 0x100000001b3ULL;
  }
  return h;
}

// Shared collector: latencies, totals, and the order-independent payload checksum.
struct Collector {
  explicit Collector(const LoadGenConfig& load_config) : config(load_config) {}

  void Record(uint64_t request_id, const ServeResponse& resp, double latency_ms) {
    std::lock_guard<std::mutex> lock(mutex);
    latencies.push_back(latency_ms);
    if (resp.ok()) {
      report.total_cycles += resp.cycles;
      report.total_energy_pj += resp.energy_pj;
    } else {
      ++report.failed;
    }
    if (request_id < config.checksum_prefix) {
      // XOR of per-request payload hashes: any completion order folds to the same value,
      // which is the whole point — only the payload bytes are pinned by the determinism
      // contract, not the scheduling.
      report.checksum ^= Fnv1a(EncodeResponsePayloadForChecksum(resp));
    }
    ++done;
    done_cv.notify_all();
  }

  static std::vector<uint8_t> EncodeResponsePayloadForChecksum(const ServeResponse& r) {
    std::vector<uint8_t> out;
    AppendResponsePayload(r, &out);
    return out;
  }

  void WaitFor(size_t n) {
    std::unique_lock<std::mutex> lock(mutex);
    done_cv.wait(lock, [&] { return done >= n; });
  }

  LoadGenReport Finish(double wall_ms) {
    std::lock_guard<std::mutex> lock(mutex);
    report.completed = latencies.size();
    report.wall_ms = wall_ms;
    if (wall_ms > 0.0) {
      report.achieved_per_sec = 1000.0 * static_cast<double>(report.completed) / wall_ms;
    }
    if (!latencies.empty()) {
      std::sort(latencies.begin(), latencies.end());
      const auto pct = [&](double p) {
        const size_t idx = std::min(
            latencies.size() - 1,
            static_cast<size_t>(p * static_cast<double>(latencies.size() - 1)));
        return latencies[idx];
      };
      report.p50_ms = pct(0.50);
      report.p99_ms = pct(0.99);
      double sum = 0.0;
      for (double v : latencies) {
        sum += v;
      }
      report.mean_ms = sum / static_cast<double>(latencies.size());
    }
    return report;
  }

  const LoadGenConfig& config;
  std::mutex mutex;
  std::condition_variable done_cv;
  size_t done = 0;
  std::vector<double> latencies;
  LoadGenReport report;
};

}  // namespace

ServeRequest MakeLoadGenRequest(const LoadGenConfig& config, uint64_t index) {
  NEUROC_CHECK(!config.models.empty() && !config.tenants.empty());
  ServeRequest req;
  req.request_id = index;
  req.model = config.models[index % config.models.size()];
  req.tenant = config.tenants[index % config.tenants.size()];
  Rng rng(config.seed * 0x9e3779b97f4a7c15ULL + index);
  req.input.resize(config.input_dim);
  for (int8_t& v : req.input) {
    v = static_cast<int8_t>(rng.NextInt(-128, 127));
  }
  return req;
}

LoadGenReport RunClosedLoop(InferenceService& service, const LoadGenConfig& config) {
  Collector collector(config);
  const size_t clients = std::max<size_t>(1, config.clients);
  const auto t0 = std::chrono::steady_clock::now();
  std::vector<std::thread> workers;
  workers.reserve(clients);
  // Client c owns the request indices {c, c+clients, c+2*clients, ...}; the union over
  // clients covers [0, total) for any client count, so the checksum prefix is always
  // fully requested.
  for (size_t c = 0; c < clients; ++c) {
    workers.emplace_back([&, c] {
      for (uint64_t i = c; i < config.total_requests; i += clients) {
        ServeRequest req = MakeLoadGenRequest(config, i);
        std::mutex m;
        std::condition_variable cv;
        bool got = false;
        const auto sent = std::chrono::steady_clock::now();
        service.Submit(std::move(req), [&](const ServeResponse& resp) {
          const double ms =
              std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() -
                                                        sent)
                  .count();
          collector.Record(i, resp, ms);
          std::lock_guard<std::mutex> lock(m);
          got = true;
          cv.notify_one();
        });
        std::unique_lock<std::mutex> lock(m);
        cv.wait(lock, [&] { return got; });
      }
    });
  }
  for (std::thread& w : workers) {
    w.join();
  }
  const double wall_ms =
      std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - t0)
          .count();
  return collector.Finish(wall_ms);
}

LoadGenReport RunOpenLoop(InferenceService& service, const LoadGenConfig& config) {
  NEUROC_CHECK(config.offered_qps > 0.0);
  Collector collector(config);
  const auto t0 = std::chrono::steady_clock::now();
  const double interval_ns = 1e9 / config.offered_qps;
  for (uint64_t i = 0; i < config.total_requests; ++i) {
    const auto due =
        t0 + std::chrono::nanoseconds(static_cast<int64_t>(interval_ns * static_cast<double>(i)));
    std::this_thread::sleep_until(due);  // no-op once the service falls behind
    ServeRequest req = MakeLoadGenRequest(config, i);
    const auto sent = std::chrono::steady_clock::now();
    service.Submit(std::move(req), [&collector, i, sent](const ServeResponse& resp) {
      const double ms =
          std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() -
                                                    sent)
              .count();
      collector.Record(i, resp, ms);
    });
  }
  collector.WaitFor(config.total_requests);
  const double wall_ms =
      std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - t0)
          .count();
  return collector.Finish(wall_ms);
}

}  // namespace neuroc
