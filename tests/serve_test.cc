// The serving layer under a deterministic, in-process load harness: wire-frame codecs,
// batching decisions, tenant fairness, the thread-count byte-identity contract, the
// socketpair end-to-end path, LRU cache eviction/reload, admission control, shutdown
// semantics, and the fault path (mid-service corruption healed by the recovery ladder).
//
// Scheduling-sensitive checks queue their requests before starting a one-worker service,
// so batch formation is a pure function of the queued requests; the concurrency-heavy
// cases live in serve_soak_test.cc.

#include <sys/socket.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <filesystem>
#include <functional>
#include <iterator>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "src/obs/json_writer.h"
#include "src/obs/registry.h"
#include "src/serve/frame.h"
#include "src/serve/load_gen.h"
#include "src/serve/server.h"
#include "src/serve/service.h"
#include "src/sim/fault_injector.h"
#include "tests/test_util.h"

namespace neuroc {
namespace {

using testutil::FakeClient;
using testutil::GlobalThreadsGuard;
using testutil::MakeTestModel;
using testutil::TestModelSpec;

constexpr size_t kInDim = 16;

TestModelSpec SmallSpec() {
  TestModelSpec spec;
  spec.dims = {kInDim, 12, 10};
  spec.density = 0.3;
  return spec;
}

// In-memory model registry: name -> seed. Unknown names fail like a missing file.
ModelLoader TestLoader(std::map<std::string, uint64_t> seeds) {
  return [seeds = std::move(seeds)](const std::string& name) -> StatusOr<NeuroCModel> {
    const auto it = seeds.find(name);
    if (it == seeds.end()) {
      return Status(ErrorCode::kIoError, "no such model: " + name);
    }
    return MakeTestModel(it->second, SmallSpec());
  };
}

ServeRequest MakeRequest(uint64_t id, const std::string& tenant, const std::string& model,
                         uint64_t input_seed) {
  ServeRequest req;
  req.request_id = id;
  req.tenant = tenant;
  req.model = model;
  Rng rng(input_seed);
  req.input.resize(kInDim);
  for (int8_t& v : req.input) {
    v = static_cast<int8_t>(rng.NextInt(-128, 127));
  }
  return req;
}

uint64_t CounterValue(const char* name) {
  return MetricsRegistry::Global().GetCounter(name).value();
}

// --- frame codec ---------------------------------------------------------------------

TEST(FrameTest, RequestRoundTrip) {
  const ServeRequest req = MakeRequest(42, "alice", "digits", 7);
  std::vector<uint8_t> payload;
  AppendRequestPayload(req, &payload);
  const StatusOr<ServeRequest> back = DecodeRequestPayload(payload);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back->request_id, req.request_id);
  EXPECT_EQ(back->tenant, req.tenant);
  EXPECT_EQ(back->model, req.model);
  EXPECT_EQ(back->input, req.input);
}

TEST(FrameTest, ResponseRoundTrip) {
  ServeResponse resp;
  resp.request_id = 99;
  resp.code = ErrorCode::kInvalidArgument;
  resp.prediction = -1;
  resp.cycles = 123456;
  resp.energy_pj = 987654;
  resp.message = "serve: input length 3 != model input dim 16";
  std::vector<uint8_t> payload;
  AppendResponsePayload(resp, &payload);
  const StatusOr<ServeResponse> back = DecodeResponsePayload(payload);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back->request_id, resp.request_id);
  EXPECT_EQ(back->code, resp.code);
  EXPECT_EQ(back->cycles, resp.cycles);
  EXPECT_EQ(back->energy_pj, resp.energy_pj);
  EXPECT_EQ(back->message, resp.message);
}

TEST(FrameTest, DecoderRejectsTruncationTrailingAndBadMagic) {
  const ServeRequest req = MakeRequest(1, "t", "m", 3);
  std::vector<uint8_t> payload;
  AppendRequestPayload(req, &payload);

  for (size_t keep : {size_t{0}, size_t{3}, size_t{11}, payload.size() - 1}) {
    const std::vector<uint8_t> cut(payload.begin(),
                                   payload.begin() + static_cast<ptrdiff_t>(keep));
    const StatusOr<ServeRequest> r = DecodeRequestPayload(cut);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), ErrorCode::kMalformedImage);
  }

  std::vector<uint8_t> padded = payload;
  padded.push_back(0xAB);
  EXPECT_FALSE(DecodeRequestPayload(padded).ok());

  std::vector<uint8_t> bad_magic = payload;
  bad_magic[0] ^= 0xFF;
  EXPECT_FALSE(DecodeRequestPayload(bad_magic).ok());
}

TEST(FrameTest, ReaderReassemblesSplitFramesAndPoisonsOnOversizedLength) {
  const ServeRequest req = MakeRequest(5, "t", "m", 9);
  const std::vector<uint8_t> frame = EncodeRequestFrame(req);
  std::vector<uint8_t> payload;
  AppendRequestPayload(req, &payload);

  // Two frames, fed one byte at a time, must pop exactly two identical payloads.
  FrameReader reader;
  std::vector<std::vector<uint8_t>> got;
  for (int copy = 0; copy < 2; ++copy) {
    for (uint8_t b : frame) {
      reader.Feed(std::span<const uint8_t>(&b, 1));
      std::vector<uint8_t> out;
      StatusOr<bool> next = reader.Next(&out);
      ASSERT_TRUE(next.ok());
      if (*next) {
        got.push_back(std::move(out));
      }
    }
  }
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0], payload);
  EXPECT_EQ(got[1], payload);

  // An oversized declared length poisons permanently, even for valid bytes after it.
  FrameReader poisoned;
  const uint32_t huge = kMaxFramePayloadBytes + 1;
  uint8_t hdr[4];
  std::memcpy(hdr, &huge, 4);
  poisoned.Feed(hdr);
  std::vector<uint8_t> out;
  StatusOr<bool> next = poisoned.Next(&out);
  ASSERT_FALSE(next.ok());
  EXPECT_EQ(next.status().code(), ErrorCode::kResourceExhausted);
  poisoned.Feed(frame);
  EXPECT_FALSE(poisoned.Next(&out).ok());
}

// --- harness ------------------------------------------------------------------------

// Holds the threads that wait on it (a completion, and with it the worker running it, or
// a load) until opened, counting them as they arrive.
class Gate {
 public:
  void Open() {
    std::lock_guard<std::mutex> lock(mu_);
    open_ = true;
    cv_.notify_all();
  }
  void Wait() {
    std::unique_lock<std::mutex> lock(mu_);
    ++arrived_;
    cv_.notify_all();
    cv_.wait(lock, [this] { return open_; });
  }
  // Blocks until `n` threads have reached Wait.
  void WaitForArrivals(size_t n) {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return arrived_ >= n; });
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool open_ = false;
  size_t arrived_ = 0;
};

// The completions of a live service, recorded from whichever thread fires them.
class Completions {
 public:
  // Records request `id`'s response after running `hold` on the completing thread.
  InferenceService::Completion For(uint64_t id, std::function<void()> hold = nullptr) {
    return [this, id, hold = std::move(hold)](const ServeResponse& r) {
      if (hold) {
        hold();
      }
      std::lock_guard<std::mutex> lock(mu_);
      responses_[id] = r;
      ++counts_[id];
      ++total_;
      cv_.notify_all();
    };
  }
  void WaitForTotal(size_t n) {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return total_ >= n; });
  }
  // Encoded response payloads by request id.
  std::map<uint64_t, std::vector<uint8_t>> payloads() const {
    std::map<uint64_t, std::vector<uint8_t>> out;
    for (const auto& [id, r] : responses()) {
      AppendResponsePayload(r, &out[id]);
    }
    return out;
  }
  std::map<uint64_t, ServeResponse> responses() const {
    std::lock_guard<std::mutex> lock(mu_);
    return responses_;
  }
  std::map<uint64_t, int> counts() const {
    std::lock_guard<std::mutex> lock(mu_);
    return counts_;
  }

 private:
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::map<uint64_t, ServeResponse> responses_;
  std::map<uint64_t, int> counts_;
  size_t total_ = 0;
};

void ExpectAllOk(const Completions& done) {
  for (const auto& [id, r] : done.responses()) {
    EXPECT_TRUE(r.ok()) << "request " << id << ": " << r.message;
  }
}

// Submits probes from request `id` on until one is refused as shutting down, which
// means Stop has taken the queue. Returns that probe's id.
uint64_t ProbeUntilStopped(InferenceService& service, Completions& done, uint64_t id,
                           const std::string& model) {
  for (;; ++id) {
    service.Submit(MakeRequest(id, "probe", model, 1700), done.For(id));
    const std::map<uint64_t, ServeResponse> responses = done.responses();
    const auto it = responses.find(id);
    if (it != responses.end() && it->second.message == "serve: shutting down") {
      return id;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
}

// Polls `done` every millisecond for up to ten seconds.
bool Eventually(const std::function<bool()>& done) {
  for (int tries = 0; tries < 10000; ++tries) {
    if (done()) {
      return true;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return done();
}

// --- batching & fairness -------------------------------------------------------------

// The scheduling checks queue their requests before Start() on a one-worker service,
// which then forms its batches from those queues in a deterministic order.
ServeConfig BatchConfig(size_t max_batch = 4) {
  ServeConfig cfg;
  cfg.max_batch = max_batch;
  cfg.record_batches = true;
  return cfg;
}

// Tenant -> requests in one recorded batch.
std::map<std::string, size_t> TenantCounts(const BatchRecord& batch) {
  std::map<std::string, size_t> counts;
  for (const auto& [tenant, n] : batch.per_tenant) {
    counts[tenant] += n;
  }
  return counts;
}

TEST(ServeBatchingTest, FillsBatchesUpToMaxBatch) {
  GlobalThreadsGuard guard;
  ThreadPool::SetGlobalThreads(1);
  Completions done;
  Gate first;
  InferenceService service(BatchConfig(4), TestLoader({{"m", 11}}));
  for (uint64_t i = 0; i < 5; ++i) {
    service.Submit(MakeRequest(i, "a", "m", 100 + i),
                   i == 0 ? done.For(i, [&first] { first.Wait(); }) : done.For(i));
  }
  EXPECT_EQ(service.QueueDepth(), 5u);

  service.Start();
  // The first batch took four requests; its first completion holds the only worker.
  first.WaitForArrivals(1);
  EXPECT_EQ(service.QueueDepth(), 1u);
  first.Open();
  done.WaitForTotal(5);
  service.Stop();

  const std::vector<BatchRecord> batches = service.TakeBatchRecords();
  ASSERT_EQ(batches.size(), 2u);
  EXPECT_EQ(batches[0].size, 4u);
  EXPECT_EQ(batches[1].size, 1u);
  const std::map<uint64_t, ServeResponse> responses = done.responses();
  ASSERT_EQ(responses.size(), 5u);
  for (const auto& [id, r] : responses) {
    EXPECT_TRUE(r.ok()) << r.message;
    EXPECT_GT(r.cycles, 0u);
    EXPECT_GT(r.energy_pj, 0u);
  }
}

TEST(ServeBatchingTest, RoundRobinSharesBatchesAcrossTenants) {
  GlobalThreadsGuard guard;
  ThreadPool::SetGlobalThreads(1);
  Completions done;
  InferenceService service(BatchConfig(4), TestLoader({{"m", 12}}));
  // Tenant a floods 6 requests, tenant b sends 2: the first batch must carry both.
  for (uint64_t i = 0; i < 6; ++i) {
    service.Submit(MakeRequest(i, "a", "m", 200 + i), done.For(i));
  }
  for (uint64_t i = 6; i < 8; ++i) {
    service.Submit(MakeRequest(i, "b", "m", 200 + i), done.For(i));
  }
  service.Start();
  done.WaitForTotal(8);
  service.Stop();

  const std::vector<BatchRecord> batches = service.TakeBatchRecords();
  ASSERT_EQ(batches.size(), 2u);
  // Round-robin pop order: a,b,a,b.
  EXPECT_EQ(TenantCounts(batches[0]),
            (std::map<std::string, size_t>{{"a", 2}, {"b", 2}}));
  // Second batch: b is drained, a gets the full batch.
  EXPECT_EQ(TenantCounts(batches[1]), (std::map<std::string, size_t>{{"a", 4}}));
}

TEST(ServeBatchingTest, ModelsTakeTurnsInNameOrder) {
  GlobalThreadsGuard guard;
  ThreadPool::SetGlobalThreads(1);
  Completions done;
  InferenceService service(BatchConfig(4), TestLoader({{"m1", 13}, {"m2", 14}}));
  for (uint64_t i = 0; i < 4; ++i) {
    service.Submit(MakeRequest(i, "a", i % 2 ? "m1" : "m2", 300 + i), done.For(i));
  }
  service.Start();
  done.WaitForTotal(4);
  service.Stop();
  // One batch per model, m1 first although m2's request arrived first.
  const std::vector<BatchRecord> batches = service.TakeBatchRecords();
  ASSERT_EQ(batches.size(), 2u);
  EXPECT_EQ(batches[0].model, "m1");
  EXPECT_EQ(batches[1].model, "m2");
}

// --- determinism contract ------------------------------------------------------------

TEST(ServeDeterminismTest, PredictionsMatchHostModel) {
  Completions done;
  InferenceService service(ServeConfig{}, TestLoader({{"m", 23}}));
  service.Start();
  const NeuroCModel host = MakeTestModel(23, SmallSpec());
  for (uint64_t i = 0; i < 6; ++i) {
    service.Submit(MakeRequest(i, "a", "m", 500 + i), done.For(i));
  }
  done.WaitForTotal(6);
  service.Stop();
  for (const auto& [i, r] : done.responses()) {
    ASSERT_TRUE(r.ok()) << r.message;
    EXPECT_EQ(r.prediction, host.Predict(MakeRequest(i, "a", "m", 500 + i).input))
        << "request " << i;
  }
}

// --- socketpair end-to-end -----------------------------------------------------------

TEST(ServeEndToEndTest, SocketpairRequestsAnsweredCorrectly) {
  ServeConfig cfg;
  cfg.max_batch = 4;
  InferenceService service(cfg, TestLoader({{"m", 31}}));
  service.Start();
  FrameServer server(&service);

  int fds[2];
  ASSERT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  server.AddConnection(fds[0]);
  FakeClient client(fds[1]);

  const NeuroCModel host = MakeTestModel(31, SmallSpec());
  std::map<uint64_t, ServeRequest> sent;
  for (uint64_t i = 1; i <= 5; ++i) {
    ServeRequest req = MakeRequest(i, "alice", "m", 600 + i);
    sent[i] = req;
    ASSERT_TRUE(client.SendRequest(req));
  }
  // Pipelined responses may arrive in any order; match by request_id.
  for (int k = 0; k < 5; ++k) {
    const StatusOr<ServeResponse> resp = client.ReadResponse();
    ASSERT_TRUE(resp.ok()) << resp.status().ToString();
    ASSERT_TRUE(resp->ok()) << resp->message;
    ASSERT_TRUE(sent.count(resp->request_id));
    EXPECT_EQ(resp->prediction, host.Predict(sent[resp->request_id].input));
    sent.erase(resp->request_id);
  }
  EXPECT_TRUE(sent.empty());

  server.Stop();
  service.Stop();
}

TEST(ServeEndToEndTest, UnknownModelAndBadInputGetStructuredErrors) {
  ServeConfig cfg;
  InferenceService service(cfg, TestLoader({{"m", 32}}));
  service.Start();
  FrameServer server(&service);

  int fds[2];
  ASSERT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  server.AddConnection(fds[0]);
  FakeClient client(fds[1]);

  ServeRequest unknown = MakeRequest(1, "a", "nope", 1);
  ASSERT_TRUE(client.SendRequest(unknown));
  StatusOr<ServeResponse> resp = client.ReadResponse();
  ASSERT_TRUE(resp.ok()) << resp.status().ToString();
  EXPECT_EQ(resp->request_id, 1u);
  EXPECT_EQ(resp->code, ErrorCode::kIoError);

  ServeRequest short_input = MakeRequest(2, "a", "m", 2);
  short_input.input.resize(3);
  ASSERT_TRUE(client.SendRequest(short_input));
  resp = client.ReadResponse();
  ASSERT_TRUE(resp.ok()) << resp.status().ToString();
  EXPECT_EQ(resp->request_id, 2u);
  EXPECT_EQ(resp->code, ErrorCode::kInvalidArgument);

  // A malformed payload (bad magic) gets a request_id-0 error and the stream survives.
  std::vector<uint8_t> payload;
  AppendRequestPayload(MakeRequest(3, "a", "m", 3), &payload);
  payload[0] ^= 0xFF;
  std::vector<uint8_t> frame;
  const uint32_t len = static_cast<uint32_t>(payload.size());
  frame.resize(4);
  std::memcpy(frame.data(), &len, 4);
  frame.insert(frame.end(), payload.begin(), payload.end());
  ASSERT_TRUE(client.SendBytes(frame.data(), frame.size()));
  resp = client.ReadResponse();
  ASSERT_TRUE(resp.ok()) << resp.status().ToString();
  EXPECT_EQ(resp->request_id, 0u);
  EXPECT_EQ(resp->code, ErrorCode::kMalformedImage);

  // ...and a well-formed request after the malformed one still works.
  ASSERT_TRUE(client.SendRequest(MakeRequest(4, "a", "m", 4)));
  resp = client.ReadResponse();
  ASSERT_TRUE(resp.ok()) << resp.status().ToString();
  EXPECT_EQ(resp->request_id, 4u);
  EXPECT_TRUE(resp->ok()) << resp->message;

  server.Stop();
  service.Stop();
}

// The process's open file descriptors.
size_t OpenFds() {
  return static_cast<size_t>(
      std::distance(std::filesystem::directory_iterator("/proc/self/fd"),
                    std::filesystem::directory_iterator()));
}

// A connection whose peer hangs up gives its descriptor back once its reader exits and
// its last response is written, not at Stop: a long-running server would otherwise run
// out of descriptors and stop accepting.
TEST(ServeEndToEndTest, HungUpConnectionsReleaseTheirDescriptors) {
  InferenceService service(ServeConfig{}, TestLoader({{"m", 33}}));
  service.Start();
  FrameServer server(&service);
  const size_t before = OpenFds();
  for (uint64_t i = 0; i < 200; ++i) {
    int fds[2];
    ASSERT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    server.AddConnection(fds[0]);
    if (i % 4 == 0) {
      // Hang up with a request in flight: its response finds the peer gone.
      FakeClient client(fds[1]);
      ASSERT_TRUE(client.SendRequest(MakeRequest(i, "a", "m", 650 + i)));
    } else {
      ::close(fds[1]);
    }
  }
  EXPECT_TRUE(Eventually([&] { return OpenFds() <= before + 4; }))
      << OpenFds() << " descriptors open, " << before << " before";
  server.Stop();
  service.Stop();
}

// --- model residency -----------------------------------------------------------------

TEST(ServeCacheTest, LruEvictsAndReloadsBeyondCapacity) {
  GlobalThreadsGuard guard;
  ThreadPool::SetGlobalThreads(1);
  ServeConfig cfg;
  cfg.cache_capacity = 1;
  Completions done;
  InferenceService service(cfg, TestLoader({{"m1", 41}, {"m2", 42}}));
  service.Start();

  const uint64_t evictions_before = CounterValue("serve.cache.evictions");
  const uint64_t misses_before = CounterValue("serve.cache.misses");

  // Alternate models so each load evicts the other: m1, m2, m1.
  const char* models[] = {"m1", "m2", "m1"};
  for (uint64_t i = 0; i < 3; ++i) {
    service.Submit(MakeRequest(i, "a", models[i], 700 + i % 2), done.For(i));
    done.WaitForTotal(i + 1);
  }
  EXPECT_NE(service.MachineForTest("m1"), nullptr);
  EXPECT_EQ(service.MachineForTest("m2"), nullptr);
  service.Stop();

  ExpectAllOk(done);
  EXPECT_EQ(CounterValue("serve.cache.misses") - misses_before, 3u);
  EXPECT_EQ(CounterValue("serve.cache.evictions") - evictions_before, 2u);
  // The reload is a fresh deploy: the same answer before and after eviction.
  const std::map<uint64_t, ServeResponse> responses = done.responses();
  EXPECT_EQ(responses.at(0).prediction, responses.at(2).prediction);
  EXPECT_EQ(responses.at(0).cycles, responses.at(2).cycles);
  EXPECT_EQ(responses.at(0).energy_pj, responses.at(2).energy_pj);
}

TEST(ServeCacheTest, CacheHitSkipsLoader) {
  std::atomic<int> loads{0};
  ModelLoader counting = [&loads](const std::string&) -> StatusOr<NeuroCModel> {
    ++loads;
    return MakeTestModel(51, SmallSpec());
  };
  Completions done;
  InferenceService service(ServeConfig{}, std::move(counting));
  service.Start();
  for (uint64_t i = 0; i < 4; ++i) {
    service.Submit(MakeRequest(i, "a", "m", 800 + i), done.For(i));
    done.WaitForTotal(i + 1);
  }
  service.Stop();
  ExpectAllOk(done);
  EXPECT_EQ(loads.load(), 1);
}

// With one slot, a model loaded while the least-recently-used one still runs a batch
// stays resident: the older model goes when its batch releases it.
TEST(ServeCacheTest, BusyLeastRecentlyUsedModelIsEvictedAtItsRelease) {
  GlobalThreadsGuard guard;
  ThreadPool::SetGlobalThreads(4);
  ServeConfig cfg;
  cfg.cache_capacity = 1;
  Completions done;
  Gate m1_batch;
  InferenceService service(cfg, TestLoader({{"m1", 43}, {"m2", 44}}));
  service.Start();
  const uint64_t misses_before = CounterValue("serve.cache.misses");
  const uint64_t evictions_before = CounterValue("serve.cache.evictions");

  service.Submit(MakeRequest(0, "a", "m1", 1800),
                 done.For(0, [&m1_batch] { m1_batch.Wait(); }));
  m1_batch.WaitForArrivals(1);  // m1 is resident, and its batch holds its machine
  service.Submit(MakeRequest(1, "a", "m2", 1801), done.For(1));
  done.WaitForTotal(1);
  m1_batch.Open();
  done.WaitForTotal(2);

  EXPECT_TRUE(Eventually([&] { return service.MachineForTest("m1") == nullptr; }));
  EXPECT_NE(service.MachineForTest("m2"), nullptr);
  EXPECT_EQ(CounterValue("serve.cache.evictions") - evictions_before, 1u);
  // The next m2 request finds it resident.
  const uint64_t misses_after_loads = CounterValue("serve.cache.misses");
  EXPECT_EQ(misses_after_loads - misses_before, 2u);
  service.Submit(MakeRequest(2, "a", "m2", 1802), done.For(2));
  done.WaitForTotal(3);
  EXPECT_EQ(CounterValue("serve.cache.misses"), misses_after_loads);
  service.Stop();
  ExpectAllOk(done);
}

// A loader that parks every load on `gate`, counting the loads.
ModelLoader GatedLoader(Gate& gate, std::atomic<int>& loads, ModelLoader inner) {
  return [&gate, &loads, inner = std::move(inner)](const std::string& name) {
    ++loads;
    gate.Wait();
    return inner(name);
  };
}

TEST(ServeCacheTest, RequestsArrivingDuringALoadAreServedByThatLoad) {
  GlobalThreadsGuard guard;
  ThreadPool::SetGlobalThreads(4);
  Gate load;
  std::atomic<int> loads{0};
  Completions done;
  InferenceService service(ServeConfig{},
                           GatedLoader(load, loads, TestLoader({{"m", 45}})));
  service.Start();
  const uint64_t misses_before = CounterValue("serve.cache.misses");

  constexpr uint64_t kRequests = 24;
  service.Submit(MakeRequest(0, "a", "m", 1900), done.For(0));
  load.WaitForArrivals(1);
  for (uint64_t i = 1; i < kRequests; ++i) {
    service.Submit(MakeRequest(i, i % 2 ? "a" : "b", "m", 1900 + i), done.For(i));
  }
  load.Open();
  done.WaitForTotal(kRequests);
  service.Stop();

  EXPECT_EQ(loads.load(), 1);
  EXPECT_EQ(CounterValue("serve.cache.misses") - misses_before, 1u);
  const NeuroCModel host = MakeTestModel(45, SmallSpec());
  for (const auto& [id, r] : done.responses()) {
    ASSERT_TRUE(r.ok()) << "request " << id << ": " << r.message;
    EXPECT_EQ(r.prediction, host.Predict(MakeRequest(id, "", "m", 1900 + id).input));
  }
}

// A failed load answers the requests queued behind it with its own status and leaves
// no record of the model behind.
TEST(ServeCacheTest, RequestsQueuedBehindAFailedLoadGetItsStatus) {
  GlobalThreadsGuard guard;
  ThreadPool::SetGlobalThreads(4);
  Gate load;
  std::atomic<int> loads{0};
  Completions done;
  InferenceService service(ServeConfig{}, GatedLoader(load, loads, TestLoader({})));
  service.Start();

  constexpr uint64_t kRequests = 8;
  service.Submit(MakeRequest(0, "a", "gone", 2100), done.For(0));
  load.WaitForArrivals(1);  // request 0's batch is loading the model
  for (uint64_t i = 1; i < kRequests; ++i) {
    service.Submit(MakeRequest(i, i % 2 ? "a" : "b", "gone", 2100 + i), done.For(i));
  }
  load.Open();
  done.WaitForTotal(kRequests);

  EXPECT_EQ(loads.load(), 1);
  const std::map<uint64_t, ServeResponse> responses = done.responses();
  ASSERT_EQ(responses.size(), kRequests);
  for (const auto& [id, r] : responses) {
    EXPECT_EQ(r.code, ErrorCode::kIoError) << "request " << id;
    EXPECT_EQ(r.message, "no such model: gone") << "request " << id;
  }
  EXPECT_EQ(service.QueueDepth(), 0u);
  EXPECT_EQ(service.ModelRecordsForTest(), 0u);
  service.Stop();
}

TEST(ServeCacheTest, StopDuringALoadCompletesEveryRequestOnce) {
  GlobalThreadsGuard guard;
  ThreadPool::SetGlobalThreads(4);
  Gate load;
  std::atomic<int> loads{0};
  Completions done;
  InferenceService service(ServeConfig{},
                           GatedLoader(load, loads, TestLoader({{"m", 46}})));
  service.Start();

  constexpr uint64_t kRequests = 16;
  service.Submit(MakeRequest(0, "a", "m", 2000), done.For(0));
  load.WaitForArrivals(1);  // request 0's batch is loading the model
  for (uint64_t i = 1; i < kRequests; ++i) {
    service.Submit(MakeRequest(i, "a", "m", 2000 + i), done.For(i));
  }
  std::thread stopper([&service] { service.Stop(); });
  const uint64_t id = ProbeUntilStopped(service, done, kRequests, "m");
  load.Open();
  stopper.join();

  const std::map<uint64_t, int> counts = done.counts();
  ASSERT_EQ(counts.size(), id + 1);
  for (const auto& [request, n] : counts) {
    EXPECT_EQ(n, 1) << "request " << request;
  }
  const std::map<uint64_t, ServeResponse> responses = done.responses();
  EXPECT_TRUE(responses.at(0).ok()) << responses.at(0).message;  // the loading batch
  for (uint64_t i = 1; i < kRequests; ++i) {
    EXPECT_EQ(responses.at(i).message, "serve: shutting down") << "request " << i;
  }
  EXPECT_EQ(loads.load(), 1);
}

// --- admission control & shutdown ----------------------------------------------------

TEST(ServeAdmissionTest, RejectsBeyondQueueDepth) {
  ServeConfig cfg;
  cfg.max_queue_depth = 2;
  Completions done;
  InferenceService service(cfg, TestLoader({{"m", 61}}));
  // Queued before Start: the first two fill the queue, the rest are refused at once.
  for (uint64_t i = 0; i < 5; ++i) {
    service.Submit(MakeRequest(i, "a", "m", 900 + i), done.For(i));
  }
  const std::map<uint64_t, ServeResponse> refused = done.responses();
  ASSERT_EQ(refused.size(), 3u);
  for (const auto& [id, r] : refused) {
    EXPECT_GE(id, 2u);
    EXPECT_EQ(r.code, ErrorCode::kResourceExhausted);
  }
  service.Start();
  done.WaitForTotal(5);
  service.Stop();
  EXPECT_TRUE(done.responses().at(0).ok());
  EXPECT_TRUE(done.responses().at(1).ok());
}

TEST(ServeAdmissionTest, StopFailsQueuedRequests) {
  InferenceService service(ServeConfig{}, TestLoader({{"m", 62}}));
  std::vector<ServeResponse> responses;
  for (uint64_t i = 0; i < 3; ++i) {
    service.Submit(MakeRequest(i, "a", "m", 950 + i),
                   [&](const ServeResponse& r) { responses.push_back(r); });
  }
  service.Stop();
  ASSERT_EQ(responses.size(), 3u);
  for (const ServeResponse& r : responses) {
    EXPECT_EQ(r.code, ErrorCode::kResourceExhausted);
  }
  EXPECT_EQ(service.QueueDepth(), 0u);
}

// --- fault path ----------------------------------------------------------------------

// Flips 32 seeded bits in `dm`'s packed image — enough that the corruption cannot be
// behaviorally masked (the CRC check reports it regardless).
void CorruptImage(DeployedModel& dm) {
  Rng inject_rng(7);
  for (int i = 0; i < 32; ++i) {
    InjectFault(dm.machine().memory(), dm.image_base(),
                static_cast<uint32_t>(dm.image().flash.size()), FaultModel::kSingleBitFlip,
                1, inject_rng);
  }
}

// Corrupt the resident model's flash mid-service: the next request must be answered OK
// after the recovery ladder scrubs the machine, and the recovery counters must say so.
TEST(ServeFaultTest, MidServiceCorruptionHealedByRecoveryLadder) {
  Completions done;
  InferenceService service(ServeConfig{}, TestLoader({{"m", 71}}));
  service.Start();

  // Load the model.
  service.Submit(MakeRequest(1, "a", "m", 1000), done.For(1));
  done.WaitForTotal(1);

  GuardedModel* gm = service.MachineForTest("m");
  ASSERT_NE(gm, nullptr);
  DeployedModel& dm = gm->deployed();
  CorruptImage(dm);
  ASSERT_FALSE(dm.CorruptedSections().empty());

  const uint64_t scrubs_before = CounterValue("recovery.scrub_retry");
  service.Submit(MakeRequest(2, "a", "m", 1001), done.For(2));
  done.WaitForTotal(2);

  // The ladder ran its scrub rung and the machine is clean again.
  EXPECT_GT(CounterValue("recovery.scrub_retry"), scrubs_before);
  EXPECT_TRUE(dm.CorruptedSections().empty());

  // And the recovered answer matches the host model.
  service.Submit(MakeRequest(3, "a", "m", 1002), done.For(3));
  done.WaitForTotal(3);
  service.Stop();
  const NeuroCModel host = MakeTestModel(71, SmallSpec());
  for (const auto& [id, r] : done.responses()) {
    ASSERT_TRUE(r.ok()) << "request " << id << ": " << r.message;
    EXPECT_EQ(r.prediction, host.Predict(MakeRequest(id, "a", "m", 999 + id).input));
  }
}

// --- per-tenant metrics --------------------------------------------------------------

TEST(ServeMetricsTest, PerTenantScopesCountTraffic) {
  const uint64_t alice_before = CounterValue("serve.tenant.alice.requests");
  const uint64_t bob_before = CounterValue("serve.tenant.bob.requests");
  Completions done;
  InferenceService service(ServeConfig{}, TestLoader({{"m", 81}}));
  service.Start();
  for (uint64_t i = 0; i < 3; ++i) {
    service.Submit(MakeRequest(i, "alice", "m", 1100 + i), done.For(i));
  }
  service.Submit(MakeRequest(3, "bob", "m", 1103), done.For(3));
  done.WaitForTotal(4);
  service.Stop();
  EXPECT_EQ(CounterValue("serve.tenant.alice.requests") - alice_before, 3u);
  EXPECT_EQ(CounterValue("serve.tenant.bob.requests") - bob_before, 1u);
}

// 20,000 requests, each with its own tenant and (unknown) model name, leave no model
// record and grow the registry by the capped tenant scopes alone: every later tenant
// counts under the overflow scope. Without the cap, 20,000 such names grew the registry
// JSON to 232 KB.
TEST(ServeMetricsTest, DistinctNamesLeaveRegistryAndModelRecordsBounded) {
  GlobalThreadsGuard guard;
  ThreadPool::SetGlobalThreads(1);
  const auto registry_bytes = [] {
    JsonWriter w;
    MetricsRegistry::Global().WriteJson(w);
    return w.str().size();
  };
  const size_t bytes_before = registry_bytes();
  const uint64_t overflow_before = CounterValue("serve.tenant_overflow.requests");
  constexpr uint64_t kNames = 20000;
  Completions done;
  InferenceService service(ServeConfig{}, TestLoader({}));
  service.Start();
  for (uint64_t i = 0; i < kNames; ++i) {
    const std::string name = "name" + std::to_string(i);
    service.Submit(MakeRequest(i, name, name, i), done.For(i));
    if ((i + 1) % 512 == 0) {
      done.WaitForTotal(i + 1);  // stay under the admission cap
    }
  }
  done.WaitForTotal(kNames);
  service.Stop();

  for (const auto& [id, r] : done.responses()) {
    ASSERT_EQ(r.code, ErrorCode::kIoError) << "request " << id << ": " << r.message;
  }
  EXPECT_EQ(service.ModelRecordsForTest(), 0u);
  EXPECT_EQ(CounterValue("serve.tenant_overflow.requests") - overflow_before,
            kNames - InferenceService::kMaxTenantScopes);
  // At most four metrics per scope, each well under 128 bytes of JSON. Values already in
  // the registry (gauges, histogram statistics) may print shorter afterwards, so compare
  // without an unsigned difference that would wrap.
  EXPECT_LT(registry_bytes(),
            bytes_before + (InferenceService::kMaxTenantScopes + 1) * 4 * 128);
}

// --- workers, replicas, shutdown -----------------------------------------------------

// Long enough per completion that a worker woken for a new replica claims it while the
// batch on machine 0 still runs, even on a loaded host.
void SlowCompletion() { std::this_thread::sleep_for(std::chrono::microseconds(300)); }

// Submits requests [first, first + n) for `model` as one backlog: request `first`'s
// completion holds its machine until the rest are queued. Returns when all completed.
void SubmitBacklog(InferenceService& service, Completions& done, const std::string& model,
                   uint64_t first, size_t n, uint64_t input_seed) {
  Gate queued;
  service.Submit(MakeRequest(first, "a", model, input_seed),
                 done.For(first, [&queued] { queued.Wait(); }));
  for (uint64_t i = first + 1; i < first + n; ++i) {
    service.Submit(MakeRequest(i, i % 2 ? "a" : "b", model, input_seed + i - first),
                   done.For(i, SlowCompletion));
  }
  queued.Open();
  done.WaitForTotal(first + n);
}

std::set<size_t> MachinesUsed(const std::vector<BatchRecord>& batches,
                              const std::string& model) {
  std::set<size_t> machines;
  for (const BatchRecord& b : batches) {
    if (b.model == model) {
      machines.insert(b.machine);
    }
  }
  return machines;
}

struct BacklogRun {
  std::map<uint64_t, std::vector<uint8_t>> payloads;
  std::vector<BatchRecord> batches;
};

BacklogRun ServeBacklog(unsigned threads) {
  ThreadPool::SetGlobalThreads(threads);
  ServeConfig cfg;
  cfg.record_batches = true;
  Completions done;  // outlives the service, whose Stop may still complete requests
  InferenceService service(cfg, TestLoader({{"m", 24}}));
  service.Start();
  SubmitBacklog(service, done, "m", 0, 32, 1200);
  service.Stop();
  return {done.payloads(), service.TakeBatchRecords()};
}

TEST(ServeWorkersTest, BacklogOnOneModelSpreadsAcrossReplicaMachines) {
  GlobalThreadsGuard guard;
  const BacklogRun one = ServeBacklog(1);
  const BacklogRun four = ServeBacklog(4);

  // One worker never forks: every batch runs on the loaded machine.
  EXPECT_EQ(MachinesUsed(one.batches, "m"), std::set<size_t>{0});
  // Four workers: machine 0's holder forks while the backlog waits, and the replicas
  // serve part of it.
  EXPECT_GE(MachinesUsed(four.batches, "m").size(), 2u);
  size_t served = 0;
  for (const BatchRecord& b : four.batches) {
    EXPECT_LT(b.machine, 4u);  // at most one machine per worker
    served += b.size;
  }
  EXPECT_EQ(served, 32u);
  ASSERT_EQ(one.payloads.size(), 32u);
  EXPECT_EQ(one.payloads, four.payloads);
}

// Requests from two tenants over two models through live workers; request 0 holds its
// machine until the rest are queued, so the run forms backlogs (and forks replicas at 4
// threads). Returns request_id -> encoded response payload bytes.
std::map<uint64_t, std::vector<uint8_t>> ServeAllLive(unsigned threads, size_t max_batch,
                                                      size_t n) {
  ThreadPool::SetGlobalThreads(threads);
  ServeConfig cfg;
  cfg.max_batch = max_batch;
  Completions done;
  Gate queued;
  InferenceService service(cfg, TestLoader({{"m1", 21}, {"m2", 22}}));
  service.Start();
  for (uint64_t i = 0; i < n; ++i) {
    const std::string tenant = i % 3 == 0 ? "a" : "b";
    const std::string model = i % 2 == 0 ? "m1" : "m2";
    service.Submit(MakeRequest(i, tenant, model, 400 + i),
                   i == 0 ? done.For(i, [&queued] { queued.Wait(); }) : done.For(i));
  }
  queued.Open();
  done.WaitForTotal(n);
  service.Stop();
  return done.payloads();
}

TEST(ServeDeterminismTest, LivePayloadsByteIdenticalAcrossThreadCounts) {
  GlobalThreadsGuard guard;
  const auto t1 = ServeAllLive(/*threads=*/1, /*max_batch=*/8, /*n=*/48);
  const auto t4 = ServeAllLive(/*threads=*/4, /*max_batch=*/8, /*n=*/48);
  // Different batch geometry must not leak into payloads either.
  const auto t4b2 = ServeAllLive(/*threads=*/4, /*max_batch=*/2, /*n=*/48);
  ASSERT_EQ(t1.size(), 48u);
  EXPECT_EQ(t1, t4);
  EXPECT_EQ(t1, t4b2);
  for (const auto& [id, bytes] : t1) {
    const StatusOr<ServeResponse> r = DecodeResponsePayload(bytes);
    ASSERT_TRUE(r.ok());
    EXPECT_TRUE(r->ok()) << "request " << id << ": " << r->message;
  }
}

TEST(ServeWorkersTest, NoReplicaWhileMachineZeroRunsAFallbackEncoding) {
  GlobalThreadsGuard guard;
  ThreadPool::SetGlobalThreads(4);
  ServeConfig cfg;
  cfg.record_batches = true;
  // A detected fault goes straight to the kRedeploy rung.
  cfg.policy.snapshot_retry = false;
  cfg.policy.scrub_retry = false;
  Completions done;
  InferenceService service(cfg, TestLoader({{"m", 71}}));
  service.Start();
  service.Submit(MakeRequest(0, "a", "m", 1000), done.For(0));
  done.WaitForTotal(1);

  // ServeFaultTest's corruption, which the next inference detects.
  GuardedModel* gm = service.MachineForTest("m");
  ASSERT_NE(gm, nullptr);
  CorruptImage(gm->deployed());
  const uint64_t redeploys_before = CounterValue("recovery.redeploy");
  service.Submit(MakeRequest(1, "a", "m", 1001), done.For(1));
  done.WaitForTotal(2);
  ASSERT_GT(CounterValue("recovery.redeploy"), redeploys_before);
  ASSERT_NE(gm->active_encoding(), gm->primary_encoding());

  SubmitBacklog(service, done, "m", 2, 32, 1300);
  EXPECT_EQ(MachinesUsed(service.TakeBatchRecords(), "m"), std::set<size_t>{0});
  EXPECT_EQ(service.MachineForTest("m", 1), nullptr);
  ExpectAllOk(done);
  service.Stop();
}

TEST(ServeWorkersTest, EvictedModelStartsAgainFromOneMachine) {
  GlobalThreadsGuard guard;
  ThreadPool::SetGlobalThreads(4);
  ServeConfig cfg;
  cfg.cache_capacity = 1;
  cfg.record_batches = true;
  Completions done;
  InferenceService service(cfg, TestLoader({{"m1", 41}, {"m2", 42}}));
  service.Start();
  uint64_t next_id = 0;

  SubmitBacklog(service, done, "m1", next_id, 32, 1400);
  next_id += 32;
  EXPECT_GE(MachinesUsed(service.TakeBatchRecords(), "m1").size(), 2u);

  // One request for `model` takes the only slot. `other` goes at the load, or, when a
  // worker is still releasing it after its last completion, at that release.
  const auto serve_until_resident = [&](const std::string& model, const std::string& other) {
    service.Submit(MakeRequest(next_id, "a", model, 1450 + next_id), done.For(next_id));
    done.WaitForTotal(++next_id);
    return Eventually([&] {
      return service.MachineForTest(other) == nullptr &&
             service.MachineForTest(model) != nullptr;
    });
  };
  // m2 takes the only cache slot, and m1 goes with every machine of it.
  ASSERT_TRUE(serve_until_resident("m2", "m1"));

  // Reloaded on one machine...
  ASSERT_TRUE(serve_until_resident("m1", "m2"));
  EXPECT_EQ(MachinesUsed(service.TakeBatchRecords(), "m1"), std::set<size_t>{0});
  EXPECT_EQ(service.MachineForTest("m1", 1), nullptr);
  // ...and a new backlog forks replicas of the new machine 0 again.
  SubmitBacklog(service, done, "m1", next_id, 32, 1500);
  next_id += 32;
  EXPECT_GE(MachinesUsed(service.TakeBatchRecords(), "m1").size(), 2u);
  ExpectAllOk(done);
  service.Stop();
}

TEST(ServeWorkersTest, StopWhileWorkersAreMidBatchCompletesEveryRequestOnce) {
  GlobalThreadsGuard guard;
  ThreadPool::SetGlobalThreads(4);
  Completions done;
  // Every completion waits here, so no worker gets past its first batch before Stop.
  Gate stopped;
  InferenceService service(ServeConfig{}, TestLoader({{"m1", 51}, {"m2", 52}}));
  service.Start();
  constexpr uint64_t kRequests = 64;  // > 4 workers x 8 per batch: some stay queued
  for (uint64_t i = 0; i < kRequests; ++i) {
    service.Submit(MakeRequest(i, i % 3 ? "a" : "b", i % 2 ? "m1" : "m2", 1600 + i),
                   done.For(i, [&stopped] { stopped.Wait(); }));
  }
  stopped.WaitForArrivals(1);
  std::thread stopper([&service] { service.Stop(); });
  const uint64_t id = ProbeUntilStopped(service, done, kRequests, "m1");
  stopped.Open();
  stopper.join();

  const std::map<uint64_t, int> counts = done.counts();
  ASSERT_EQ(counts.size(), id + 1);
  for (const auto& [request, n] : counts) {
    EXPECT_EQ(n, 1) << "request " << request;
  }
  size_t ok = 0;
  size_t shut_down = 0;
  for (const auto& [request, r] : done.responses()) {
    if (request < kRequests) {
      ok += r.ok() ? 1 : 0;
      shut_down += r.message == "serve: shutting down" ? 1 : 0;
    }
  }
  EXPECT_GT(ok, 0u);         // the batches in flight finished
  EXPECT_GT(shut_down, 0u);  // the queued requests were failed, not dropped
  EXPECT_EQ(ok + shut_down, kRequests);
}

// --- load generator ------------------------------------------------------------------

TEST(ServeLoadGenTest, ClosedLoopChecksumIsClientCountInvariant) {
  GlobalThreadsGuard guard;
  LoadGenConfig lg;
  lg.models = {"m1", "m2"};
  lg.tenants = {"a", "b"};
  lg.input_dim = kInDim;
  lg.total_requests = 16;
  lg.checksum_prefix = 16;

  const auto run = [&](size_t clients, size_t threads) {
    ThreadPool::SetGlobalThreads(threads);
    ServeConfig cfg;
    cfg.max_batch = 4;
    InferenceService service(cfg, TestLoader({{"m1", 91}, {"m2", 92}}));
    service.Start();
    lg.clients = clients;
    const LoadGenReport report = RunClosedLoop(service, lg);
    service.Stop();
    return report;
  };

  const LoadGenReport one = run(1, 1);
  const LoadGenReport four = run(4, 4);
  EXPECT_EQ(one.completed, 16u);
  EXPECT_EQ(four.completed, 16u);
  EXPECT_EQ(one.failed, 0u);
  EXPECT_EQ(four.failed, 0u);
  // The determinism contract, end to end: same payload checksum no matter how many
  // clients raced or how the batches formed.
  EXPECT_EQ(one.checksum, four.checksum);
  EXPECT_EQ(one.total_cycles, four.total_cycles);
  EXPECT_EQ(one.total_energy_pj, four.total_energy_pj);
}

}  // namespace
}  // namespace neuroc
