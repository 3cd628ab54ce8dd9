// The serving layer under a deterministic, in-process load harness: wire-frame codecs,
// batching decisions, tenant fairness, the thread-count byte-identity contract, the
// socketpair end-to-end path, LRU cache eviction/reload, admission control, shutdown
// semantics, and the fault path (mid-service corruption healed by the recovery ladder).
//
// Scheduling-sensitive checks run the service in manual_dispatch mode so batch formation
// is a pure function of the queued requests; the concurrency-heavy cases live in
// serve_soak_test.cc.

#include <sys/socket.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <functional>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
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

// --- batching & fairness -------------------------------------------------------------

ServeConfig ManualConfig(size_t max_batch = 4) {
  ServeConfig cfg;
  cfg.max_batch = max_batch;
  cfg.manual_dispatch = true;
  cfg.record_batches = true;
  return cfg;
}

TEST(ServeBatchingTest, FillsBatchesUpToMaxBatch) {
  InferenceService service(ManualConfig(4), TestLoader({{"m", 11}}));
  std::vector<ServeResponse> responses;
  for (uint64_t i = 0; i < 5; ++i) {
    service.Submit(MakeRequest(i, "a", "m", 100 + i),
                   [&](const ServeResponse& r) { responses.push_back(r); });
  }
  EXPECT_EQ(service.QueueDepth(), 5u);

  EXPECT_EQ(service.RunOnce(), 4u);
  EXPECT_EQ(service.QueueDepth(), 1u);
  EXPECT_EQ(service.RunOnce(), 1u);
  EXPECT_EQ(service.RunOnce(), 0u);

  const std::vector<BatchRecord> batches = service.TakeBatchRecords();
  ASSERT_EQ(batches.size(), 2u);
  EXPECT_EQ(batches[0].size, 4u);
  EXPECT_EQ(batches[1].size, 1u);
  ASSERT_EQ(responses.size(), 5u);
  for (const ServeResponse& r : responses) {
    EXPECT_TRUE(r.ok()) << r.message;
    EXPECT_GT(r.cycles, 0u);
    EXPECT_GT(r.energy_pj, 0u);
  }
}

TEST(ServeBatchingTest, RoundRobinSharesBatchesAcrossTenants) {
  InferenceService service(ManualConfig(4), TestLoader({{"m", 12}}));
  size_t done = 0;
  const auto count = [&](const ServeResponse&) { ++done; };
  // Tenant a floods 6 requests, tenant b sends 2: the first batch must carry both.
  for (uint64_t i = 0; i < 6; ++i) {
    service.Submit(MakeRequest(i, "a", "m", 200 + i), count);
  }
  for (uint64_t i = 6; i < 8; ++i) {
    service.Submit(MakeRequest(i, "b", "m", 200 + i), count);
  }

  EXPECT_EQ(service.RunOnce(), 4u);
  EXPECT_EQ(service.RunOnce(), 4u);
  EXPECT_EQ(done, 8u);

  const std::vector<BatchRecord> batches = service.TakeBatchRecords();
  ASSERT_EQ(batches.size(), 2u);
  // Round-robin pop order: a,b,a,b — recorded as runs [a:1,b:1,a:1,b:1] or merged runs.
  size_t a0 = 0;
  size_t b0 = 0;
  for (const auto& [tenant, n] : batches[0].per_tenant) {
    (tenant == "a" ? a0 : b0) += n;
  }
  EXPECT_EQ(a0, 2u);
  EXPECT_EQ(b0, 2u);
  // Second batch: b is drained, a gets the full batch.
  size_t a1 = 0;
  size_t b1 = 0;
  for (const auto& [tenant, n] : batches[1].per_tenant) {
    (tenant == "a" ? a1 : b1) += n;
  }
  EXPECT_EQ(a1, 4u);
  EXPECT_EQ(b1, 0u);
}

TEST(ServeBatchingTest, OneBatchPerModelPerRound) {
  InferenceService service(ManualConfig(4), TestLoader({{"m1", 13}, {"m2", 14}}));
  std::atomic<size_t> done{0};
  for (uint64_t i = 0; i < 4; ++i) {
    service.Submit(MakeRequest(i, "a", i % 2 ? "m1" : "m2", 300 + i),
                   [&](const ServeResponse&) { ++done; });
  }
  // One pass serves both models, one batch each.
  EXPECT_EQ(service.RunOnce(), 4u);
  EXPECT_EQ(done, 4u);
  const std::vector<BatchRecord> batches = service.TakeBatchRecords();
  ASSERT_EQ(batches.size(), 2u);
  // Sorted model order: m1 before m2.
  EXPECT_EQ(batches[0].model, "m1");
  EXPECT_EQ(batches[1].model, "m2");
}

// --- determinism contract ------------------------------------------------------------

// Runs `n` requests through a fresh service and returns request_id -> encoded response
// payload bytes.
std::map<uint64_t, std::vector<uint8_t>> ServeAll(size_t threads, size_t max_batch,
                                                  size_t n) {
  ThreadPool::SetGlobalThreads(threads);
  InferenceService service(ManualConfig(max_batch),
                           TestLoader({{"m1", 21}, {"m2", 22}}));
  std::map<uint64_t, std::vector<uint8_t>> payloads;
  std::mutex mu;
  for (uint64_t i = 0; i < n; ++i) {
    const std::string tenant = i % 3 == 0 ? "a" : "b";
    const std::string model = i % 2 == 0 ? "m1" : "m2";
    service.Submit(MakeRequest(i, tenant, model, 400 + i), [&, i](const ServeResponse& r) {
      std::vector<uint8_t> bytes;
      AppendResponsePayload(r, &bytes);
      std::lock_guard<std::mutex> lock(mu);
      payloads[i] = std::move(bytes);
    });
  }
  while (service.RunOnce() > 0) {
  }
  return payloads;
}

TEST(ServeDeterminismTest, PayloadsByteIdenticalAcrossThreadCountsAndBatching) {
  GlobalThreadsGuard guard;
  const auto t1 = ServeAll(/*threads=*/1, /*max_batch=*/4, /*n=*/12);
  const auto t4 = ServeAll(/*threads=*/4, /*max_batch=*/4, /*n=*/12);
  // Different batch geometry must not leak into payloads either.
  const auto t4b2 = ServeAll(/*threads=*/4, /*max_batch=*/2, /*n=*/12);

  ASSERT_EQ(t1.size(), 12u);
  EXPECT_EQ(t1, t4);
  EXPECT_EQ(t1, t4b2);
  for (const auto& [id, bytes] : t1) {
    const StatusOr<ServeResponse> r = DecodeResponsePayload(bytes);
    ASSERT_TRUE(r.ok());
    EXPECT_TRUE(r->ok()) << "request " << id << ": " << r->message;
  }
}

TEST(ServeDeterminismTest, PredictionsMatchHostModel) {
  InferenceService service(ManualConfig(), TestLoader({{"m", 23}}));
  const NeuroCModel host = MakeTestModel(23, SmallSpec());
  std::vector<std::pair<uint64_t, int32_t>> got;
  for (uint64_t i = 0; i < 6; ++i) {
    service.Submit(MakeRequest(i, "a", "m", 500 + i), [&, i](const ServeResponse& r) {
      ASSERT_TRUE(r.ok()) << r.message;
      got.emplace_back(i, r.prediction);
    });
  }
  while (service.RunOnce() > 0) {
  }
  ASSERT_EQ(got.size(), 6u);
  for (const auto& [i, prediction] : got) {
    const ServeRequest req = MakeRequest(i, "a", "m", 500 + i);
    EXPECT_EQ(prediction, host.Predict(req.input)) << "request " << i;
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

// --- model cache ---------------------------------------------------------------------

TEST(ServeCacheTest, LruEvictsAndReloadsBeyondCapacity) {
  ServeConfig cfg = ManualConfig();
  cfg.cache_capacity = 1;
  InferenceService service(cfg, TestLoader({{"m1", 41}, {"m2", 42}}));

  const uint64_t evictions_before = CounterValue("serve.cache.evictions");
  const uint64_t misses_before = CounterValue("serve.cache.misses");

  size_t ok = 0;
  const auto expect_ok = [&](const ServeResponse& r) {
    ASSERT_TRUE(r.ok()) << r.message;
    ++ok;
  };
  // Alternate models so each round evicts the other: m1, m2, m1.
  service.Submit(MakeRequest(1, "a", "m1", 700), expect_ok);
  EXPECT_EQ(service.RunOnce(), 1u);
  service.Submit(MakeRequest(2, "a", "m2", 701), expect_ok);
  EXPECT_EQ(service.RunOnce(), 1u);
  service.Submit(MakeRequest(3, "a", "m1", 700), expect_ok);
  EXPECT_EQ(service.RunOnce(), 1u);

  EXPECT_EQ(ok, 3u);
  EXPECT_EQ(service.cache().resident(), 1u);
  EXPECT_EQ(CounterValue("serve.cache.misses") - misses_before, 3u);
  EXPECT_GE(CounterValue("serve.cache.evictions") - evictions_before, 2u);

  // The reload is a fresh deploy: identical responses before and after eviction.
  const NeuroCModel host = MakeTestModel(41, SmallSpec());
  const ServeRequest req = MakeRequest(3, "a", "m1", 700);
  EXPECT_EQ(host.Predict(req.input), host.Predict(MakeRequest(1, "a", "m1", 700).input));
}

TEST(ServeCacheTest, CacheHitSkipsLoader) {
  size_t loads = 0;
  ModelLoader counting = [&loads](const std::string&) -> StatusOr<NeuroCModel> {
    ++loads;
    return MakeTestModel(51, SmallSpec());
  };
  InferenceService service(ManualConfig(), std::move(counting));
  size_t done = 0;
  for (uint64_t i = 0; i < 4; ++i) {
    service.Submit(MakeRequest(i, "a", "m", 800 + i),
                   [&](const ServeResponse& r) {
                     ASSERT_TRUE(r.ok()) << r.message;
                     ++done;
                   });
    service.RunOnce();
  }
  EXPECT_EQ(done, 4u);
  EXPECT_EQ(loads, 1u);
}

// --- admission control & shutdown ----------------------------------------------------

TEST(ServeAdmissionTest, RejectsBeyondQueueDepth) {
  ServeConfig cfg = ManualConfig();
  cfg.max_queue_depth = 2;
  InferenceService service(cfg, TestLoader({{"m", 61}}));
  std::vector<ServeResponse> rejected;
  size_t accepted = 0;
  for (uint64_t i = 0; i < 5; ++i) {
    service.Submit(MakeRequest(i, "a", "m", 900 + i), [&](const ServeResponse& r) {
      if (r.ok()) {
        ++accepted;
      } else {
        rejected.push_back(r);
      }
    });
  }
  ASSERT_EQ(rejected.size(), 3u);
  for (const ServeResponse& r : rejected) {
    EXPECT_EQ(r.code, ErrorCode::kResourceExhausted);
  }
  while (service.RunOnce() > 0) {
  }
  EXPECT_EQ(accepted, 2u);
}

TEST(ServeAdmissionTest, StopFailsQueuedRequests) {
  InferenceService service(ManualConfig(), TestLoader({{"m", 62}}));
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

// Corrupt the cached model's flash mid-service: the next request must be answered OK
// after the recovery ladder scrubs the machine, and the recovery counters must say so.
TEST(ServeFaultTest, MidServiceCorruptionHealedByRecoveryLadder) {
  InferenceService service(ManualConfig(), TestLoader({{"m", 71}}));
  size_t ok = 0;
  const auto expect_ok = [&](const ServeResponse& r) {
    ASSERT_TRUE(r.ok()) << r.message;
    ++ok;
  };

  // Warm the cache.
  service.Submit(MakeRequest(1, "a", "m", 1000), expect_ok);
  EXPECT_EQ(service.RunOnce(), 1u);
  ASSERT_EQ(ok, 1u);

  ModelCache::Entry* entry = service.cache().PeekForTest("m");
  ASSERT_NE(entry, nullptr);
  DeployedModel& dm = entry->model.deployed();

  // Batter the packed image with seeded bit flips — enough that the corruption cannot
  // be behaviorally masked (the CRC check reports it regardless).
  Rng inject_rng(7);
  for (int i = 0; i < 32; ++i) {
    InjectFault(dm.machine().memory(), dm.image_base(),
                static_cast<uint32_t>(dm.image().flash.size()),
                FaultModel::kSingleBitFlip, 1, inject_rng);
  }
  ASSERT_FALSE(dm.CorruptedSections().empty());

  const uint64_t scrubs_before = CounterValue("recovery.scrub_retry");
  service.Submit(MakeRequest(2, "a", "m", 1001), expect_ok);
  EXPECT_EQ(service.RunOnce(), 1u);
  EXPECT_EQ(ok, 2u);

  // The ladder ran its scrub rung and the machine is clean again.
  EXPECT_GT(CounterValue("recovery.scrub_retry"), scrubs_before);
  EXPECT_TRUE(dm.CorruptedSections().empty());

  // And the recovered answer matches the host model.
  const NeuroCModel host = MakeTestModel(71, SmallSpec());
  service.Submit(MakeRequest(3, "a", "m", 1002),
                 [&](const ServeResponse& r) {
                   ASSERT_TRUE(r.ok());
                   EXPECT_EQ(r.prediction,
                             host.Predict(MakeRequest(3, "a", "m", 1002).input));
                 });
  EXPECT_EQ(service.RunOnce(), 1u);
}

// --- per-tenant metrics --------------------------------------------------------------

TEST(ServeMetricsTest, PerTenantScopesCountTraffic) {
  const uint64_t alice_before = CounterValue("serve.tenant.alice.requests");
  const uint64_t bob_before = CounterValue("serve.tenant.bob.requests");
  InferenceService service(ManualConfig(), TestLoader({{"m", 81}}));
  size_t done = 0;
  for (uint64_t i = 0; i < 3; ++i) {
    service.Submit(MakeRequest(i, "alice", "m", 1100 + i),
                   [&](const ServeResponse&) { ++done; });
  }
  service.Submit(MakeRequest(3, "bob", "m", 1103), [&](const ServeResponse&) { ++done; });
  while (service.RunOnce() > 0) {
  }
  EXPECT_EQ(done, 4u);
  EXPECT_EQ(CounterValue("serve.tenant.alice.requests") - alice_before, 3u);
  EXPECT_EQ(CounterValue("serve.tenant.bob.requests") - bob_before, 1u);
}

// --- live dispatch: workers, replicas, shutdown -------------------------------------

// Holds completions (and with them the workers running them) until opened.
class Gate {
 public:
  void Open() {
    std::lock_guard<std::mutex> lock(mu_);
    open_ = true;
    cv_.notify_all();
  }
  void Wait() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return open_; });
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool open_ = false;
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

// ServeAll's requests through live workers; request 0 holds its machine until the rest
// are queued, so the run forms backlogs (and forks replicas at 4 threads).
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
  const auto t4b2 = ServeAllLive(/*threads=*/4, /*max_batch=*/2, /*n=*/48);
  ASSERT_EQ(t1.size(), 48u);
  EXPECT_EQ(t1, t4);
  EXPECT_EQ(t1, t4b2);
  // And the same bytes as manual dispatch.
  const auto manual = ServeAll(/*threads=*/1, /*max_batch=*/4, /*n=*/48);
  EXPECT_EQ(t1, manual);
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
  ModelCache::Entry* entry = service.cache().PeekForTest("m");
  ASSERT_NE(entry, nullptr);
  DeployedModel& dm = entry->model.deployed();
  Rng inject_rng(7);
  for (int i = 0; i < 32; ++i) {
    InjectFault(dm.machine().memory(), dm.image_base(),
                static_cast<uint32_t>(dm.image().flash.size()), FaultModel::kSingleBitFlip,
                1, inject_rng);
  }
  const uint64_t redeploys_before = CounterValue("recovery.redeploy");
  service.Submit(MakeRequest(1, "a", "m", 1001), done.For(1));
  done.WaitForTotal(2);
  ASSERT_GT(CounterValue("recovery.redeploy"), redeploys_before);
  ASSERT_NE(entry->model.active_encoding(), entry->model.primary_encoding());

  SubmitBacklog(service, done, "m", 2, 32, 1300);
  EXPECT_EQ(MachinesUsed(service.TakeBatchRecords(), "m"), std::set<size_t>{0});
  EXPECT_TRUE(service.cache().PeekForTest("m")->replicas.empty());
  for (const auto& [id, r] : done.responses()) {
    EXPECT_TRUE(r.ok()) << "request " << id << ": " << r.message;
  }
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

  // Single requests for `model` until the one-slot cache holds it and not `other`. A
  // worker may still be releasing `other` after its last completion; while `other` is
  // pinned, the cache evicts `model` again instead.
  const auto serve_until_resident = [&](const std::string& model, const std::string& other) {
    for (int tries = 0; tries < 100; ++tries) {
      if (service.cache().PeekForTest(other) == nullptr &&
          service.cache().PeekForTest(model) != nullptr) {
        return true;
      }
      service.Submit(MakeRequest(next_id, "a", model, 1450 + tries), done.For(next_id));
      done.WaitForTotal(++next_id);
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return false;
  };
  // m2 takes the only cache slot, and m1 goes with every machine of it.
  ASSERT_TRUE(serve_until_resident("m2", "m1"));

  // Reloaded on one machine...
  ASSERT_TRUE(serve_until_resident("m1", "m2"));
  EXPECT_EQ(MachinesUsed(service.TakeBatchRecords(), "m1"), std::set<size_t>{0});
  EXPECT_TRUE(service.cache().PeekForTest("m1")->replicas.empty());
  // ...and a new backlog forks replicas of the new machine 0 again.
  SubmitBacklog(service, done, "m1", next_id, 32, 1500);
  next_id += 32;
  EXPECT_GE(MachinesUsed(service.TakeBatchRecords(), "m1").size(), 2u);
  for (const auto& [id, r] : done.responses()) {
    EXPECT_TRUE(r.ok()) << "request " << id << ": " << r.message;
  }
  service.Stop();
}

TEST(ServeWorkersTest, StopWhileWorkersAreMidBatchCompletesEveryRequestOnce) {
  GlobalThreadsGuard guard;
  ThreadPool::SetGlobalThreads(4);
  Completions done;
  // Every completion waits here, so no worker gets past its first batch before Stop.
  Gate stopped;
  std::atomic<int> held{0};
  InferenceService service(ServeConfig{}, TestLoader({{"m1", 51}, {"m2", 52}}));
  service.Start();
  const auto hold = [&] {
    ++held;
    stopped.Wait();
  };
  constexpr uint64_t kRequests = 64;  // > 4 workers x 8 per batch: some stay queued
  for (uint64_t i = 0; i < kRequests; ++i) {
    service.Submit(MakeRequest(i, i % 3 ? "a" : "b", i % 2 ? "m1" : "m2", 1600 + i),
                   done.For(i, hold));
  }
  while (held.load() == 0) {
    std::this_thread::yield();
  }
  std::thread stopper([&service] { service.Stop(); });
  // Probe admission until it refuses: then Stop has taken the queue.
  uint64_t id = kRequests;
  for (;; ++id) {
    service.Submit(MakeRequest(id, "probe", "m1", 1700), done.For(id));
    const auto responses = done.responses();
    const auto it = responses.find(id);
    if (it != responses.end() && it->second.message == "serve: shutting down") {
      break;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
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
