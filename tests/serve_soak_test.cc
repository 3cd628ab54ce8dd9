// Concurrency soak for the serving layer: N tenants x M in-flight requests per tenant
// over real socketpair connections with seeded arrival jitter, against the live workers
// and a cache smaller than the model set (so eviction/reload churns under load, dropping
// replica machines with their models). Run under TSan in CI (the dedicated tsan job) —
// the assertions here are deliberately coarse (everything answered, every answer
// correct); the interesting property is that no data race, deadlock or lost completion
// shows up while the scheduler, cache and connections all contend.

#include <sys/socket.h>

#include <atomic>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "src/serve/server.h"
#include "src/serve/service.h"
#include "tests/test_util.h"

namespace neuroc {
namespace {

using testutil::FakeClient;
using testutil::MakeTestModel;
using testutil::TestModelSpec;

constexpr size_t kInDim = 16;
constexpr size_t kTenants = 4;       // one connection per tenant
constexpr size_t kPerTenant = 24;    // requests per tenant
constexpr size_t kModels = 3;
constexpr size_t kCacheCapacity = 2; // < kModels: eviction churns throughout

TestModelSpec SmallSpec() {
  TestModelSpec spec;
  spec.dims = {kInDim, 12, 10};
  spec.density = 0.3;
  return spec;
}

std::string ModelName(size_t m) {
  std::string name = "m";
  name += std::to_string(m);
  return name;
}

TEST(ServeSoakTest, ManyTenantsManyInFlightAllAnsweredCorrectly) {
  ServeConfig cfg;
  cfg.max_batch = 4;
  cfg.cache_capacity = kCacheCapacity;
  std::map<std::string, uint64_t> seeds;
  for (size_t m = 0; m < kModels; ++m) {
    seeds[ModelName(m)] = 300 + m;
  }
  InferenceService service(cfg, [seeds](const std::string& name) -> StatusOr<NeuroCModel> {
    const auto it = seeds.find(name);
    if (it == seeds.end()) {
      return Status(ErrorCode::kIoError, "no such model: " + name);
    }
    return MakeTestModel(it->second, SmallSpec());
  });
  service.Start();
  FrameServer server(&service);

  std::vector<NeuroCModel> hosts;
  for (size_t m = 0; m < kModels; ++m) {
    hosts.push_back(MakeTestModel(300 + m, SmallSpec()));
  }

  std::atomic<size_t> answered{0};
  std::atomic<size_t> wrong{0};
  std::vector<std::thread> tenants;
  for (size_t t = 0; t < kTenants; ++t) {
    tenants.emplace_back([&, t] {
      int fds[2];
      ASSERT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
      server.AddConnection(fds[0]);
      FakeClient client(fds[1]);
      Rng rng(7000 + t);  // seeded jitter: this tenant's schedule replays identically

      std::map<uint64_t, std::pair<size_t, std::vector<int8_t>>> in_flight;
      for (size_t i = 0; i < kPerTenant; ++i) {
        const size_t model = rng.NextBounded(kModels);
        ServeRequest req;
        req.request_id = t * 1000 + i;
        req.tenant = "tenant" + std::to_string(t);
        req.model = ModelName(model);
        req.input.resize(kInDim);
        for (int8_t& v : req.input) {
          v = static_cast<int8_t>(rng.NextInt(-128, 127));
        }
        in_flight[req.request_id] = {model, req.input};
        ASSERT_TRUE(client.SendRequest(req));
        if (rng.NextBool(0.3)) {
          std::this_thread::sleep_for(std::chrono::microseconds(rng.NextBounded(200)));
        }
      }
      // Drain all responses for this connection; order is completion order.
      for (size_t i = 0; i < kPerTenant; ++i) {
        const StatusOr<ServeResponse> resp = client.ReadResponse(/*timeout_ms=*/60000);
        ASSERT_TRUE(resp.ok()) << resp.status().ToString();
        ASSERT_TRUE(resp->ok()) << resp->message;
        const auto it = in_flight.find(resp->request_id);
        ASSERT_NE(it, in_flight.end());
        const auto& [model, input] = it->second;
        if (resp->prediction != hosts[model].Predict(input)) {
          ++wrong;
        }
        in_flight.erase(it);
        ++answered;
      }
      EXPECT_TRUE(in_flight.empty());
    });
  }
  for (std::thread& t : tenants) {
    t.join();
  }

  EXPECT_EQ(answered.load(), kTenants * kPerTenant);
  EXPECT_EQ(wrong.load(), 0u);

  server.Stop();
  service.Stop();
}

}  // namespace
}  // namespace neuroc
