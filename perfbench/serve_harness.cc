#include "serve_harness.h"

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <future>
#include <limits>
#include <thread>

#include "src/common/check.h"
#include "src/common/rng.h"
#include "src/common/thread_pool.h"
#include "src/core/synthetic.h"
#include "src/runtime/profile.h"
#include "src/serve/frame.h"

namespace perfbench {
namespace {

struct ServeModelSpec {
  const char* name;
  size_t in;
  size_t hidden;
  size_t out;
  double density;
};
// The two bench_serve_throughput shapes, an event-detection-sized model and the fault
// campaign's shape: requests cost about 4.3k to 10k simulated cycles.
constexpr ServeModelSpec kSpecs[kServeModels] = {
    {"m16x12", 16, 12, 10, 0.3},
    {"m16x20", 16, 20, 10, 0.2},
    {"m33x32", 33, 32, 5, 0.2},
    {"m64x32", 64, 32, 10, 0.2},
};
constexpr size_t kInputsPerModel = 128;
// Tenant 0 sends about 60% of requests, tenants 1 and 2 about 20% each.
constexpr double kTenantCdf[kServeTenants] = {0.6, 0.8, 1.0};
constexpr const char* kTenantNames[kServeTenants] = {"alpha", "beta", "gamma"};
// How long a step may take to drain after its last scheduled send.
constexpr double kDrainSeconds = 3.0;

// Spins, yielding the core while anything else is runnable: a sleeping generator wakes
// up to a millisecond late, which would show up as latency of the requests behind it.
void WaitUntil(Clock::time_point t) {
  while (Clock::now() < t) {
    std::this_thread::yield();
  }
}

void WriteAll(int fd, const std::vector<uint8_t>& bytes) {
  size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n = ::write(fd, bytes.data() + off, bytes.size() - off);
    if (n < 0 && errno == EINTR) {
      continue;
    }
    NEUROC_CHECK_MSG(n > 0, "serve harness: write to the frame server failed");
    off += static_cast<size_t>(n);
  }
}

double Ms(Clock::duration d) { return std::chrono::duration<double, std::milli>(d).count(); }

// A request's latency stays +infinity until a matching response arrives.
void InitLatencies(size_t n, ServeStep& step) {
  step.latency_ms.assign(n, std::numeric_limits<double>::infinity());
}

void CountFailures(ServeStep& step) {
  for (double ms : step.latency_ms) {
    step.ops.failed += std::isinf(ms) ? 1 : 0;
  }
}

}  // namespace

neuroc::NeuroCModel BuildServeModel(uint64_t seed, size_t index) {
  const ServeModelSpec& s = kSpecs[index];
  return MakeTwoLayerModel(seed * 131 + index, s.in, s.hidden, s.out, s.density);
}

ServeHarness::ServeHarness(uint64_t seed, SpanLog* log) : seed_(seed) {
  for (size_t i = 0; i < kServeModels; ++i) {
    Model m;
    m.name = kSpecs[i].name;
    const neuroc::NeuroCModel host = BuildServeModel(seed, i);
    neuroc::Rng rng(seed * 977 + i);
    {
      ScopedSpan span(log, "core.host_predict");
      for (size_t k = 0; k < kInputsPerModel; ++k) {
        m.inputs.push_back(neuroc::MakeRandomInput(host.in_dim(), rng));
        m.expected.push_back(host.Predict(m.inputs.back()));
      }
    }
    ScopedSpan span(log, "runtime.solo_deploy_profile");
    neuroc::StatusOr<neuroc::DeployedModel> dm = neuroc::DeployedModel::TryDeploy(host);
    NEUROC_CHECK_MSG(dm.ok(), "serve harness: reference deployment failed");
    const neuroc::InferenceProfile profile = neuroc::ProfileInferenceDetailed(*dm);
    m.cycles = profile.summary.cycles;
    m.energy_pj = static_cast<uint64_t>(std::llround(profile.energy.total_pj));
    m.program_bytes = dm->report().program_bytes;
    models_.push_back(std::move(m));
  }
}

ServeHarness::~ServeHarness() { Stop(); }

void ServeHarness::Start(unsigned pool_threads, SpanLog* log) {
  NEUROC_CHECK(service_ == nullptr);
  neuroc::ThreadPool::SetGlobalThreads(pool_threads);
  neuroc::ServeConfig cfg;
  cfg.max_batch = 8;
  cfg.cache_capacity = kServeModels;
  // Deep enough that a host stall of tens of milliseconds at the top ladder rate queues
  // rather than refuses; sustained overload still shows as a growing backlog.
  cfg.max_queue_depth = 8192;
  const uint64_t seed = seed_;
  neuroc::ModelLoader loader =
      [this, seed](const std::string& name) -> neuroc::StatusOr<neuroc::NeuroCModel> {
    for (size_t i = 0; i < kServeModels; ++i) {
      if (name == kSpecs[i].name) {
        const Clock::time_point t0 = Clock::now();
        neuroc::NeuroCModel model = BuildServeModel(seed, i);
        load_ns_ += static_cast<uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t0).count());
        ++loads_;
        return model;
      }
    }
    return neuroc::Status(neuroc::ErrorCode::kIoError, "no such model: " + name);
  };
  {
    ScopedSpan span(log, "serve.start");
    service_ = std::make_unique<neuroc::InferenceService>(cfg, std::move(loader));
    service_->Start();
    server_ = std::make_unique<neuroc::FrameServer>(service_.get());
    for (size_t t = 0; t < kServeTenants; ++t) {
      int sv[2];
      NEUROC_CHECK(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv) == 0);
      server_->AddConnection(sv[0]);
      client_fd_[t] = sv[1];
    }
  }
  // One request per model: every model is resident before anything is timed.
  ScopedSpan span(log, "serve.warm_cache");
  for (size_t i = 0; i < kServeModels; ++i) {
    Request r;
    r.id = next_id_++;
    r.model = static_cast<uint8_t>(i);
    std::promise<neuroc::ServeResponse> done;
    std::future<neuroc::ServeResponse> response = done.get_future();
    service_->Submit(MakeRequest(r),
                     [&done](const neuroc::ServeResponse& resp) { done.set_value(resp); });
    NEUROC_CHECK_MSG(Matches(r, response.get()), "serve harness: warm-up response mismatch");
  }
}

void ServeHarness::Stop() {
  if (server_ != nullptr) {
    server_->Stop();
  }
  if (service_ != nullptr) {
    service_->Stop();
  }
  for (int& fd : client_fd_) {
    if (fd >= 0) {
      ::close(fd);
      fd = -1;
    }
  }
  server_.reset();
  service_.reset();
}

size_t ServeHarness::flash_bytes() const {
  size_t total = 0;
  for (const Model& m : models_) {
    total += m.program_bytes;
  }
  return total;
}

double ServeHarness::mean_cycles() const {
  double total = 0.0;
  for (const Model& m : models_) {
    total += static_cast<double>(m.cycles) / static_cast<double>(models_.size());
  }
  return total;
}

double ServeHarness::mean_energy_pj() const {
  double total = 0.0;
  for (const Model& m : models_) {
    total += static_cast<double>(m.energy_pj) / static_cast<double>(models_.size());
  }
  return total;
}

std::vector<ServeHarness::Request> ServeHarness::Schedule(double rate, double seconds,
                                                          uint64_t step_seed) {
  neuroc::Rng rng(seed_ * 0x9E3779B97F4A7C15ull + step_seed);
  std::vector<Request> out;
  double t = 0.0;
  for (;;) {
    t += -std::log(1.0 - rng.NextDouble()) / rate;  // exponential gaps: Poisson arrivals
    if (t >= seconds) {
      break;
    }
    Request r;
    r.id = next_id_++;
    r.at_s = t;
    const double u = rng.NextDouble();
    while (u >= kTenantCdf[r.tenant]) {
      ++r.tenant;
    }
    r.model = static_cast<uint8_t>(rng.NextBounded(kServeModels));
    r.input = static_cast<uint16_t>(rng.NextBounded(kInputsPerModel));
    out.push_back(r);
  }
  return out;
}

neuroc::ServeRequest ServeHarness::MakeRequest(const Request& r) const {
  neuroc::ServeRequest req;
  req.request_id = r.id;
  req.tenant = kTenantNames[r.tenant];
  req.model = models_[r.model].name;
  req.input = models_[r.model].inputs[r.input];
  return req;
}

bool ServeHarness::Matches(const Request& r, const neuroc::ServeResponse& resp) const {
  const Model& m = models_[r.model];
  return resp.ok() && resp.request_id == r.id && resp.prediction == m.expected[r.input] &&
         resp.cycles == m.cycles && resp.energy_pj == m.energy_pj;
}

ServeStep ServeHarness::RunFrameStep(double rate, double seconds, uint64_t step_seed) {
  const std::vector<Request> reqs = Schedule(rate, seconds, step_seed);
  const size_t n = reqs.size();
  ServeStep step;
  step.ops.attempted = n;
  if (n == 0) {
    return step;
  }
  const uint64_t id_base = reqs.front().id;
  InitLatencies(n, step);
  std::vector<std::vector<uint8_t>> frames(n);
  size_t expect[kServeTenants] = {};
  for (size_t i = 0; i < n; ++i) {
    frames[i] = neuroc::EncodeRequestFrame(MakeRequest(reqs[i]));
    ++expect[reqs[i].tenant];
  }
  const Clock::time_point base = Clock::now() + std::chrono::milliseconds(5);
  std::vector<Clock::time_point> due(n);
  for (size_t i = 0; i < n; ++i) {
    due[i] = base + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(reqs[i].at_s));
  }
  const Clock::time_point deadline =
      base + std::chrono::duration_cast<Clock::duration>(
                 std::chrono::duration<double>(seconds + kDrainSeconds));

  // Each reader writes only its own tenant's latency slots.
  struct ReaderOut {
    uint64_t received = 0;
    uint64_t mismatched = 0;
  };
  ReaderOut outs[kServeTenants];
  std::vector<std::thread> readers;
  for (size_t t = 0; t < kServeTenants; ++t) {
    readers.emplace_back([&, t] {
      ReaderOut& out = outs[t];
      neuroc::FrameReader reader;
      std::vector<uint8_t> buf(1 << 16);
      std::vector<uint8_t> payload;
      while (out.received < expect[t] && Clock::now() < deadline) {
        pollfd pfd{client_fd_[t], POLLIN, 0};
        if (::poll(&pfd, 1, 20) <= 0) {
          continue;
        }
        const ssize_t got = ::read(client_fd_[t], buf.data(), buf.size());
        if (got <= 0) {
          break;
        }
        reader.Feed({buf.data(), static_cast<size_t>(got)});
        for (;;) {
          neuroc::StatusOr<bool> more = reader.Next(&payload);
          if (!more.ok() || !*more) {
            break;
          }
          neuroc::StatusOr<neuroc::ServeResponse> resp = neuroc::DecodeResponsePayload(payload);
          const Clock::time_point now = Clock::now();
          if (!resp.ok() || resp->request_id < id_base || resp->request_id - id_base >= n) {
            continue;  // a late response of an earlier step, or garbage: counted missing
          }
          const size_t i = resp->request_id - id_base;
          ++out.received;
          if (Matches(reqs[i], *resp)) {
            step.latency_ms[i] = Ms(now - due[i]);
          } else {
            out.mismatched += resp->ok() ? 1 : 0;
          }
        }
      }
    });
  }

  step.lag_ms.reserve(n);
  step.queue_depth.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    WaitUntil(due[i]);
    step.lag_ms.push_back(Ms(Clock::now() - due[i]));
    step.queue_depth.push_back(service_->QueueDepth());
    WriteAll(client_fd_[reqs[i].tenant], frames[i]);
  }
  for (std::thread& r : readers) {
    r.join();
  }
  for (const ReaderOut& out : outs) {
    step.mismatched += out.mismatched;
  }
  CountFailures(step);
  return step;
}

ServeStep ServeHarness::RunDirectStep(double rate, double seconds, uint64_t step_seed) {
  const std::vector<Request> reqs = Schedule(rate, seconds, step_seed);
  const size_t n = reqs.size();
  ServeStep step;
  step.ops.attempted = n;
  InitLatencies(n, step);
  std::vector<neuroc::ServeRequest> requests;
  requests.reserve(n);
  for (const Request& r : reqs) {
    requests.push_back(MakeRequest(r));
  }
  struct Slot {
    Clock::time_point submitted;
    Clock::time_point done;
    neuroc::ServeResponse response;
  };
  std::vector<Slot> slots(n);
  std::atomic<size_t> completed{0};
  const Clock::time_point base = Clock::now() + std::chrono::milliseconds(5);
  std::vector<Clock::time_point> due(n);
  for (size_t i = 0; i < n; ++i) {
    due[i] = base + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(reqs[i].at_s));
  }
  for (size_t i = 0; i < n; ++i) {
    WaitUntil(due[i]);
    step.lag_ms.push_back(Ms(Clock::now() - due[i]));
    step.queue_depth.push_back(service_->QueueDepth());
    Slot& slot = slots[i];
    slot.submitted = Clock::now();
    service_->Submit(std::move(requests[i]), [&slot, &completed](const neuroc::ServeResponse& r) {
      slot.done = Clock::now();
      slot.response = r;
      completed.fetch_add(1, std::memory_order_release);
    });
    step.submit_us.push_back(1e3 * Ms(Clock::now() - slot.submitted));
  }
  // Every completion fires (the service fails what it cannot serve), and the callbacks
  // refer to `slots`, so wait for all of them.
  while (completed.load(std::memory_order_acquire) < n) {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  for (size_t i = 0; i < n; ++i) {
    if (Matches(reqs[i], slots[i].response)) {
      step.latency_ms[i] = Ms(slots[i].done - due[i]);
      step.service_ms.push_back(Ms(slots[i].done - slots[i].submitted));
    } else {
      step.mismatched += slots[i].response.ok() ? 1 : 0;
    }
  }
  CountFailures(step);
  return step;
}

ServeStep ServeHarness::RunClosedFrameStep(double seconds, uint64_t step_seed,
                                           Tracer* tracer) {
  ServeStep step;
  struct Sent {
    Request request;
    Clock::time_point at;
    uint64_t root = 0;
  };
  struct TenantOut {
    ChunkedSummary latency{kLatencyChunk};
    OpCounts ops;
    uint64_t completed = 0;
    uint64_t mismatched = 0;
  };
  TenantOut outs[kServeTenants];
  // Each tenant owns a disjoint id range, so its thread needs no shared state.
  const uint64_t id_base = next_id_;
  constexpr uint64_t kIdsPerTenant = uint64_t{1} << 32;
  next_id_ += kServeTenants * kIdsPerTenant;
  const Clock::time_point start = Clock::now();
  const Clock::time_point stop_sending =
      start + std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(seconds));
  const Clock::time_point deadline =
      stop_sending + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(kDrainSeconds));
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kServeTenants; ++t) {
    SpanLog* tlog = tracer != nullptr ? tracer->NewLog() : nullptr;
    threads.emplace_back([&, t, tlog] {
      TenantOut& out = outs[t];
      neuroc::Rng rng(seed_ * 0x9E3779B97F4A7C15ull + step_seed * kServeTenants + t);
      const uint64_t first_id = id_base + t * kIdsPerTenant;
      // Outstanding requests by id modulo kRing; ids far apart never share a slot
      // because at most kClosedWindow[t] are outstanding.
      constexpr size_t kRing = 1 << 12;
      std::vector<Sent> ring(kRing);
      uint64_t next = first_id;
      size_t outstanding = 0;
      neuroc::FrameReader reader;
      std::vector<uint8_t> buf(1 << 16);
      std::vector<uint8_t> payload;
      for (;;) {
        const Clock::time_point now = Clock::now();
        const bool sending = now < stop_sending;
        while (sending && outstanding < kClosedWindow[t]) {
          Sent& s = ring[next % kRing];
          s.request.id = next++;
          s.request.tenant = static_cast<uint8_t>(t);
          s.request.model = static_cast<uint8_t>(rng.NextBounded(kServeModels));
          s.request.input = static_cast<uint16_t>(rng.NextBounded(kInputsPerModel));
          s.root = tracer != nullptr ? tracer->NextId() : 0;
          s.at = Clock::now();
          {
            ScopedSpan span(tlog, "bench.write_request_frame", s.root, s.request.id);
            WriteAll(client_fd_[t], neuroc::EncodeRequestFrame(MakeRequest(s.request)));
          }
          ++outstanding;
          ++out.ops.attempted;
        }
        if ((!sending && outstanding == 0) || now >= deadline) {
          break;
        }
        pollfd pfd{client_fd_[t], POLLIN, 0};
        if (::poll(&pfd, 1, 20) <= 0) {
          continue;
        }
        const ssize_t got = ::read(client_fd_[t], buf.data(), buf.size());
        if (got <= 0) {
          break;
        }
        reader.Feed({buf.data(), static_cast<size_t>(got)});
        for (;;) {
          neuroc::StatusOr<bool> more = reader.Next(&payload);
          if (!more.ok() || !*more) {
            break;
          }
          const int64_t decode_start = tlog != nullptr ? tracer->NowNs() : 0;
          neuroc::StatusOr<neuroc::ServeResponse> resp = neuroc::DecodeResponsePayload(payload);
          const Clock::time_point at = Clock::now();
          if (!resp.ok() || ring[resp->request_id % kRing].request.id != resp->request_id) {
            continue;  // a late response of an earlier step, or garbage: counted missing
          }
          const Sent& s = ring[resp->request_id % kRing];
          --outstanding;
          if (Matches(s.request, *resp)) {
            ++out.completed;
            out.latency.Add(Ms(at - s.at));
          } else {
            out.mismatched += resp->ok() ? 1 : 0;
          }
          if (tlog != nullptr) {
            tlog->Record({"serve.decode_response", tracer->NextId(), s.root, s.request.id,
                          decode_start, tracer->ToNs(at), 0});
            tlog->Record({"serve.request", s.root, 0, s.request.id, tracer->ToNs(s.at),
                          tracer->ToNs(at), 0});
          }
        }
      }
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }

  ChunkedSummary latency(kLatencyChunk);
  uint64_t completed = 0;
  for (const TenantOut& out : outs) {
    latency.Merge(out.latency);
    completed += out.completed;
    step.ops.attempted += out.ops.attempted;
    step.mismatched += out.mismatched;
  }
  step.ops.failed = step.ops.attempted - completed;
  step.latency = latency.Result();
  step.throughput = static_cast<double>(completed) / seconds;
  return step;
}

namespace {

// The fixed ladder, in requests per second: kLadderSteps rates kLadderRatio apart from
// kLadderLowest, spanning the capacity measured on a 4-core host (perfbench/PROVENANCE.json).
constexpr double kLadderLowest = 50000.0;
constexpr double kLadderRatio = 1.06;
constexpr int kLadderSteps = 9;
// Chunked p99 limit. Host stalls put the chunked p99 at 0.2-3 ms at every rate below
// capacity; queueing past capacity takes it to tens of milliseconds.
constexpr double kLatencyLimitMs = 5.0;
// A step's backlog grows when its last-quarter queue depth exceeds the first quarter's
// by more than this many requests (eight full batches).
constexpr double kBacklogSlack = 64.0;
// A step whose generator sent late by more than this (chunked tail) is invalid.
constexpr double kMaxGeneratorLagMs = 1.0;

}  // namespace

Summary Chunked(const std::vector<double>& samples) {
  ChunkedSummary c(kLatencyChunk);
  for (double v : samples) {
    c.Add(v);
  }
  return c.Result();
}

void CheckPayloads(const ServeStep& step, Report& report) {
  if (step.mismatched > 0) {
    report.Mismatch("serve: " + std::to_string(step.mismatched) +
                    " responses differ from the host reference");
  }
}

OpenLoopResult MeasureOpenLoop(ServeHarness& harness, double nominal_seconds,
                               double step_seconds, Report& report) {
  OpenLoopResult r;
  r.nominal = harness.RunFrameStep(kServeNominalRate, nominal_seconds, 1);
  CheckPayloads(r.nominal, report);
  r.latency = Chunked(r.nominal.latency_ms);
  r.lag = Chunked(r.nominal.lag_ms);
  report.Note("open loop at " + Fmt(kServeNominalRate) + " req/s: p50 " +
              Fmt(r.latency.median) + " ms, p" + Fmt(r.latency.tail_pct) + " " +
              Fmt(r.latency.tail) + " ms over " + std::to_string(r.latency.count) +
              " requests, failed " + std::to_string(r.nominal.ops.failed) +
              ", generator lag " + Fmt(r.lag.tail) + " ms" +
              (r.lag.tail <= kMaxGeneratorLagMs ? "" : " (generator late: invalid)"));
  int failing_in_a_row = 0;
  for (int k = 0; k < kLadderSteps && failing_in_a_row < 2; ++k) {
    const double rate = kLadderLowest * std::pow(kLadderRatio, k);
    const ServeStep step = harness.RunFrameStep(rate, step_seconds, 100 + k);
    CheckPayloads(step, report);
    const Summary lat = Chunked(step.latency_ms);
    const Summary lag = Chunked(step.lag_ms);
    const StepVerdict v =
        JudgeStep(lat, step.ops, step.queue_depth, kLatencyLimitMs, kBacklogSlack);
    const bool meets = v.meets_slo && lag.tail <= kMaxGeneratorLagMs;
    if (meets) {
      r.max_rps_at_slo = rate;
      failing_in_a_row = 0;
    } else {
      ++failing_in_a_row;
    }
    report.Note("  ladder " + Fmt(rate) + " req/s: p" + Fmt(lat.tail_pct) + " " +
                Fmt(lat.tail) + " ms over " + std::to_string(lat.count) + " requests, failed " +
                std::to_string(step.ops.failed) + ", backlog " +
                (v.backlog_growing ? "growing" : "flat") + ", generator lag " +
                Fmt(lag.tail) + " ms" + (meets ? " -> meets" : ""));
  }
  report.Note("max_rps_at_slo: " + Fmt(r.max_rps_at_slo) + " req/s (chunked p99 <= " +
              Fmt(kLatencyLimitMs) + " ms, no failures, flat backlog)");
  return r;
}

}  // namespace perfbench
