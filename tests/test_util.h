// Shared helpers for the unit tests: seeded random-model construction (previously
// duplicated across the firmware, robustness and fault-campaign tests), the global
// thread-pool guard, machine-snapshot equality, a call run on all three decode paths,
// and the FakeClient serve-protocol client (tests that use it must link neuroc_serve).
// Layers are built sequentially from a single Rng, so a (seed, spec) pair fully
// determines the model.

#ifndef NEUROC_TESTS_TEST_UTIL_H_
#define NEUROC_TESTS_TEST_UTIL_H_

#include <gtest/gtest.h>
#include <poll.h>
#include <unistd.h>

#include <cstdint>
#include <initializer_list>
#include <span>
#include <utility>
#include <vector>

#include "src/common/thread_pool.h"
#include "src/core/synthetic.h"
#include "src/serve/frame.h"
#include "src/sim/machine.h"

namespace neuroc::testutil {

struct TestModelSpec {
  std::vector<size_t> dims = {64, 24, 10};  // in_dim, hidden..., out_dim
  double density = 0.2;
  EncodingKind encoding = EncodingKind::kBlock;
  bool has_scale = true;
  bool final_relu = false;  // hidden layers always use relu
};

inline NeuroCModel MakeTestModel(uint64_t seed, const TestModelSpec& spec = {}) {
  Rng rng(seed);
  std::vector<QuantNeuroCLayer> layers;
  for (size_t i = 0; i + 1 < spec.dims.size(); ++i) {
    SyntheticNeuroCLayerSpec layer;
    layer.in_dim = spec.dims[i];
    layer.out_dim = spec.dims[i + 1];
    layer.density = spec.density;
    layer.encoding = spec.encoding;
    layer.has_scale = spec.has_scale;
    layer.relu = i + 2 < spec.dims.size() ? true : spec.final_relu;
    layers.push_back(MakeSyntheticNeuroCLayer(layer, rng));
  }
  return NeuroCModel::FromLayers(std::move(layers));
}

// Restores the default (env-derived) global pool size when a test returns or throws.
struct GlobalThreadsGuard {
  ~GlobalThreadsGuard() { ThreadPool::SetGlobalThreads(0); }
};

// Field-by-field equality over everything a MachineSnapshot captures. Done explicitly
// (not memcmp) so a failure names the diverging quantity.
inline void ExpectSnapshotsEqual(const MachineSnapshot& a, const MachineSnapshot& b) {
  EXPECT_EQ(a.cpu.regs, b.cpu.regs);
  EXPECT_EQ(a.cpu.pc, b.cpu.pc);
  EXPECT_EQ(a.cpu.flags.n, b.cpu.flags.n);
  EXPECT_EQ(a.cpu.flags.z, b.cpu.flags.z);
  EXPECT_EQ(a.cpu.flags.c, b.cpu.flags.c);
  EXPECT_EQ(a.cpu.flags.v, b.cpu.flags.v);
  EXPECT_EQ(a.cpu.cycles, b.cpu.cycles);
  EXPECT_EQ(a.cpu.instructions, b.cpu.instructions);
  EXPECT_EQ(a.memory.flash, b.memory.flash);
  EXPECT_EQ(a.memory.flash_high_water, b.memory.flash_high_water);
  EXPECT_EQ(a.memory.ram, b.memory.ram);
  EXPECT_EQ(a.memory.stats.flash_reads, b.memory.stats.flash_reads);
  EXPECT_EQ(a.memory.stats.sram_reads, b.memory.stats.sram_reads);
  EXPECT_EQ(a.memory.stats.sram_writes, b.memory.stats.sram_writes);
  EXPECT_EQ(a.memory.heatmap.bucket_bytes, b.memory.heatmap.bucket_bytes);
  EXPECT_EQ(a.memory.heatmap.flash_reads, b.memory.heatmap.flash_reads);
  EXPECT_EQ(a.memory.heatmap.sram_reads, b.memory.heatmap.sram_reads);
  EXPECT_EQ(a.memory.heatmap.sram_writes, b.memory.heatmap.sram_writes);
}

// Loads `program` at the flash base of `block` and of two twins built from its config —
// one on the predecode cache alone, one on legacy decode-every-step — calls it with
// `args` on all three, and expects each twin's snapshot (registers, pc, flags, cycles,
// instructions, memory and its statistics) to equal the block-compiled machine's.
// `block` must be on its default path. Returns the block machine's call cycles.
inline uint64_t CallOnAllDecodePaths(Machine& block, std::span<const uint8_t> program,
                                     std::initializer_list<uint32_t> args) {
  Machine cached(block.config());
  Machine legacy(block.config());
  cached.cpu().EnableBlockCompile(false);
  legacy.cpu().EnableDecodeCache(false);
  const uint32_t entry = block.config().flash_base;
  uint64_t cycles = 0;
  for (Machine* m : {&legacy, &cached, &block}) {
    m->LoadBytes(entry, program);
    cycles = m->CallFunction(entry, args);
  }
  const MachineSnapshot want = block.Snapshot();
  {
    SCOPED_TRACE("predecode-cache path vs block path");
    ExpectSnapshotsEqual(cached.Snapshot(), want);
  }
  {
    SCOPED_TRACE("legacy path vs block path");
    ExpectSnapshotsEqual(legacy.Snapshot(), want);
  }
  return cycles;
}

// Identity of two fault reports (code, message, stamped pc/address, counters).
inline void ExpectFaultsEqual(const FaultReport& a, const FaultReport& b) {
  EXPECT_EQ(a.code, b.code);
  EXPECT_EQ(a.message, b.message);
  EXPECT_EQ(a.pc, b.pc);
  EXPECT_EQ(a.addr, b.addr);
  EXPECT_EQ(a.instruction, b.instruction);
  EXPECT_EQ(a.cycles, b.cycles);
  EXPECT_EQ(a.instructions, b.instructions);
}

// Scripted serve-protocol client over one end of a socketpair: sends request frames (or
// raw bytes, for malformed-input tests) and reads response frames with a poll timeout so
// a server bug can never hang the test binary. Every read is bounded; responses arrive
// in completion order and are matched to requests by request_id, not stream position.
class FakeClient {
 public:
  explicit FakeClient(int fd) : fd_(fd) {}
  ~FakeClient() { Close(); }
  FakeClient(const FakeClient&) = delete;
  FakeClient& operator=(const FakeClient&) = delete;

  bool SendRequest(const ServeRequest& request) {
    const std::vector<uint8_t> frame = EncodeRequestFrame(request);
    return SendBytes(frame.data(), frame.size());
  }

  bool SendBytes(const void* data, size_t n) {
    const uint8_t* p = static_cast<const uint8_t*>(data);
    size_t off = 0;
    while (off < n) {
      const ssize_t w = ::write(fd_, p + off, n - off);
      if (w <= 0) {
        return false;
      }
      off += static_cast<size_t>(w);
    }
    return true;
  }

  // Blocks (bounded by `timeout_ms`) for the next response frame on the stream.
  StatusOr<ServeResponse> ReadResponse(int timeout_ms = 10000) {
    for (;;) {
      std::vector<uint8_t> payload;
      StatusOr<bool> got = reader_.Next(&payload);
      if (!got.ok()) {
        return got.status();
      }
      if (*got) {
        return DecodeResponsePayload(payload);
      }
      pollfd pfd{fd_, POLLIN, 0};
      const int ready = ::poll(&pfd, 1, timeout_ms);
      if (ready <= 0) {
        return Status(ErrorCode::kDeadlineExceeded, "FakeClient: response timeout");
      }
      uint8_t buf[4096];
      const ssize_t n = ::read(fd_, buf, sizeof(buf));
      if (n <= 0) {
        return Status(ErrorCode::kIoError, "FakeClient: connection closed");
      }
      reader_.Feed(std::span<const uint8_t>(buf, static_cast<size_t>(n)));
    }
  }

  void Close() {
    if (fd_ >= 0) {
      ::close(fd_);
      fd_ = -1;
    }
  }

 private:
  int fd_ = -1;
  FrameReader reader_;
};

}  // namespace neuroc::testutil

#endif  // NEUROC_TESTS_TEST_UTIL_H_
