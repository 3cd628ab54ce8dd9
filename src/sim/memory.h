// Simulated memory map of the target MCU: flash at 0x08000000 and SRAM at 0x20000000, the
// STM32F072RB layout. Flash is writable from the host (image loading) but read-only to the
// simulated CPU, mirroring the real part. Alignment is enforced as on ARMv6-M (unaligned
// word/halfword accesses fault). Access counters feed the memory-behaviour analyses.

#ifndef NEUROC_SRC_SIM_MEMORY_H_
#define NEUROC_SRC_SIM_MEMORY_H_

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "src/common/status.h"

namespace neuroc {

enum class MemRegion : uint8_t { kFlash = 0, kSram = 1, kNone = 2 };

// Half-open range of flash byte offsets [lo, hi); empty when lo >= hi.
struct FlashSpan {
  uint32_t lo = 0;
  uint32_t hi = 0;
  bool empty() const { return lo >= hi; }
  // Widens the span to include [a, b); an empty range changes nothing.
  void Cover(uint32_t a, uint32_t b) {
    if (a >= b) {
      return;
    }
    if (empty()) {
      lo = a;
      hi = b;
    } else {
      lo = std::min(lo, a);
      hi = std::max(hi, b);
    }
  }
};

struct MemAccessStats {
  uint64_t flash_reads = 0;
  uint64_t sram_reads = 0;
  uint64_t sram_writes = 0;
};

// Opt-in per-region access histogram: counts of CPU accesses per `bucket_bytes`-sized
// address bucket (instruction fetches included — on a cache-less core they are flash
// traffic like any other). Feeds the profiler's memory heatmaps.
struct MemHeatmap {
  uint32_t bucket_bytes = 0;  // 0 = disabled
  std::vector<uint64_t> flash_reads;
  std::vector<uint64_t> sram_reads;
  std::vector<uint64_t> sram_writes;
};

// Snapshot of the architectural memory state (see MemoryMap::SaveState). Flash is stored
// only up to the load high-water mark — the untouched erase pattern beyond it is implied —
// so snapshots of a few-KB image don't copy the full 128 KB part. Derived state (compiled
// blocks) is deliberately absent: it is rebuilt deterministically.
struct MemoryState {
  std::vector<uint8_t> flash;  // [0, flash_high_water) at capture time
  uint32_t flash_high_water = 0;
  std::vector<uint8_t> ram;    // full SRAM
  MemAccessStats stats;
  MemHeatmap heatmap;
  bool stack_watch = false;
  uint32_t stack_floor = 0;
  uint32_t stack_low_water = 0xFFFFFFFFu;
};

class MemoryMap {
 public:
  MemoryMap(uint32_t flash_base, uint32_t flash_size, uint32_t ram_base, uint32_t ram_size);

  uint32_t flash_base() const { return flash_base_; }
  uint32_t flash_size() const { return flash_size_; }
  uint32_t ram_base() const { return ram_base_; }
  uint32_t ram_size() const { return ram_size_; }

  // Region classification over precomputed bounds. The unsigned wrap-around form compiles
  // to a single subtract+compare per region, which matters because the CPU consults this
  // on every fetch and data access for flash-wait-state accounting.
  MemRegion RegionOf(uint32_t addr) const {
    if (addr - flash_base_ < flash_size_) {
      return MemRegion::kFlash;
    }
    if (addr - ram_base_ < ram_size_) {
      return MemRegion::kSram;
    }
    return MemRegion::kNone;
  }
  bool InFlash(uint32_t addr) const { return addr - flash_base_ < flash_size_; }

  // CPU-side accessors (counted, flash writes fault). Inline over the precomputed region
  // bounds: the simulator performs one of these per fetched halfword and per load/store,
  // so the classify-count-observe-access sequence must compile to straight-line code
  // instead of two out-of-line region switches per access.
  uint8_t Read8(uint32_t addr) {
    const MemRegion region = CountRead(addr);
    return *ReadPtr(addr, 1, region);
  }
  uint16_t Read16(uint32_t addr) {
    if (addr % 2 != 0) {
      Fault(ErrorCode::kUnalignedAccess, "unaligned halfword read", addr);
    }
    const MemRegion region = CountRead(addr);
    const uint8_t* p = ReadPtr(addr, 2, region);
    return static_cast<uint16_t>(p[0] | (p[1] << 8));
  }
  uint32_t Read32(uint32_t addr) {
    if (addr % 4 != 0) {
      Fault(ErrorCode::kUnalignedAccess, "unaligned word read", addr);
    }
    const MemRegion region = CountRead(addr);
    const uint8_t* p = ReadPtr(addr, 4, region);
    return static_cast<uint32_t>(p[0]) | (static_cast<uint32_t>(p[1]) << 8) |
           (static_cast<uint32_t>(p[2]) << 16) | (static_cast<uint32_t>(p[3]) << 24);
  }
  void Write8(uint32_t addr, uint8_t value) {
    *WritePtr(addr, 1) = value;
  }
  void Write16(uint32_t addr, uint16_t value) {
    if (addr % 2 != 0) {
      Fault(ErrorCode::kUnalignedAccess, "unaligned halfword write", addr);
    }
    uint8_t* p = WritePtr(addr, 2);
    p[0] = static_cast<uint8_t>(value & 0xFF);
    p[1] = static_cast<uint8_t>(value >> 8);
  }
  void Write32(uint32_t addr, uint32_t value) {
    if (addr % 4 != 0) {
      Fault(ErrorCode::kUnalignedAccess, "unaligned word write", addr);
    }
    uint8_t* p = WritePtr(addr, 4);
    p[0] = static_cast<uint8_t>(value & 0xFF);
    p[1] = static_cast<uint8_t>((value >> 8) & 0xFF);
    p[2] = static_cast<uint8_t>((value >> 16) & 0xFF);
    p[3] = static_cast<uint8_t>((value >> 24) & 0xFF);
  }

  // Host-side loading/inspection (uncounted; may write flash).
  void HostWrite(uint32_t addr, std::span<const uint8_t> bytes);
  void HostRead(uint32_t addr, std::span<uint8_t> bytes) const;

  // Bumped on every HostWrite that lands in flash and on every RestoreState that changes
  // a flash byte or the high-water mark (restoring an unchanged image leaves it alone).
  uint64_t flash_generation() const { return flash_generation_; }
  // Returns the flash bytes that host writes and restores may have changed since the
  // last call, and clears the record. The decoded-flash consumer takes it when it syncs
  // and retires only what it built over this range; a high-water rewind is included, so
  // the consumer can drop the slots it uncovered.
  FlashSpan TakeFlashDirtySpan() {
    const FlashSpan span = flash_dirty_;
    flash_dirty_ = FlashSpan{};
    return span;
  }
  // Highest flash offset (exclusive) touched by a HostWrite; bounds how much of flash the
  // block cache needs to cover. Only a flash restore rewinds it.
  uint32_t flash_high_water() const { return flash_high_water_; }
  // Raw flash contents for host-side decoding. Fetches routed through this must be
  // recorded via CountFlashFetch to keep the access counters identical to Read16.
  std::span<const uint8_t> flash_bytes() const { return flash_; }

  // Records exactly what Read16 records for `reads` consecutive halfword instruction
  // fetches from flash starting at `addr`: one counted flash read per halfword plus the
  // opt-in heatmap/stack observations, in fetch order. The block executor calls this
  // instead of Read16 so stats and heatmaps stay bit-identical to the step interpreter,
  // which re-reads flash every step.
  void CountFlashFetches(uint32_t addr, uint32_t reads) {
    stats_.flash_reads += reads;
    if (observing()) {
      for (uint32_t i = 0; i < reads; ++i) {
        Observe(addr + 2 * i, MemRegion::kFlash, /*is_write=*/false);
      }
    }
  }

  // Batched form of CountFlashFetches for block-compiled execution when no heatmap or
  // stack watcher is attached: one add covers a whole block's instruction fetches. Callers
  // must check observing() and take the per-fetch path when it is true, otherwise the
  // opt-in histograms would miss the fetch traffic.
  void AddFlashReads(uint64_t reads) { stats_.flash_reads += reads; }

  // Single gate for the opt-in observers, cached as one flag so the counted accessors
  // stay one load-and-branch when nothing is attached. Public so the block executor can
  // pick between per-fetch observation replay and the batched counter add.
  bool observing() const { return observing_; }

  // At most one decoded-flash consumer (the owning CPU) parks its cache-validity flag
  // here; every flash change (a HostWrite into flash, a restore that rewrites a byte)
  // clears it and widens the dirty span. This replaces a per-step generation compare
  // through the MemoryMap pointer with a test of the consumer's own flag.
  void RegisterFlashWriteListener(bool* valid_flag) { flash_listener_ = valid_flag; }
  void UnregisterFlashWriteListener(bool* valid_flag) {
    if (flash_listener_ == valid_flag) {
      flash_listener_ = nullptr;
    }
  }

  const MemAccessStats& stats() const { return stats_; }
  void ResetStats() { stats_ = MemAccessStats{}; }
  // Counts accesses made off the accessors: a lockstep batch's, at its commit.
  void AddStats(const MemAccessStats& delta) {
    stats_.flash_reads += delta.flash_reads;
    stats_.sram_reads += delta.sram_reads;
    stats_.sram_writes += delta.sram_writes;
  }
  // Raw SRAM contents, the image lockstep lanes start from (uncounted, like HostRead).
  std::span<const uint8_t> sram_bytes() const { return ram_; }

  // Heatmap recording (opt-in; the plain counters above always run). Enabling clears any
  // previous histogram. `bucket_bytes` must be a power of two.
  void EnableHeatmap(uint32_t bucket_bytes);
  void DisableHeatmap();
  const MemHeatmap& heatmap() const { return heatmap_; }

  // Stack high-water tracking (opt-in): every CPU access at or above `floor_addr` in SRAM
  // is treated as a stack access (the runtime places activation buffers below the floor
  // and the stack grows down from the top of SRAM, so the two never interleave). The
  // low-water mark is the smallest such address seen — i.e. the deepest stack extent.
  void EnableStackWatch(uint32_t floor_addr);
  void DisableStackWatch() {
    stack_watch_ = false;
    UpdateObserving();
  }
  // Smallest stack address observed since EnableStackWatch; UINT32_MAX if none yet.
  uint32_t stack_low_water() const { return stack_low_water_; }

  // Captures the architectural memory state (flash up to the high-water mark, all of
  // SRAM, access stats, heatmap/stack-watch configuration and contents).
  MemoryState SaveState() const;
  // Restores a captured state. With `restore_flash` the flash contents and high-water
  // mark revert to capture time (bytes loaded after the capture are re-erased to 0).
  // Only bytes that differ from the capture are rewritten and reported as dirty, so
  // restoring an unchanged image bumps no generation and keeps every derived cache, and
  // undoing a one-byte upset marks two slots dirty. Without `restore_flash` the flash image
  // is left untouched, making the RAM-and-stats restore cheap enough for per-trial forking.
  void RestoreState(const MemoryState& state, bool restore_flash);

 private:
  // Records a change to flash bytes [lo, hi): bumps the generation, widens the dirty
  // span and clears the consumer's validity flag.
  void MarkFlashChanged(uint32_t lo, uint32_t hi);

  uint8_t* HostPtr(uint32_t addr, uint32_t size, bool allow_flash_write);
  const uint8_t* HostPtrConst(uint32_t addr, uint32_t size) const;
  void Observe(uint32_t addr, MemRegion region, bool is_write);
  // Guest (CPU-side) fault: throws GuestFault, recoverable at the Machine boundary.
  [[noreturn]] static void Fault(ErrorCode code, const char* what, uint32_t addr);
  // Host-side misuse (bad LoadBytes/HostRead arguments): a harness bug — aborts.
  [[noreturn]] static void HostFault(const char* what, uint32_t addr);

  // Classify + count + observe for a CPU read. Unmapped addresses still count as an SRAM
  // read here (matching the historical accounting) and then fault in ReadPtr.
  MemRegion CountRead(uint32_t addr) {
    const MemRegion region = RegionOf(addr);
    (region == MemRegion::kFlash ? stats_.flash_reads : stats_.sram_reads) += 1;
    if (observing()) {
      Observe(addr, region, /*is_write=*/false);
    }
    return region;
  }

  const uint8_t* ReadPtr(uint32_t addr, uint32_t size, MemRegion region) const {
    if (region == MemRegion::kFlash) {
      if (addr + size > flash_base_ + flash_size_) {
        Fault(ErrorCode::kUnmappedAccess, "flash access past end", addr);
      }
      return flash_.data() + (addr - flash_base_);
    }
    if (region == MemRegion::kSram) {
      if (addr + size > ram_base_ + ram_size_) {
        Fault(ErrorCode::kUnmappedAccess, "sram access past end", addr);
      }
      return ram_.data() + (addr - ram_base_);
    }
    Fault(ErrorCode::kUnmappedAccess, "access to unmapped address", addr);
  }

  // Count + observe + bounds-check for a CPU write. The write counter ticks before the
  // region check (as the out-of-line version always did); flash writes fault.
  uint8_t* WritePtr(uint32_t addr, uint32_t size) {
    ++stats_.sram_writes;
    const MemRegion region = RegionOf(addr);
    if (observing()) {
      Observe(addr, region, /*is_write=*/true);
    }
    if (region == MemRegion::kSram) {
      if (addr + size > ram_base_ + ram_size_) {
        Fault(ErrorCode::kUnmappedAccess, "sram access past end", addr);
      }
      return ram_.data() + (addr - ram_base_);
    }
    if (region == MemRegion::kFlash) {
      Fault(ErrorCode::kIllegalStore, "write to flash", addr);
    }
    Fault(ErrorCode::kUnmappedAccess, "access to unmapped address", addr);
  }

  void UpdateObserving() { observing_ = heatmap_.bucket_bytes != 0 || stack_watch_; }

  uint32_t flash_base_;
  uint32_t ram_base_;
  uint32_t flash_size_;
  uint32_t ram_size_;
  std::vector<uint8_t> flash_;
  std::vector<uint8_t> ram_;
  uint64_t flash_generation_ = 0;
  uint32_t flash_high_water_ = 0;
  FlashSpan flash_dirty_;
  bool* flash_listener_ = nullptr;
  MemAccessStats stats_;
  MemHeatmap heatmap_;
  bool observing_ = false;
  bool stack_watch_ = false;
  uint32_t stack_floor_ = 0;
  uint32_t stack_low_water_ = 0xFFFFFFFFu;
};

}  // namespace neuroc

#endif  // NEUROC_SRC_SIM_MEMORY_H_
