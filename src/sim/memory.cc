#include "src/sim/memory.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "src/common/check.h"
#include "src/sim/guest_fault.h"

namespace neuroc {

void MemoryMap::Fault(ErrorCode code, const char* what, uint32_t addr) {
  throw GuestFault{code, what, addr};
}

void MemoryMap::HostFault(const char* what, uint32_t addr) {
  std::fprintf(stderr, "host memory access error: %s at 0x%08x\n", what, addr);
  std::abort();
}

MemoryMap::MemoryMap(uint32_t flash_base, uint32_t flash_size, uint32_t ram_base,
                     uint32_t ram_size)
    : flash_base_(flash_base),
      ram_base_(ram_base),
      flash_size_(flash_size),
      ram_size_(ram_size),
      flash_(flash_size, 0),
      ram_(ram_size, 0) {}

void MemoryMap::EnableHeatmap(uint32_t bucket_bytes) {
  NEUROC_CHECK(bucket_bytes != 0 && (bucket_bytes & (bucket_bytes - 1)) == 0);
  heatmap_ = MemHeatmap{};
  heatmap_.bucket_bytes = bucket_bytes;
  heatmap_.flash_reads.assign((flash_.size() + bucket_bytes - 1) / bucket_bytes, 0);
  heatmap_.sram_reads.assign((ram_.size() + bucket_bytes - 1) / bucket_bytes, 0);
  heatmap_.sram_writes.assign((ram_.size() + bucket_bytes - 1) / bucket_bytes, 0);
  UpdateObserving();
}

void MemoryMap::DisableHeatmap() {
  heatmap_ = MemHeatmap{};
  UpdateObserving();
}

void MemoryMap::EnableStackWatch(uint32_t floor_addr) {
  stack_watch_ = true;
  stack_floor_ = floor_addr;
  stack_low_water_ = 0xFFFFFFFFu;
  UpdateObserving();
}

void MemoryMap::Observe(uint32_t addr, MemRegion region, bool is_write) {
  if (heatmap_.bucket_bytes != 0) {
    if (region == MemRegion::kFlash) {
      const size_t b = (addr - flash_base_) / heatmap_.bucket_bytes;
      if (b < heatmap_.flash_reads.size()) {
        ++heatmap_.flash_reads[b];
      }
    } else if (region == MemRegion::kSram) {
      const size_t b = (addr - ram_base_) / heatmap_.bucket_bytes;
      std::vector<uint64_t>& counts = is_write ? heatmap_.sram_writes : heatmap_.sram_reads;
      if (b < counts.size()) {
        ++counts[b];
      }
    }
  }
  if (stack_watch_ && region == MemRegion::kSram && addr >= stack_floor_ &&
      addr < stack_low_water_) {
    stack_low_water_ = addr;
  }
}

uint8_t* MemoryMap::HostPtr(uint32_t addr, uint32_t size, bool allow_flash_write) {
  switch (RegionOf(addr)) {
    case MemRegion::kFlash:
      if (!allow_flash_write) {
        HostFault("write to flash", addr);
      }
      if (addr + size > flash_base_ + flash_.size()) {
        HostFault("flash access past end", addr);
      }
      return flash_.data() + (addr - flash_base_);
    case MemRegion::kSram:
      if (addr + size > ram_base_ + ram_.size()) {
        HostFault("sram access past end", addr);
      }
      return ram_.data() + (addr - ram_base_);
    case MemRegion::kNone:
      break;
  }
  HostFault("access to unmapped address", addr);
}

const uint8_t* MemoryMap::HostPtrConst(uint32_t addr, uint32_t size) const {
  switch (RegionOf(addr)) {
    case MemRegion::kFlash:
      if (addr + size > flash_base_ + flash_.size()) {
        HostFault("flash access past end", addr);
      }
      return flash_.data() + (addr - flash_base_);
    case MemRegion::kSram:
      if (addr + size > ram_base_ + ram_.size()) {
        HostFault("sram access past end", addr);
      }
      return ram_.data() + (addr - ram_base_);
    case MemRegion::kNone:
      break;
  }
  HostFault("access to unmapped address", addr);
}

void MemoryMap::MarkFlashChanged(uint32_t lo, uint32_t hi) {
  ++flash_generation_;
  flash_dirty_.Cover(lo, hi);
  if (flash_listener_ != nullptr) {
    *flash_listener_ = false;
  }
}

void MemoryMap::HostWrite(uint32_t addr, std::span<const uint8_t> bytes) {
  uint8_t* p = HostPtr(addr, static_cast<uint32_t>(bytes.size()), /*allow_flash_write=*/true);
  std::memcpy(p, bytes.data(), bytes.size());
  if (InFlash(addr)) {
    const uint32_t begin = addr - flash_base_;
    const uint32_t end = begin + static_cast<uint32_t>(bytes.size());
    if (end > flash_high_water_) {
      flash_high_water_ = end;
    }
    MarkFlashChanged(begin, end);
  }
}

namespace {

// Restores compare the live flash image with the capture on every scrub; memcmp over
// fixed chunks finds the differing region at memory speed before the byte loops pin it.
constexpr uint32_t kCompareChunk = 64;

// First index in [0, n) where a and b differ, or n when they are equal.
uint32_t FirstDifference(const uint8_t* a, const uint8_t* b, uint32_t n) {
  uint32_t i = 0;
  while (i + kCompareChunk <= n && std::memcmp(a + i, b + i, kCompareChunk) == 0) {
    i += kCompareChunk;
  }
  while (i < n && a[i] == b[i]) {
    ++i;
  }
  return i;
}

// One past the last index in [lo, n) where a and b differ; a[lo] != b[lo].
uint32_t EndOfDifference(const uint8_t* a, const uint8_t* b, uint32_t lo, uint32_t n) {
  uint32_t i = n;
  while (i - lo >= kCompareChunk &&
         std::memcmp(a + i - kCompareChunk, b + i - kCompareChunk, kCompareChunk) == 0) {
    i -= kCompareChunk;
  }
  while (a[i - 1] == b[i - 1]) {
    --i;
  }
  return i;
}

}  // namespace

MemoryState MemoryMap::SaveState() const {
  MemoryState s;
  s.flash.assign(flash_.begin(), flash_.begin() + flash_high_water_);
  s.flash_high_water = flash_high_water_;
  s.ram = ram_;
  s.stats = stats_;
  s.heatmap = heatmap_;
  s.stack_watch = stack_watch_;
  s.stack_floor = stack_floor_;
  s.stack_low_water = stack_low_water_;
  return s;
}

void MemoryMap::RestoreState(const MemoryState& state, bool restore_flash) {
  NEUROC_CHECK(state.ram.size() == ram_.size());
  NEUROC_CHECK(state.flash_high_water <= flash_.size());
  if (restore_flash) {
    // Rewrite only the differing range. Flash past the live high-water mark is erased
    // (0), so comparing the capture's bytes against the live image covers that part too.
    const uint32_t n = state.flash_high_water;
    FlashSpan changed;
    const uint32_t lo = FirstDifference(flash_.data(), state.flash.data(), n);
    if (lo < n) {
      const uint32_t hi = EndOfDifference(flash_.data(), state.flash.data(), lo, n);
      std::memcpy(flash_.data() + lo, state.flash.data() + lo, hi - lo);
      changed.Cover(lo, hi);
    }
    // Bytes loaded after the capture sit between the two high-water marks; re-erase them
    // so the flash image is byte-identical to capture time, then let the mark revert (a
    // restore is an explicit rewind of load history). Decode coverage follows the mark,
    // so the span between the marks is reported even where its bytes were already 0.
    if (flash_high_water_ != n) {
      if (flash_high_water_ > n) {
        std::memset(flash_.data() + n, 0, flash_high_water_ - n);
      }
      changed.Cover(std::min(n, flash_high_water_), std::max(n, flash_high_water_));
      flash_high_water_ = n;
    }
    if (!changed.empty()) {
      MarkFlashChanged(changed.lo, changed.hi);
    }
  }
  ram_ = state.ram;
  stats_ = state.stats;
  heatmap_ = state.heatmap;
  stack_watch_ = state.stack_watch;
  stack_floor_ = state.stack_floor;
  stack_low_water_ = state.stack_low_water;
  UpdateObserving();
}

void MemoryMap::HostRead(uint32_t addr, std::span<uint8_t> bytes) const {
  const uint8_t* p = HostPtrConst(addr, static_cast<uint32_t>(bytes.size()));
  std::memcpy(bytes.data(), p, bytes.size());
}

}  // namespace neuroc
