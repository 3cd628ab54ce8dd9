#include "src/sim/cpu.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <span>

#include "src/common/check.h"
#include "src/isa/decoder.h"
#include "src/isa/disassembler.h"
#include "src/sim/guest_fault.h"

namespace neuroc {

Cpu::Cpu(MemoryMap* memory, CycleModel model) : mem_(memory), model_(model) {
  mem_->RegisterFlashWriteListener(&icache_valid_);
}

Cpu::~Cpu() { mem_->UnregisterFlashWriteListener(&icache_valid_); }

void Cpu::EnableDecodeCache(bool enabled) {
  icache_enabled_ = enabled;
  if (!enabled) {
    FlushBlockHistograms();
    FlushBlockProfiles();
    icache_ = std::vector<Predecoded>();  // release memory, not just clear
    blocks_ = std::vector<Block>();
    block_index_ = std::vector<int32_t>();
    free_blocks_ = std::vector<int32_t>();
    icache_valid_ = false;
  }
}

void Cpu::EnableBlockCompile(bool enabled) {
  block_enabled_ = enabled;
  if (!enabled) {
    FlushBlockHistograms();
    FlushBlockProfiles();
    blocks_ = std::vector<Block>();
    block_index_ = std::vector<int32_t>();
    free_blocks_ = std::vector<int32_t>();
  }
  // Force a rebuild either way so block_index_ is (re)sized with the decode cache.
  icache_valid_ = false;
}

void Cpu::EnableBlockProfile(bool enabled) {
  if (enabled) {
    ResetBlockProfile();  // each enable opens a fresh attribution window
  } else {
    FlushBlockProfiles();  // keep in-flight block counters readable after detach
  }
  block_profile_enabled_ = enabled;
}

void Cpu::ResetBlockProfile() {
  for (const Block& blk : blocks_) {
    blk.prof_execs = 0;
    blk.prof_bcond_taken = 0;
    std::fill(blk.prof_mem_hits.begin(), blk.prof_mem_hits.end(), 0);
  }
  block_profile_.clear();
}

const std::map<uint32_t, Cpu::ProfiledPc>& Cpu::CollectBlockProfile() const {
  FlushBlockProfiles();
  return block_profile_;
}

void Cpu::RebuildDecodeCache() {
  const std::span<const uint8_t> flash = mem_->flash_bytes();
  // Only decode up to the load high-water mark: images occupy a few KB of the 128 KB
  // flash, and slots past it hold the erase pattern the CPU normally never reaches (if it
  // does, Step falls back to the interpreter path below, which behaves identically).
  const size_t covered = std::min<size_t>(flash.size(), mem_->flash_high_water());
  const size_t slots = covered / 2;
  // Stale slots: those whose bytes changed, widened one slot back (a BL prefix decodes
  // with the next halfword), plus every slot the cache does not cover yet. The changed
  // range may extend past `slots` after a high-water rewind; blocks there retire too.
  const FlashSpan dirty = mem_->TakeFlashDirtySpan();
  size_t lo = slots;
  size_t hi = 0;
  if (!dirty.empty()) {
    lo = dirty.lo / 2 == 0 ? 0 : dirty.lo / 2 - 1;
    hi = (static_cast<size_t>(dirty.hi) + 1) / 2;
  }
  if (icache_.size() < slots) {
    lo = std::min(lo, icache_.size());
    hi = std::max(hi, slots);
  }
  // Compiled blocks are views over the predecoded slots: retire those over stale slots
  // before the slots change under them.
  RetireBlocks(lo, hi);
  icache_.resize(slots);
  block_index_.resize(block_enabled_ ? slots : 0, kBlockNotCompiled);
  hi = std::min(hi, slots);
  for (size_t s = lo; s < hi; ++s) {
    const uint16_t hw1 = static_cast<uint16_t>(flash[2 * s] | (flash[2 * s + 1] << 8));
    // Same peek rule as the interpreter: hw2 is read only for a wide (BL-prefix)
    // encoding, and reads as 0 when the prefix sits on the last mapped halfword.
    uint16_t hw2 = 0;
    uint8_t flash_reads = 1;
    if ((hw1 & 0xF800) == 0xF000 && 2 * s + 3 < flash.size()) {
      hw2 = static_cast<uint16_t>(flash[2 * s + 2] | (flash[2 * s + 3] << 8));
      flash_reads = 2;
    }
    icache_[s] = Predecoded{DecodeInstr(hw1, hw2), hw1, hw2, flash_reads};
    // Overlapping blocks are retired, so only a kBlockStepOnly verdict on the old decode
    // can remain here.
    if (s < block_index_.size()) {
      block_index_[s] = kBlockNotCompiled;
    }
  }
  icache_valid_ = true;
}

void Cpu::RetireBlocks(size_t lo, size_t hi) {
  for (size_t i = 0; i < blocks_.size(); ++i) {
    Block& blk = blocks_[i];
    if (blk.ops.empty() || blk.entry_slot >= hi || blk.end_slot <= lo) {
      continue;
    }
    FoldBlockHistogram(blk);
    if (block_profile_enabled_) {
      FoldBlockProfile(blk);
    }
    if (blk.entry_slot < block_index_.size()) {
      block_index_[blk.entry_slot] = kBlockNotCompiled;
    }
    blk = Block{};
    free_blocks_.push_back(static_cast<int32_t>(i));
  }
}

namespace {

// APSR bit masks for the block compiler's liveness pass.
constexpr uint8_t kFlagN = 1;
constexpr uint8_t kFlagZ = 2;
constexpr uint8_t kFlagC = 4;
constexpr uint8_t kFlagV = 8;
constexpr uint8_t kAllFlags = kFlagN | kFlagZ | kFlagC | kFlagV;
constexpr uint8_t kFlagsNZ = kFlagN | kFlagZ;
constexpr uint8_t kFlagsNZC = kFlagN | kFlagZ | kFlagC;

struct FlagEffects {
  uint8_t reads = 0;       // flag bits the instruction consumes
  uint8_t may_write = 0;   // bits it can write (shift-by-register writes C conditionally)
  uint8_t must_write = 0;  // bits it always writes (these kill earlier writes)
};

FlagEffects FlagEffectsOf(Op op, int32_t imm) {
  switch (op) {
    case Op::kLslImm:
      // imm == 0 is the MOVS register form: C unchanged.
      return imm == 0 ? FlagEffects{0, kFlagsNZ, kFlagsNZ}
                      : FlagEffects{0, kFlagsNZC, kFlagsNZC};
    case Op::kLsrImm:
    case Op::kAsrImm:
      return {0, kFlagsNZC, kFlagsNZC};
    case Op::kLslReg:
    case Op::kLsrReg:
    case Op::kAsrReg:
    case Op::kRor:
      // C is written only when the register-held amount is non-zero.
      return {0, kFlagsNZC, kFlagsNZ};
    case Op::kAddReg:
    case Op::kSubReg:
    case Op::kAddImm3:
    case Op::kSubImm3:
    case Op::kAddImm8:
    case Op::kSubImm8:
    case Op::kCmpImm:
    case Op::kCmpReg:
    case Op::kCmpHi:
    case Op::kCmn:
    case Op::kNeg:
      return {0, kAllFlags, kAllFlags};
    case Op::kAdc:
    case Op::kSbc:
      return {kFlagC, kAllFlags, kAllFlags};
    case Op::kMovImm:
    case Op::kAnd:
    case Op::kEor:
    case Op::kOrr:
    case Op::kBic:
    case Op::kMvn:
    case Op::kTst:
    case Op::kMul:
      return {0, kFlagsNZ, kFlagsNZ};
    case Op::kBcond:
      return {kAllFlags, 0, 0};
    default:
      return {};
  }
}

// Ops whose execution can raise a GuestFault (every memory access; a branch itself cannot
// fault — a bad target faults on the next fetch, in the interpreter). The architectural
// flags are observable at a fault, so liveness must be forced across these.
bool MayFault(Op op) {
  switch (op) {
    case Op::kLdrLit:
    case Op::kStrReg: case Op::kStrImm: case Op::kStrSp:
    case Op::kLdrReg: case Op::kLdrImm: case Op::kLdrSp:
    case Op::kStrbReg: case Op::kStrbImm:
    case Op::kLdrbReg: case Op::kLdrbImm:
    case Op::kStrhReg: case Op::kStrhImm:
    case Op::kLdrhReg: case Op::kLdrhImm:
    case Op::kLdrsbReg: case Op::kLdrshReg:
    case Op::kPush: case Op::kPop: case Op::kLdm: case Op::kStm:
      return true;
    default:
      return false;
  }
}

// Control-flow instructions end a basic block (they are included as its terminator).
bool IsTerminator(const Instr& in) {
  switch (in.op) {
    case Op::kB:
    case Op::kBcond:
    case Op::kBl:
    case Op::kBx:
    case Op::kBlx:
      return true;
    case Op::kAddHi:
    case Op::kMovHi:
      return in.rd == kRegPc;
    case Op::kPop:
      return (in.reglist & 0x100) != 0;
    default:
      return false;
  }
}

int PopCount8(uint16_t reglist) {
  int count = 0;
  for (int r = 0; r <= 8; ++r) {
    if (reglist & (1 << r)) {
      ++count;
    }
  }
  return count;
}

// Static execution cost of an instruction, the one source of fixed costs for both
// executors (excluding the per-fetch flash wait states and the dynamic parts: data-access
// wait states and the taken/not-taken split of kBcond, which the op bodies add to `dyn`).
uint32_t StaticExecCycles(const Instr& in, const CycleModel& m) {
  switch (in.op) {
    case Op::kMul:
      return static_cast<uint32_t>(m.mul);
    case Op::kLdrLit:
    case Op::kLdrReg: case Op::kLdrImm: case Op::kLdrSp:
    case Op::kLdrbReg: case Op::kLdrbImm:
    case Op::kLdrhReg: case Op::kLdrhImm:
    case Op::kLdrsbReg: case Op::kLdrshReg:
      return static_cast<uint32_t>(m.load);
    case Op::kStrReg: case Op::kStrImm: case Op::kStrSp:
    case Op::kStrbReg: case Op::kStrbImm:
    case Op::kStrhReg: case Op::kStrhImm:
      return static_cast<uint32_t>(m.store);
    case Op::kPush:
    case Op::kLdm:
    case Op::kStm:
      return static_cast<uint32_t>(m.push_pop_base + PopCount8(in.reglist));
    case Op::kPop: {
      uint32_t c = static_cast<uint32_t>(m.push_pop_base + PopCount8(in.reglist));
      if (in.reglist & 0x100) {
        c += static_cast<uint32_t>(m.pop_pc_extra);
      }
      return c;
    }
    case Op::kB:
      return static_cast<uint32_t>(m.branch_taken);
    case Op::kBl:
      return static_cast<uint32_t>(m.bl);
    case Op::kBx:
    case Op::kBlx:
      return static_cast<uint32_t>(m.bx);
    case Op::kBcond:
      return 0;  // taken/not-taken resolved by the executor
    case Op::kAddHi:
    case Op::kMovHi:
      return static_cast<uint32_t>(in.rd == kRegPc ? m.pc_alu : m.alu);
    default:
      return static_cast<uint32_t>(m.alu);
  }
}

}  // namespace

inline Cpu::BlockOp Cpu::Lower(const Instr& in, uint32_t addr) {
  BlockOp o;
  o.op = in.op;
  o.rd = in.rd;
  o.rn = in.rn;
  o.rm = in.rm;
  o.cond = in.cond;
  o.reglist = in.reglist;
  o.imm = in.imm;
  o.addr = addr;
  // Pre-resolve PC-relative operands to absolute values.
  switch (in.op) {
    case Op::kLdrLit:
    case Op::kAdr:
      o.imm = static_cast<int32_t>(((addr + 4) & ~3u) + static_cast<uint32_t>(in.imm));
      break;
    case Op::kB:
    case Op::kBcond:
    case Op::kBl:
      o.imm = static_cast<int32_t>(addr + 4 + static_cast<uint32_t>(in.imm));
      break;
    default:
      break;
  }
  return o;
}

// Walks predecoded slots from `entry_slot` until a control-flow terminator, an
// invalid/UDF decode, the end of decode coverage, or the length cap, fusing the run into
// one Block. Returns the block index, or kBlockStepOnly when the entry cannot start a
// block. A backward pass then marks which APSR writes are dead (overwritten before any
// consumer — conditional branch or ADC/SBC — with no intervening possible-fault site) so
// the executor can skip materializing them.
int32_t Cpu::CompileBlock(size_t entry_slot) {
  // Bounds compile time and the O(length) cold-path fault fixup; a longer straight-line
  // run simply continues as a fall-through successor block. Sized so the per-column bodies
  // of unrolled kernels (kUnrolled compiles ~3 ops per nonzero between `bl` terminators)
  // are eaten whole even for near-dense columns of wide layers.
  constexpr size_t kMaxBlockOps = 16384;
  Block b;
  uint32_t static_cycles = 0;
  size_t slot = entry_slot;
  while (slot < icache_.size() && b.ops.size() < kMaxBlockOps) {
    const Predecoded& pd = icache_[slot];
    const Instr& in = pd.instr;
    if (in.op == Op::kInvalid || in.op == Op::kUdf) {
      break;  // the interpreter raises the fault with the exact seed diagnostics
    }
    BlockOp o = Lower(in, mem_->flash_base() + static_cast<uint32_t>(2 * slot));
    o.fetch_reads = pd.flash_reads;
    o.is_mem = MayFault(in.op) ? 1 : 0;
    o.cycles_before = static_cycles;
    static_cycles += static_cast<uint32_t>(model_.flash_wait_states) +
                     StaticExecCycles(in, model_);
    b.ops.push_back(o);
    if (IsTerminator(in)) {
      b.terminated = true;
      break;
    }
    slot += in.length;
  }
  if (b.ops.empty()) {
    block_index_[entry_slot] = kBlockStepOnly;
    return kBlockStepOnly;
  }
  // Backward APSR liveness. Flags are live out of every block (the interpreter or a
  // successor block may consume them), and live into every possible-fault site (the
  // architectural flags are part of the faulted machine state).
  uint8_t live = kAllFlags;
  for (size_t k = b.ops.size(); k-- > 0;) {
    BlockOp& o = b.ops[k];
    const FlagEffects fe = FlagEffectsOf(o.op, o.imm);
    o.set_flags = (fe.may_write & live) != 0 ? 1 : 0;
    live = static_cast<uint8_t>((live & ~fe.must_write) | fe.reads);
    if (o.is_mem) {
      live = kAllFlags;
    }
  }
  // Batched accounting: the static cycle total, total counted fetches and the per-Op
  // retire histogram. The profiled execute path indexes prof_mem_hits unconditionally,
  // so it is sized here once instead of checked on every block entry.
  b.static_cycles = static_cycles;
  b.prof_mem_hits.assign(b.ops.size(), 0);
  // Worst-case dynamic cycles one execution can add: every possible-fault op charged as a
  // flash data access (the reglist ops never charge dynamically — conservative is fine,
  // over-estimating only breaks to the exact step interpreter a little earlier), plus the
  // dearer outcome of a kBcond terminator. Run uses static_cycles + dyn_bound to prove a
  // block cannot cross the watchdog cycle limit.
  const uint32_t fw = static_cast<uint32_t>(model_.flash_wait_states);
  std::array<uint32_t, 80> histo{};
  for (const BlockOp& o : b.ops) {
    b.fetch_reads += o.fetch_reads;
    if (o.is_mem) {
      b.dyn_bound += fw;
    }
    if (o.op == Op::kBcond) {
      b.dyn_bound += static_cast<uint32_t>(
          std::max(model_.branch_taken, model_.branch_not_taken));
    }
    ++histo[static_cast<size_t>(o.op)];
  }
  for (size_t op = 0; op < histo.size(); ++op) {
    if (histo[op] != 0) {
      b.histogram.emplace_back(static_cast<uint8_t>(op), histo[op]);
    }
  }
  const BlockOp& last = b.ops.back();
  b.entry_slot = static_cast<uint32_t>(entry_slot);
  b.end_slot = (last.addr - mem_->flash_base()) / 2 + last.fetch_reads;
  int32_t index;
  if (free_blocks_.empty()) {
    index = static_cast<int32_t>(blocks_.size());
    blocks_.push_back(std::move(b));
  } else {
    index = free_blocks_.back();
    free_blocks_.pop_back();
    blocks_[static_cast<size_t>(index)] = std::move(b);
  }
  block_index_[entry_slot] = index;
  return index;
}

CpuArchState Cpu::SaveState() const {
  // Fold deferred block-exit accounting so the captured histogram reads exactly as the
  // step interpreter would have left it.
  FlushBlockHistograms();
  CpuArchState s;
  s.regs = regs_;
  s.pc = pc_;
  s.flags = flags_;
  s.cycles = cycles_;
  s.instructions = instructions_;
  s.op_histogram = op_histogram_;
  return s;
}

void Cpu::RestoreState(const CpuArchState& state) {
  // Flush first so block exec counters accrued since the capture fold into the *current*
  // histogram and then get overwritten — never into the restored one.
  FlushBlockHistograms();
  regs_ = state.regs;
  pc_ = state.pc;
  flags_ = state.flags;
  cycles_ = state.cycles;
  instructions_ = state.instructions;
  op_histogram_ = state.op_histogram;
}

void Cpu::ResetCounters() {
  cycles_ = 0;
  instructions_ = 0;
  // Deferred block histograms describe retires that predate the reset: fold them in (so
  // the exec counters read zero) and then wipe everything, exactly as the interpreter's
  // per-step accounting would have been wiped.
  FlushBlockHistograms();
  op_histogram_.fill(0);
  mem_->ResetStats();
}

void Cpu::FoldBlockHistogram(const Block& blk) const {
  if (blk.execs == 0) {
    return;
  }
  for (const auto& [hist_op, count] : blk.histogram) {
    op_histogram_[hist_op] += count * blk.execs;
  }
  blk.execs = 0;
}

void Cpu::FlushBlockHistograms() const {
  for (const Block& blk : blocks_) {
    FoldBlockHistogram(blk);
  }
}

// Exact expansion of the per-block counters: each op's static cycle cost (fetch wait
// states + fixed execution cost) is the delta of consecutive cycles_before prefix sums,
// charged prof_execs times; the only dynamic costs are the recorded per-op flash-wait
// hits and the taken/not-taken split of a kBcond terminator. Overlapping blocks (a block
// entered mid-way compiles its own view of the same PCs) simply sum into the same map
// entries. Mid-block fault residue and interpreter-step residue were already folded into
// block_profile_ at the point they occurred, so after this flush the map's cycle total
// equals the exact interpreter-visible charge for every retired instruction.
void Cpu::FoldBlockProfile(const Block& blk) const {
  if (blk.prof_execs == 0) {
    // Counters are always sized, so "never ran profiled" needs a hit scan — nonzero
    // hits without an exec happen only when every profiled run faulted mid-block.
    bool any_hits = false;
    for (const uint64_t h : blk.prof_mem_hits) {
      any_hits |= h != 0;
    }
    if (!any_hits) {
      return;
    }
  }
  const uint64_t fetch_ws = static_cast<uint64_t>(model_.flash_wait_states);
  const size_t n = blk.ops.size();
  for (size_t k = 0; k < n; ++k) {
    const BlockOp& o = blk.ops[k];
    const uint64_t static_k =
        (k + 1 < n ? blk.ops[k + 1].cycles_before : blk.static_cycles) - o.cycles_before;
    uint64_t cyc = blk.prof_execs * static_k;
    cyc += blk.prof_mem_hits[k] * fetch_ws;
    if (o.op == Op::kBcond) {
      cyc += blk.prof_bcond_taken * static_cast<uint64_t>(model_.branch_taken) +
             (blk.prof_execs - blk.prof_bcond_taken) *
                 static_cast<uint64_t>(model_.branch_not_taken);
    }
    if (blk.prof_execs == 0 && cyc == 0) {
      continue;  // nothing retired at this PC through this block
    }
    ProfiledPc& stat = block_profile_[o.addr];
    stat.count += blk.prof_execs;
    stat.cycles += cyc;
    stat.op = o.op;
  }
  blk.prof_execs = 0;
  blk.prof_bcond_taken = 0;
  std::fill(blk.prof_mem_hits.begin(), blk.prof_mem_hits.end(), 0);
}

void Cpu::FlushBlockProfiles() const {
  if (!block_profile_enabled_) {
    return;
  }
  for (const Block& blk : blocks_) {
    FoldBlockProfile(blk);
  }
}

void Cpu::EnableTrace(size_t depth) {
  trace_.assign(depth, TraceEntry{});
  trace_pos_ = 0;
  trace_count_ = 0;
}

std::string Cpu::DumpTrace() const {
  std::string out;
  if (trace_.empty()) {
    return out;
  }
  const size_t n = trace_count_ < trace_.size() ? static_cast<size_t>(trace_count_)
                                                : trace_.size();
  // Oldest first: the ring position points at the next overwrite slot.
  size_t start = trace_count_ < trace_.size() ? 0 : trace_pos_;
  for (size_t i = 0; i < n; ++i) {
    const TraceEntry& e = trace_[(start + i) % trace_.size()];
    const Instr in = DecodeInstr(e.hw1, e.hw2);
    char buf[64];
    std::snprintf(buf, sizeof(buf), "  %08x: %04x  ", e.addr, e.hw1);
    out += buf;
    out += Disassemble(in, e.addr);
    out += "\n";
  }
  return out;
}

Cpu::AddResult Cpu::AddWithCarry(uint32_t x, uint32_t y, bool carry_in) {
  const uint64_t unsigned_sum =
      static_cast<uint64_t>(x) + static_cast<uint64_t>(y) + (carry_in ? 1 : 0);
  const int64_t signed_sum = static_cast<int64_t>(static_cast<int32_t>(x)) +
                             static_cast<int64_t>(static_cast<int32_t>(y)) +
                             (carry_in ? 1 : 0);
  AddResult r;
  r.value = static_cast<uint32_t>(unsigned_sum);
  r.carry = unsigned_sum != static_cast<uint64_t>(r.value);
  r.overflow = signed_sum != static_cast<int64_t>(static_cast<int32_t>(r.value));
  return r;
}

bool Cpu::EvalCond(Cond cond) const {
  switch (cond) {
    case Cond::kEq: return flags_.z;
    case Cond::kNe: return !flags_.z;
    case Cond::kCs: return flags_.c;
    case Cond::kCc: return !flags_.c;
    case Cond::kMi: return flags_.n;
    case Cond::kPl: return !flags_.n;
    case Cond::kVs: return flags_.v;
    case Cond::kVc: return !flags_.v;
    case Cond::kHi: return flags_.c && !flags_.z;
    case Cond::kLs: return !flags_.c || flags_.z;
    case Cond::kGe: return flags_.n == flags_.v;
    case Cond::kLt: return flags_.n != flags_.v;
    case Cond::kGt: return !flags_.z && flags_.n == flags_.v;
    case Cond::kLe: return flags_.z || flags_.n != flags_.v;
    case Cond::kAl: return true;
  }
  return false;
}

void Cpu::SetInstructionAlarm(uint64_t at_instructions, std::function<void()> on_alarm) {
  alarm_ = std::move(on_alarm);
  alarm_at_ = at_instructions;
}

uint64_t Cpu::InstructionLimit(uint64_t budget_end) const {
  if (!alarm_ || alarm_at_ > budget_end) {
    return budget_end;
  }
  return alarm_at_ == 0 ? 0 : alarm_at_ - 1;
}

void Cpu::Run(uint64_t max_instructions, uint64_t cycle_limit) {
  // Absolute retired-instruction bounds: past budget_end the budget fault fires, and
  // `limit` stops one short of an armed alarm, so the instruction that reaches the alarm
  // always retires on the step path below. Block dispatch compares against `limit` alone.
  const uint64_t budget_end = max_instructions > UINT64_MAX - instructions_
                                  ? UINT64_MAX
                                  : instructions_ + max_instructions;
  uint64_t limit = InstructionLimit(budget_end);
  while (!halted()) {
    // Instructions to retire on the step interpreter before block dispatch is tried
    // again: one, or all of a block that could cross a limit.
    size_t steps = 1;
    if (BlockModeActive()) {
      if (!icache_valid_) {
        RebuildDecodeCache();
      }
      // Chained block dispatch: block mode's activation conditions and the cache validity
      // cannot change inside this loop (probes/traces attach between calls, an alarm
      // callback runs on the step path, and the guest cannot write flash — it faults), so
      // blocks execute back to back until the pc leaves compiled coverage, an entry can't
      // start a block, or a block could cross the instruction limit or the watchdog cycle
      // limit. That block then runs on the step interpreter, which keeps the
      // budget/deadline fault and the alarm firing at exactly the same retired
      // instruction as the legacy path, without compiling a block at every entry it
      // steps through. A wrapping pc (SRAM, unmapped, the halt sentinel) makes `slot`
      // huge and exits the loop through the coverage check.
      const uint32_t flash_base = mem_->flash_base();
      const size_t covered_slots = block_index_.size();
      for (;;) {
        const size_t slot = static_cast<size_t>(pc_ - flash_base) >> 1;
        if (slot >= covered_slots) {
          break;
        }
        int32_t index = block_index_[slot];
        if (index == kBlockNotCompiled) {
          index = CompileBlock(slot);
        }
        if (index < 0) {
          break;
        }
        const Block& blk = blocks_[static_cast<size_t>(index)];
        if (instructions_ + blk.ops.size() > limit ||
            (cycle_limit != 0 && cycles_ + blk.static_cycles + blk.dyn_bound > cycle_limit)) {
          steps = blk.ops.size();
          break;
        }
        if (block_profile_enabled_) {
          ExecuteBlock<true>(blk);
        } else {
          ExecuteBlock<false>(blk);
        }
      }
      if (halted()) {
        return;
      }
    }
    for (; steps > 0 && !halted(); --steps) {
      Step();
      if (instructions_ > limit) {
        if (alarm_ && instructions_ >= alarm_at_) {
          // One-shot: disarm before the call so the callback may arm a new alarm.
          const std::function<void()> on_alarm = std::move(alarm_);
          alarm_ = nullptr;
          on_alarm();
          limit = InstructionLimit(budget_end);
        }
        if (instructions_ > budget_end) {
          throw GuestFault{ErrorCode::kInstructionBudgetExceeded,
                           "instruction budget exceeded", /*addr=*/0, /*pc=*/pc_,
                           /*instruction=*/0};
        }
      }
      if (cycle_limit != 0 && cycles_ > cycle_limit) {
        throw GuestFault{ErrorCode::kDeadlineExceeded, "watchdog cycle deadline exceeded",
                         /*addr=*/0, /*pc=*/pc_, /*instruction=*/0};
      }
    }
  }
}

// Executes one compiled block with a single dispatch: no per-step counter updates, trace
// or probe checks (block mode is inactive when those are attached), and no per-step
// decode-cache lookups. Cycle, instruction, histogram and fetch accounting are applied
// once at block exit; a GuestFault mid-block patches them to the exact interpreter state
// for the faulting instruction before rethrowing. The ops run the bodies of
// thumb_ops.inc, each ending in its own indirect jump through the label table (token
// threading), which gives the host branch predictor one dispatch site per preceding op
// instead of a single shared one. NEUROC_NEXT also advances the profiled hit-counter
// cursor in lockstep with the op pointer (discarded in the unprofiled instantiation), so
// charge_mem records a flash-wait hit with a plain `++*prof_slot` — no per-access
// op-index math on the hot path.
#define NEUROC_OP(name) lbl_##name:
#define NEUROC_NEXT                                   \
  do {                                                \
    if constexpr (kProfiled) ++prof_slot;             \
    if (++op == op_end) goto block_exit;              \
    goto* kDispatch[static_cast<size_t>(op->op)];     \
  } while (0)
#define NEUROC_TAKEN                                  \
  do {                                                \
    if constexpr (kProfiled) ++b.prof_bcond_taken;    \
  } while (0)
template <bool kProfiled>
#if defined(__GNUC__) && !defined(__clang__)
// Keep GCC's global CSE from re-merging the per-op indirect jumps into one shared
// dispatch site, which would undo the branch-prediction benefit of token threading.
__attribute__((optimize("no-gcse")))
#endif
void Cpu::ExecuteBlock(const Block& b) {
  const uint32_t fetch_ws = static_cast<uint32_t>(model_.flash_wait_states);
  const uint32_t flash_base = mem_->flash_base();
  const uint32_t flash_size = mem_->flash_size();
  // All static cycle costs were folded into b.static_cycles at compile time; only the
  // data-access flash wait states and the conditional-branch outcome accumulate here.
  uint64_t dyn = 0;
  const size_t n = b.ops.size();
  const BlockOp* ops = b.ops.data();
  const BlockOp* const op_end = ops + n;
  const BlockOp* op = ops;
  // Cursor into the block's per-op hit counters, advanced by NEUROC_NEXT in lockstep
  // with `op` (sized to ops.size() at compile time, so it stays in bounds by the same
  // argument op does).
  [[maybe_unused]] uint64_t* prof_slot = nullptr;
  if constexpr (kProfiled) {
    prof_slot = b.prof_mem_hits.data();
  }
  // A data access's flash wait states (its load/store cost is static). Under profiling
  // the hit is also attributed to the current op so the expansion can charge it to the
  // exact PC.
  const auto charge_mem = [&](uint32_t a) {
    if (fetch_ws != 0 && a - flash_base < flash_size) {
      dyn += fetch_ws;
      if constexpr (kProfiled) {
        ++*prof_slot;
      }
    }
  };
  try {
    static const void* const kDispatch[] = {
#define NEUROC_OP_LABEL(name, mnemonic) &&lbl_##name,
        NEUROC_THUMB_OPS(NEUROC_OP_LABEL)
#undef NEUROC_OP_LABEL
    };
    goto* kDispatch[static_cast<size_t>(op->op)];
#include "src/sim/thumb_ops.inc"
  } catch (GuestFault& gf) {
    const size_t i = static_cast<size_t>(op - ops);  // index of the faulting op
    // Patch the batched accounting so the architectural state is exactly what the step
    // interpreter shows at this fault: counters and fetch stats cover the retired prefix
    // plus the faulting instruction, whose fetch wait states are charged but whose
    // data-access cost is not (the access threw first), and pc/r15 sit past it. The
    // retired prefix's static cycles are the faulting op's compile-time prefix sum; dyn
    // holds the prefix's data-access wait states (the faulting access never charged its).
    const BlockOp& f = b.ops[i];
    cycles_ += f.cycles_before + fetch_ws + dyn;
    instructions_ += i + 1;
    for (size_t k = 0; k <= i; ++k) {
      const BlockOp& o = b.ops[k];
      ++op_histogram_[static_cast<size_t>(o.op)];
      mem_->CountFlashFetches(o.addr, o.fetch_reads);
    }
    if constexpr (kProfiled) {
      // The aborted run never reaches prof_execs, so fold its per-PC attribution as
      // residue now: each retired prefix op its static charge (the prefix-sum delta —
      // its flash-wait hits were already recorded into prof_mem_hits by charge_mem),
      // and the faulting op its fetch wait states only (the access threw before its
      // data-access cost was charged, matching the interpreter).
      for (size_t k = 0; k < i; ++k) {
        const BlockOp& o = b.ops[k];
        ProfiledPc& stat = block_profile_[o.addr];
        stat.count += 1;
        stat.cycles += b.ops[k + 1].cycles_before - o.cycles_before;
        stat.op = o.op;
      }
      ProfiledPc& stat = block_profile_[f.addr];
      stat.count += 1;
      stat.cycles += fetch_ws;
      stat.op = f.op;
    }
    pc_ = f.addr + 2u * f.fetch_reads;
    regs_[kRegPc] = f.addr + 4;
    gf.pc = f.addr;
    throw;
  }
block_exit:
  cycles_ += b.static_cycles + dyn;
  instructions_ += n;
  ++b.execs;  // histogram applied lazily: FlushBlockHistograms folds histogram * execs
  if constexpr (kProfiled) {
    ++b.prof_execs;
  }
  if (mem_->observing()) {
    // Heatmap/stack-watch attached: replay per-halfword fetch observations in order so
    // the histograms match the interpreter exactly.
    for (const BlockOp& o : b.ops) {
      mem_->CountFlashFetches(o.addr, o.fetch_reads);
    }
  } else {
    mem_->AddFlashReads(b.fetch_reads);
  }
  const BlockOp& last = b.ops[n - 1];
  regs_[kRegPc] = last.addr + 4;  // what the interpreter's final step leaves in r15
  if (!b.terminated) {
    pc_ = last.addr + 2u * last.fetch_reads;  // fall through to the successor block
  }
}

#undef NEUROC_OP
#undef NEUROC_NEXT
#undef NEUROC_TAKEN

void Cpu::Step() {
  NEUROC_CHECK(!halted());
  const uint32_t addr = pc_;
  const uint64_t cycles_at_entry = cycles_;
  // The instruction in the executors' shared form. Its op stays kInvalid unless the
  // instruction retires: a fetch fault or an undefined instruction throws first.
  BlockOp lowered;
  // Interpreter-fallback residue: any step taken while block profiling is on (step-only
  // entries, uncovered flash, budget-crossing tails, SRAM execution, or block mode
  // disabled outright) is attributed by counter delta, so the profile stays exact off the
  // block path too. A fault that retires nothing records nothing.
  const auto record_residue = [&] {
    if (block_profile_enabled_ && lowered.op != Op::kInvalid) {
      ProfiledPc& stat = block_profile_[addr];
      stat.count += 1;
      stat.cycles += cycles_ - cycles_at_entry;
      stat.op = lowered.op;
    }
  };
  // One catch site per retired instruction: a guest fault thrown anywhere inside the
  // fetch/execute path (memory system or decode) is stamped with the address of the
  // instruction that caused it before propagating to Machine::TryCallFunction. The
  // non-faulting path is unaffected (table-based unwinding costs only on throw).
  try {
    const bool fetch_from_flash = mem_->InFlash(addr);
    uint16_t hw1 = 0;
    uint16_t hw2 = 0;
    Instr in;
    size_t slot = 0;
    bool cached = false;
    if (icache_enabled_ && fetch_from_flash) {
      if (!icache_valid_) {
        RebuildDecodeCache();
      }
      slot = static_cast<size_t>(addr - mem_->flash_base()) >> 1;
      cached = slot < icache_.size();
    }
    if (cached) {
      const Predecoded& pd = icache_[slot];
      hw1 = pd.hw1;
      hw2 = pd.hw2;
      in = pd.instr;
      // Fetch accounting identical to the interpreter path: one counted flash read per
      // halfword fetched (the per-slot count already encodes the wide/mapped rule).
      mem_->CountFlashFetches(addr, pd.flash_reads);
    } else {
      hw1 = mem_->Read16(addr);
      // Peek the second halfword only for 32-bit encodings (BL prefix). A wide prefix on
      // the last mapped halfword is an undefined instruction (hw2 reads as 0), not a
      // memory fault mid-fetch — the trace dump below must still show it.
      const bool wide = (hw1 & 0xF800) == 0xF000;
      hw2 = (wide && mem_->RegionOf(addr + 2) != MemRegion::kNone) ? mem_->Read16(addr + 2)
                                                                   : 0;
      in = DecodeInstr(hw1, hw2);
    }
    if (!trace_.empty()) {
      trace_[trace_pos_] = {addr, hw1, hw2};
      trace_pos_ = (trace_pos_ + 1) % trace_.size();
      ++trace_count_;
    }
    if (in.op == Op::kInvalid || in.op == Op::kUdf) {
      char msg[48];
      std::snprintf(msg, sizeof(msg), "undefined instruction 0x%04x", hw1);
      throw GuestFault{ErrorCode::kUndefinedInstruction, msg, /*addr=*/0, /*pc=*/addr,
                       /*instruction=*/hw1};
    }
    ++instructions_;
    ++op_histogram_[static_cast<size_t>(in.op)];
    const uint32_t fetch_ws = static_cast<uint32_t>(model_.flash_wait_states);
    if (fetch_from_flash) {
      cycles_ += fetch_ws;
    }
    pc_ = addr + 2u * in.length;  // default fall-through; branches overwrite
    // What the block executor leaves in r15 after this instruction, so cpu.reg(15) reads
    // the same on every decode path (the bodies read r15 through NEUROC_RVAL).
    regs_[kRegPc] = addr + 4;
    lowered = Lower(in, addr);
    const BlockOp* const op = &lowered;
    uint64_t dyn = 0;
    const auto charge_mem = [&](uint32_t a) {
      if (mem_->InFlash(a)) {
        dyn += fetch_ws;
      }
    };
    switch (op->op) {
#define NEUROC_OP(name) case Op::name:
#define NEUROC_NEXT break
#define NEUROC_TAKEN
#include "src/sim/thumb_ops.inc"
#undef NEUROC_OP
#undef NEUROC_NEXT
#undef NEUROC_TAKEN
    }
    // Charged only once the op retires, so a faulting access costs just its fetch wait
    // states, as on the block path.
    cycles_ += StaticExecCycles(in, model_) + dyn;
  } catch (GuestFault& gf) {
    gf.pc = addr;
    record_residue();
    throw;
  }
  if (probe_ != nullptr) {
    probe_->OnRetire(addr, lowered.op, static_cast<uint32_t>(cycles_ - cycles_at_entry));
  }
  record_residue();
}

}  // namespace neuroc
