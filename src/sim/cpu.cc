#include "src/sim/cpu.h"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <span>
#include <type_traits>

#include "src/common/check.h"
#include "src/isa/isa.h"
#include "src/sim/guest_fault.h"

namespace neuroc {

namespace {

// Lockstep lanes keep one state byte per SRAM word: the bytes of the word the inference
// has written (low nibble) and those it read before writing them (high nibble).
constexpr int kReadFirstShift = 4;

// The first word at or after `w` whose state byte is set (or state.size()): the commit
// walks only the SRAM a batch touched, skipping untouched words eight at a time.
size_t NextTouchedWord(const std::vector<uint8_t>& state, size_t w) {
  for (uint64_t chunk = 0; w + sizeof(chunk) <= state.size(); w += sizeof(chunk)) {
    std::memcpy(&chunk, state.data() + w, sizeof(chunk));
    if (chunk != 0) {
      break;
    }
  }
  while (w < state.size() && state[w] == 0) {
    ++w;
  }
  return w;
}

// Where byte `off` of lane `lane` sits in the lanes' SRAM (Cpu::Lanes::ram): guest SRAM
// word off / 4 of all `width` lanes is one host vector of `width` uint32_t, lane j's
// little-endian word in element j. The vector loads and stores of the lane executor see
// the same bytes only on a little-endian host.
static_assert(std::endian::native == std::endian::little);
constexpr size_t LaneByte(size_t off, size_t width, size_t lane) {
  return (off & ~size_t{3}) * width + 4 * lane + (off & 3);
}

}  // namespace

// An open lockstep batch of `count` inferences, run as `width` lanes (2, 4 or 8, the
// narrowest that holds them; lanes past `count` mirror lane 0, input included, so they
// never disagree with it). Every lane starts from the CPU's registers and flags and the
// memory's SRAM as BeginLanes found them (the base). Lane j's registers and flags are
// element j of the `regs` and `flags` rows, the form ExecuteLanes loads into vectors.
// The lanes' SRAM is one buffer of lane words: guest SRAM word k of every lane is one
// host vector, lane j's word in element j (LaneByte), so an aligned guest access of every
// lane is one vector load or store. It holds only the bytes the lanes wrote; which bytes
// those are is the same for every lane, since the lanes access the same addresses, so
// one `word_state` byte per SRAM word records it for all of them, plus which bytes were
// read before being written. Reads of bytes not written yet come from the base.
struct Cpu::Lanes {
  std::array<std::array<uint32_t, kMaxLanes>, 16> regs{};
  std::array<std::array<uint32_t, kMaxLanes>, 4> flags{};  // n, z, c, v as 0 or 1
  size_t count = 0;
  size_t width = 0;
  bool open = false;
  // The lane words, kept for the next batch: width × SRAM bytes, rounded up to whole
  // words. From calloc rather than a zeroing vector: a batch reads only bytes its lanes
  // wrote, and a large calloc block comes as untouched zero pages, so SRAM no lane writes
  // costs no resident memory.
  struct FreeDeleter {
    void operator()(uint8_t* p) const { std::free(p); }
  };
  std::unique_ptr<uint8_t, FreeDeleter> ram;
  size_t ram_bytes = 0;
  std::vector<uint8_t> word_state;
  std::vector<uint8_t> commit_bytes;  // the last lane's bytes of one run, for HostWrite
  std::array<uint32_t, 16> base_regs{};
  CpuFlags base_flags;
  // Registers and flags the inference reads before writing them, and those it has
  // certainly written so far (harness register writes included).
  uint16_t regs_read_first = 0;
  uint16_t regs_written = 0;
  uint8_t flags_read_first = 0;
  uint8_t flags_written = 0;
  uint32_t pc = 0;   // the lanes' common pc
  uint32_t r15 = 0;  // what the last block leaves in r15
  // The running call's limits (RunLanes): its start, and the instruction count and
  // cycle budget it must not cross.
  uint64_t call_start_cycles = 0;
  uint64_t call_budget_end = 0;
  uint64_t call_cycle_budget = 0;
  // One lane's cycles, instructions, instruction fetches and data accesses: every lane
  // retires the same instructions and accesses the same addresses.
  uint64_t cycles = 0;
  uint64_t instructions = 0;
  uint64_t fetch_reads = 0;
  MemAccessStats data;
};

Cpu::Cpu(MemoryMap* memory, CycleModel model) : mem_(memory), model_(model) {
  mem_->RegisterFlashWriteListener(&blocks_valid_);
}

Cpu::~Cpu() { mem_->UnregisterFlashWriteListener(&blocks_valid_); }

void Cpu::EnableBlockCompile(bool enabled) {
  block_enabled_ = enabled;
  if (!enabled) {
    FlushBlockProfiles();
    blocks_ = std::vector<Block>();  // release memory, not just clear
    block_index_ = std::vector<int32_t>();
    free_blocks_ = std::vector<int32_t>();
  }
  // Force a sync either way so block_index_ is (re)sized over the covered flash.
  blocks_valid_ = false;
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

void Cpu::SyncBlocksWithFlash() {
  // Blocks cover flash only up to the load high-water mark: images occupy a few KB of the
  // 128 KB flash, and slots past it hold the erase pattern the CPU normally never reaches
  // (if it does, the step interpreter runs it, which behaves identically).
  const size_t slots = std::min<size_t>(mem_->flash_size(), mem_->flash_high_water()) / 2;
  // Stale slots: those whose bytes changed, widened one slot back (a BL prefix decodes
  // with the next halfword), plus every slot not covered yet. The changed range may
  // extend past `slots` after a high-water rewind; blocks there retire too.
  const FlashSpan dirty = mem_->TakeFlashDirtySpan();
  size_t lo = slots;
  size_t hi = 0;
  if (!dirty.empty()) {
    lo = dirty.lo / 2 == 0 ? 0 : dirty.lo / 2 - 1;
    hi = (static_cast<size_t>(dirty.hi) + 1) / 2;
  }
  if (block_index_.size() < slots) {
    lo = std::min(lo, block_index_.size());
    hi = std::max(hi, slots);
  }
  RetireBlocks(lo, hi);
  block_index_.resize(slots, kBlockNotCompiled);
  // Retiring unmapped the blocks over the stale slots, so only kBlockStepOnly verdicts on
  // the old bytes can remain there.
  for (size_t s = lo; s < std::min(hi, slots); ++s) {
    block_index_[s] = kBlockNotCompiled;
  }
  blocks_valid_ = true;
}

void Cpu::RetireBlocks(size_t lo, size_t hi) {
  for (size_t i = 0; i < blocks_.size(); ++i) {
    Block& blk = blocks_[i];
    if (blk.ops.empty() || blk.entry_slot >= hi || blk.end_slot <= lo) {
      continue;
    }
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

constexpr uint8_t kAllFlags = kFlagN | kFlagZ | kFlagC | kFlagV;

// The APSR as FlagEffects bits.
uint8_t FlagBits(const CpuFlags& f) {
  return static_cast<uint8_t>((f.n ? kFlagN : 0) | (f.z ? kFlagZ : 0) | (f.c ? kFlagC : 0) |
                              (f.v ? kFlagV : 0));
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

// How StaticExecCycles prices an op, derived from its row at compile time so a step
// pays one table load and one jump for it.
enum class Cost : uint8_t { kAlu, kAluToPc, kMul, kLoad, kStore, kList, kB, kBl, kBx, kBcond };

constexpr Cost CostOf(const OpInfo& row) {
  if (row.form == Form::kRegList9 || row.form == Form::kRnRegList8) {
    return Cost::kList;
  }
  switch (row.op_class) {
    case OpClass::kAlu:
      // Only a hi-register destination can name the PC.
      return row.form == Form::kHiRdRm && (row.writes & kUseRd) ? Cost::kAluToPc : Cost::kAlu;
    case OpClass::kMul:
      return Cost::kMul;
    case OpClass::kLoad:
      return Cost::kLoad;
    case OpClass::kStore:
    case OpClass::kStack:
      return Cost::kStore;
    case OpClass::kBranch:
      return row.form == Form::kCondImm8 ? Cost::kBcond
             : row.form == Form::kImm11  ? Cost::kB
             : row.form == Form::kImm24  ? Cost::kBl
                                         : Cost::kBx;
  }
  return Cost::kAlu;
}

constexpr auto kCosts = [] {
  std::array<Cost, kNumOps> costs{};
  for (size_t op = 0; op < kNumOps; ++op) {
    costs[op] = CostOf(kOpTable[op]);
  }
  return costs;
}();

// Static execution cost of an instruction, the one source of fixed costs for both
// executors (excluding the per-fetch flash wait states and the dynamic parts: data-access
// wait states and the taken/not-taken split of kBcond, which the op bodies add to `dyn`).
// A register-list transfer costs a cycle per register, and a PC write refills the
// pipeline.
uint32_t StaticExecCycles(const Instr& in, const CycleModel& m) {
  switch (kCosts[static_cast<size_t>(in.op)]) {
    case Cost::kAlu:
      return static_cast<uint32_t>(m.alu);
    case Cost::kAluToPc:
      return static_cast<uint32_t>(WritesPc(in) ? m.pc_alu : m.alu);
    case Cost::kMul:
      return static_cast<uint32_t>(m.mul);
    case Cost::kLoad:
      return static_cast<uint32_t>(m.load);
    case Cost::kStore:
      return static_cast<uint32_t>(m.store);
    case Cost::kList:
      return static_cast<uint32_t>(m.push_pop_base + PopCount8(in.reglist) +
                                   (WritesPc(in) ? m.pop_pc_extra : 0));
    case Cost::kB:
      return static_cast<uint32_t>(m.branch_taken);
    case Cost::kBl:
      return static_cast<uint32_t>(m.bl);
    case Cost::kBx:
      return static_cast<uint32_t>(m.bx);
    case Cost::kBcond:
      return 0;  // taken/not-taken resolved by the executor
  }
  return static_cast<uint32_t>(m.alu);
}

// The value operations the op bodies (thumb_ops.inc) need beyond C++'s operators,
// generic over their value type `Word`: uint32_t in the machine's executors, one
// uint32_t per lane (LaneTypes<W>::Word) in the lane executor. Each leaves its result in
// a member rather than returning it, since GCC's -Wpsabi warns on every function that
// returns a 32-byte vector when AVX is off.

// `x` in every lane.
template <class Word>
struct Splat {
  Word v{};
  explicit Splat(uint32_t x) {
    if constexpr (std::is_same_v<Word, uint32_t>) {
      v = x;
    } else {
      v = Word{} + x;
    }
  }
};

// `x` shifted right arithmetically by `n` (0..31).
template <class Word>
struct Sar {
  using Signed =
      std::conditional_t<std::is_same_v<Word, uint32_t>, int32_t, decltype(Word{} < Word{})>;
  Word v;
  Sar(const Word& x, int n) : v(Word(Signed(x) >> n)) {}
};

// x + y + carry_in (0 or 1), with the carry out of bit 31 and the signed overflow as
// 0 or 1.
template <class Word>
struct AddWithCarry {
  Word value;
  Word carry;
  Word overflow;
  AddWithCarry(const Word& x, const Word& y, const Word& carry_in)
      : value(x + y + carry_in),
        carry(((x & y) | ((x | y) & ~value)) >> 31),
        overflow(((x ^ value) & (y ^ value)) >> 31) {}
};

template <class Flags, class Word>
void SetNZ(Flags& flags, const Word& value) {
  flags.n = value >> 31;
  flags.z = Word(value == Word{}) & Splat<Word>(1).v;
}

// The flags of every lane, 0 or 1 each: NEUROC_FLAGS in the lane executor.
template <class Word>
struct LaneFlags {
  Word n;
  Word z;
  Word c;
  Word v;
};

// Whether `cond` holds on `flags` (CpuFlags or LaneFlags), as 0 or 1.
template <class Word>
struct CondHolds {
  Word v;
  template <class Flags>
  CondHolds(const Flags& flags, Cond cond) {
    const Word one = Splat<Word>(1).v;
    const Word n = Word(flags.n);
    const Word z = Word(flags.z);
    const Word c = Word(flags.c);
    const Word ov = Word(flags.v);
    switch (cond) {
      case Cond::kEq: v = z; return;
      case Cond::kNe: v = z ^ one; return;
      case Cond::kCs: v = c; return;
      case Cond::kCc: v = c ^ one; return;
      case Cond::kMi: v = n; return;
      case Cond::kPl: v = n ^ one; return;
      case Cond::kVs: v = ov; return;
      case Cond::kVc: v = ov ^ one; return;
      case Cond::kHi: v = c & (z ^ one); return;
      case Cond::kLs: v = (c ^ one) | z; return;
      case Cond::kGe: v = n ^ ov ^ one; return;
      case Cond::kLt: v = n ^ ov; return;
      case Cond::kGt: v = (z | (n ^ ov)) ^ one; return;
      case Cond::kLe: v = z | (n ^ ov); return;
      case Cond::kAl: v = one; return;
    }
    v = Word{};
  }
};

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
  switch (InfoOf(in.op).form) {
    case Form::kRdPcImm8:
    case Form::kCondImm8:
    case Form::kImm11:
    case Form::kImm24:
      o.imm = static_cast<int32_t>(PcBase(in.op, addr) + static_cast<uint32_t>(in.imm));
      break;
    default:
      break;
  }
  return o;
}

// Decodes flash from `entry_slot` until a control-flow terminator, an invalid/UDF
// decode, the end of block coverage, or the length cap, fusing the run into one Block.
// Returns the block index, or kBlockStepOnly when the entry cannot start a block. A
// backward pass then marks which APSR writes are dead (overwritten before any consumer —
// conditional branch or ADC/SBC — with no intervening possible-fault site) so the
// executor can skip materializing them.
int32_t Cpu::CompileBlock(size_t entry_slot) {
  // Bounds compile time and the O(length) cold-path fault fixup; a longer straight-line
  // run simply continues as a fall-through successor block. Sized so the per-column bodies
  // of unrolled kernels (kUnrolled compiles ~3 ops per nonzero between `bl` terminators)
  // are eaten whole even for near-dense columns of wide layers.
  constexpr size_t kMaxBlockOps = 16384;
  const std::span<const uint8_t> flash = mem_->flash_bytes();
  const auto halfword = [flash](size_t s) {
    return static_cast<uint16_t>(flash[2 * s] | (flash[2 * s + 1] << 8));
  };
  Block b;
  uint32_t static_cycles = 0;
  size_t slot = entry_slot;
  while (slot < block_index_.size() && b.ops.size() < kMaxBlockOps) {
    // Step's fetch rule: the second halfword is read only for a wide (BL-prefix) encoding
    // whose next halfword is in flash; a prefix on the last flash halfword decodes with 0.
    const uint16_t hw1 = halfword(slot);
    const bool wide = (hw1 & 0xF800) == 0xF000 && 2 * slot + 3 < flash.size();
    const Instr in = DecodeInstr(hw1, wide ? halfword(slot + 1) : 0);
    if (in.op == Op::kInvalid || in.op == Op::kUdf) {
      break;  // the interpreter raises the fault with the exact seed diagnostics
    }
    BlockOp o = Lower(in, mem_->flash_base() + static_cast<uint32_t>(2 * slot));
    o.fetch_reads = wide ? 2 : 1;
    o.is_mem = MayFault(in.op) ? 1 : 0;
    o.cycles_before = static_cycles;
    static_cycles += static_cast<uint32_t>(model_.flash_wait_states) +
                     StaticExecCycles(in, model_);
    const RegEffects re = RegEffectsOf(in);
    b.regs_read_first |= re.reads & ~b.regs_written;
    b.regs_written |= re.writes;
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
  // The flags one execution reads before writing them, over the writes it performs (an
  // elided write leaves the flags alone). A conditional C write (shift by register)
  // passes the old C through when the amount is zero, so it counts as reading C.
  for (const BlockOp& o : b.ops) {
    const FlagEffects fe = FlagEffectsOf(o.op, o.imm);
    const uint8_t writes = o.set_flags ? fe.may_write : 0;
    const uint8_t reads = fe.reads | (writes & ~fe.must_write);
    b.flags_read_first |= reads & ~b.flags_written;
    b.flags_written |= writes & fe.must_write;
  }
  // Batched accounting: the static cycle total and total counted fetches. The profiled
  // execute path indexes prof_mem_hits unconditionally, so it is sized here once instead
  // of checked on every block entry.
  b.static_cycles = static_cycles;
  b.prof_mem_hits.assign(b.ops.size(), 0);
  // Worst-case dynamic cycles one execution can add: every possible-fault op charged as a
  // flash data access (the reglist ops never charge dynamically — conservative is fine,
  // over-estimating only breaks to the exact step interpreter a little earlier), plus the
  // dearer outcome of a kBcond terminator. Run uses static_cycles + dyn_bound to prove a
  // block cannot cross the watchdog cycle limit.
  const uint32_t fw = static_cast<uint32_t>(model_.flash_wait_states);
  for (const BlockOp& o : b.ops) {
    b.fetch_reads += o.fetch_reads;
    if (o.is_mem) {
      b.dyn_bound += fw;
    }
    if (o.op == Op::kBcond) {
      b.dyn_bound += static_cast<uint32_t>(
          std::max(model_.branch_taken, model_.branch_not_taken));
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
  return CpuArchState{regs_, pc_, flags_, cycles_, instructions_};
}

void Cpu::RestoreState(const CpuArchState& state) {
  regs_ = state.regs;
  pc_ = state.pc;
  flags_ = state.flags;
  cycles_ = state.cycles;
  instructions_ = state.instructions;
}

void Cpu::ResetCounters() {
  cycles_ = 0;
  instructions_ = 0;
  mem_->ResetStats();
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
      if (!blocks_valid_) {
        SyncBlocksWithFlash();
      }
      // Chained block dispatch: block mode's activation conditions and the block cache's
      // validity cannot change inside this loop (probes attach between calls, an alarm
      // callback runs on the step path, and the guest cannot write flash — it faults), so
      // blocks execute back to back until the pc leaves compiled coverage, an entry can't
      // start a block, or a block could cross the instruction limit or the watchdog cycle
      // limit. That block then runs on the step interpreter, which keeps the
      // budget/deadline fault and the alarm firing at exactly the same retired
      // instruction as the step interpreter alone, without compiling a block at every
      // entry it steps through. A wrapping pc (SRAM, unmapped, the halt sentinel) makes
      // `slot` huge and exits the loop through the coverage check.
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

// Executes one compiled block with a single dispatch: no per-step counter updates or
// probe checks (block mode is inactive when a probe is attached), and no per-step fetch
// or decode. Cycle, instruction and fetch accounting are applied once at block exit; a
// GuestFault mid-block patches them to the exact interpreter state for the faulting
// instruction before rethrowing. The ops run the bodies of thumb_ops.inc, each ending in
// an indirect jump through the label table to the next op's body. The source gives every
// op its own jump, but the compiler may merge them into a few shared dispatch sites, so
// the host branch predictor need not see one site per preceding op (DESIGN.md §12).
// NEUROC_NEXT also advances the profiled hit-counter cursor in lockstep with the op
// pointer (discarded in the unprofiled instantiation), so charge_mem records a
// flash-wait hit with a plain `++*prof_slot` — no per-access op-index math on the hot
// path.
// The machine's own state, as both ExecuteBlock and Step present it to the op bodies
// (with Word = uint32_t, so NEUROC_SCALAR has nothing to extract).
#define NEUROC_REG(r) regs_[r]
#define NEUROC_FLAGS flags_
#define NEUROC_COND(cond) (CondHolds<Word>(flags_, cond).v)
#define NEUROC_LOAD8(a) mem_->Read8(a)
#define NEUROC_LOAD16(a) mem_->Read16(a)
#define NEUROC_LOAD32(a) mem_->Read32(a)
#define NEUROC_STORE8(a, v) mem_->Write8(a, static_cast<uint8_t>(v))
#define NEUROC_STORE16(a, v) mem_->Write16(a, static_cast<uint16_t>(v))
#define NEUROC_STORE32(a, v) mem_->Write32(a, v)
#define NEUROC_SCALAR(x) (x)
#define NEUROC_PC pc_
#define NEUROC_DYN dyn
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
void Cpu::ExecuteBlock(const Block& b) {
  using Word = uint32_t;
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
#define NEUROC_OP_LABEL(name, ...) &&lbl_##name,
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
      mem_->CountFlashFetches(b.ops[k].addr, b.ops[k].fetch_reads);
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
  if constexpr (kProfiled) {
    ++b.prof_execs;
  }
  if (mem_->observing()) {
    // Heatmap/stack-watch attached: replay per-halfword fetch observations in order so
    // the heatmaps match the interpreter exactly.
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
    const uint16_t hw1 = mem_->Read16(addr);
    // Peek the second halfword only for 32-bit encodings (BL prefix). A wide prefix on the
    // last mapped halfword is an undefined instruction (hw2 reads as 0), not a memory
    // fault mid-fetch.
    const bool wide = (hw1 & 0xF800) == 0xF000;
    const uint16_t hw2 =
        (wide && mem_->RegionOf(addr + 2) != MemRegion::kNone) ? mem_->Read16(addr + 2) : 0;
    const Instr in = DecodeInstr(hw1, hw2);
    if (in.op == Op::kInvalid || in.op == Op::kUdf) {
      char msg[48];
      std::snprintf(msg, sizeof(msg), "undefined instruction 0x%04x", hw1);
      throw GuestFault{ErrorCode::kUndefinedInstruction, msg, /*addr=*/0, /*pc=*/addr,
                       /*instruction=*/hw1};
    }
    ++instructions_;
    const uint32_t fetch_ws = static_cast<uint32_t>(model_.flash_wait_states);
    if (fetch_from_flash) {
      cycles_ += fetch_ws;
    }
    pc_ = addr + 2u * in.length;  // default fall-through; branches overwrite
    // What the block executor leaves in r15 after this instruction, so cpu.reg(15) reads
    // the same on every decode path (the bodies read r15 through NEUROC_RVAL).
    regs_[kRegPc] = addr + 4;
    lowered = Lower(in, addr);
    using Word = uint32_t;
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

#undef NEUROC_REG
#undef NEUROC_FLAGS
#undef NEUROC_COND
#undef NEUROC_LOAD8
#undef NEUROC_LOAD16
#undef NEUROC_LOAD32
#undef NEUROC_STORE8
#undef NEUROC_STORE16
#undef NEUROC_STORE32
#undef NEUROC_SCALAR
#undef NEUROC_PC
#undef NEUROC_DYN

// Where the lanes' data accesses go: the shared flash, the base SRAM image, the lanes'
// SRAM words and the per-word written/read-first record (Cpu::Lanes). `failed` is set
// instead of faulting.
struct LaneMemory {
  const uint8_t* flash;
  uint32_t flash_base;
  uint32_t flash_size;
  const uint8_t* base_ram;
  uint32_t ram_base;
  uint32_t ram_size;
  uint8_t* words;
  uint8_t* word_state;
  MemAccessStats stats;  // one lane's accesses, the same in every lane
  bool failed = false;
};

namespace {

// The lane executor's value type for W lanes: one uint32_t per lane.
template <size_t W>
struct LaneTypes {
  typedef uint32_t Word __attribute__((vector_size(4 * W)));
};

// The bytes of its word an aligned access of kSize at SRAM offset `off` covers.
template <uint32_t kSize>
uint8_t WordBytes(uint32_t off) {
  return static_cast<uint8_t>(((1u << kSize) - 1) << (off & 3));
}

// The value mask of the bytes a WordBytes nibble names.
constexpr uint32_t ByteMask(uint8_t bytes) {
  return ((bytes & 1) ? 0xFFu : 0) | ((bytes & 2) ? 0xFF00u : 0) |
         ((bytes & 4) ? 0xFF0000u : 0) | ((bytes & 8) ? 0xFF000000u : 0);
}

// The base SRAM's little-endian word at `off` (a multiple of 4). The last word of an SRAM
// whose size is not a multiple of 4 reads only its bytes in range, the rest as 0.
uint32_t BaseWord(const LaneMemory& m, uint32_t off) {
  uint32_t x = 0;
  for (uint32_t i = 0; i < 4 && off + i < m.ram_size; ++i) {
    x |= static_cast<uint32_t>(m.base_ram[off + i]) << (8 * i);
  }
  return x;
}

// NEUROC_LOADn in the lane executor. MemoryMap's alignment, region and bounds checks and
// its access count run once, on the lanes' common address; then a flash load broadcasts
// one value to every lane, and an SRAM load is one vector load of the lanes' word, shifted
// and masked to the accessed bytes. An access the machine would fault on marks the batch
// failed and reads 0, which keeps every lane in bounds until the block ends and the batch
// is abandoned (a sequential rerun then raises the fault).
template <size_t W, uint32_t kSize>
struct LaneLoad {
  using Word = typename LaneTypes<W>::Word;
  Word v{};
  LaneLoad(LaneMemory& m, uint32_t a) {
    if (a % kSize != 0) {
      m.failed = true;
      return;
    }
    if (a - m.flash_base < m.flash_size) {
      const uint32_t off = a - m.flash_base;
      if (off > m.flash_size - kSize) {
        m.failed = true;
        return;
      }
      ++m.stats.flash_reads;
      uint32_t x = 0;
      for (uint32_t i = 0; i < kSize; ++i) {
        x |= static_cast<uint32_t>(m.flash[off + i]) << (8 * i);
      }
      v = Splat<Word>(x).v;
      return;
    }
    const uint32_t off = a - m.ram_base;
    if (off > m.ram_size - kSize) {
      m.failed = true;
      return;
    }
    ++m.stats.sram_reads;
    Word w;
    std::memcpy(&w, m.words + (off >> 2) * sizeof(Word), sizeof(Word));
    // Bytes this inference has not written yet come from the base, and are recorded as
    // read before written. The lane words hold stale bytes there (the buffer is reused),
    // so every unwritten byte of the word is merged.
    uint8_t& state = m.word_state[off >> 2];
    const uint8_t unwritten = WordBytes<kSize>(off) & ~state;
    if (unwritten != 0) {
      const uint32_t written = ByteMask(state & 0xF);
      w = (w & Splat<Word>(written).v) | Splat<Word>(BaseWord(m, off & ~3u) & ~written).v;
      state |= static_cast<uint8_t>(unwritten << kReadFirstShift);
    }
    if constexpr (kSize == 4) {
      v = w;
    } else {
      v = (w >> (8 * (off & 3))) & Splat<Word>((1u << (8 * kSize)) - 1).v;
    }
  }
};

// NEUROC_STOREn in the lane executor: the checks and the count once, then one vector
// store of the lanes' word, or for a byte or halfword one masked read-modify-write of it.
template <size_t W, uint32_t kSize>
void LaneStore(LaneMemory& m, uint32_t a, const typename LaneTypes<W>::Word& v) {
  using Word = typename LaneTypes<W>::Word;
  const uint32_t off = a - m.ram_base;
  if (a % kSize != 0 || off > m.ram_size - kSize) {
    m.failed = true;  // unaligned, flash (read-only to the guest) or unmapped
    return;
  }
  ++m.stats.sram_writes;
  uint8_t* slot = m.words + (off >> 2) * sizeof(Word);
  if constexpr (kSize == 4) {
    std::memcpy(slot, &v, sizeof(Word));
  } else {
    const uint32_t shift = 8 * (off & 3);
    const Word mask = Splat<Word>(((1u << (8 * kSize)) - 1) << shift).v;
    Word w;
    std::memcpy(&w, slot, sizeof(Word));
    w = (w & ~mask) | ((v << shift) & mask);
    std::memcpy(slot, &w, sizeof(Word));
  }
  m.word_state[off >> 2] |= WordBytes<kSize>(off);
}

}  // namespace

bool Cpu::BeginLanes(size_t lanes) {
  NEUROC_CHECK(lanes >= 1 && lanes <= kMaxLanes);
  NEUROC_CHECK(lanes_ == nullptr || !lanes_->open);
  if (!BlockModeActive() || block_profile_enabled_ || alarm_ || mem_->observing()) {
    return false;
  }
  if (lanes_ == nullptr) {
    lanes_ = std::make_unique<Lanes>();
  }
  Lanes& ls = *lanes_;
  ls.count = lanes;
  ls.width = lanes <= 2 ? 2 : lanes <= 4 ? 4 : kMaxLanes;
  const size_t words = (mem_->ram_size() + 3) / 4;
  if (ls.ram_bytes < ls.width * 4 * words) {
    ls.ram_bytes = ls.width * 4 * words;
    ls.ram.reset(static_cast<uint8_t*>(std::calloc(ls.ram_bytes, 1)));
    NEUROC_CHECK(ls.ram != nullptr);
  }
  ls.word_state.assign(words, 0);
  for (size_t r = 0; r < ls.regs.size(); ++r) {
    ls.regs[r].fill(regs_[r]);
  }
  ls.flags[0].fill(flags_.n);
  ls.flags[1].fill(flags_.z);
  ls.flags[2].fill(flags_.c);
  ls.flags[3].fill(flags_.v);
  ls.base_regs = regs_;
  ls.base_flags = flags_;
  ls.regs_read_first = 0;
  ls.regs_written = 0;
  ls.flags_read_first = 0;
  ls.flags_written = 0;
  ls.pc = pc_;
  ls.r15 = regs_[kRegPc];
  ls.cycles = 0;
  ls.instructions = 0;
  ls.fetch_reads = 0;
  ls.data = MemAccessStats{};
  ls.open = true;
  return true;
}

bool Cpu::WriteLanes(uint32_t addr, std::span<const std::span<const uint8_t>> bytes) {
  Lanes& ls = *lanes_;
  NEUROC_CHECK(ls.open && bytes.size() == ls.count);
  const size_t size = bytes[0].size();
  const uint32_t off = addr - mem_->ram_base();
  if (off > mem_->ram_size() || size > mem_->ram_size() - off) {
    AbortLanes();
    return false;
  }
  for (size_t j = 0; j < ls.width; ++j) {
    const std::span<const uint8_t> in = bytes[j < ls.count ? j : 0];
    NEUROC_CHECK(in.size() == size);
    for (size_t i = 0; i < size; ++i) {
      ls.ram.get()[LaneByte(off + i, ls.width, j)] = in[i];
    }
  }
  for (size_t i = off; i < off + size; ++i) {
    ls.word_state[i >> 2] |= static_cast<uint8_t>(1u << (i & 3));
  }
  return true;
}

bool Cpu::ReadLane(size_t lane, uint32_t addr, std::span<uint8_t> out) {
  Lanes& ls = *lanes_;
  NEUROC_CHECK(ls.open && lane < ls.count);
  const uint32_t off = addr - mem_->ram_base();
  if (off > mem_->ram_size() || out.size() > mem_->ram_size() - off) {
    AbortLanes();
    return false;
  }
  const uint8_t* base = mem_->sram_bytes().data();
  for (size_t i = 0; i < out.size(); ++i) {
    const size_t b = off + i;
    const bool written = (ls.word_state[b >> 2] >> (b & 3)) & 1;
    out[i] = written ? ls.ram.get()[LaneByte(b, ls.width, lane)] : base[b];
  }
  return true;
}

void Cpu::SetLaneReg(int index, uint32_t value) {
  Lanes& ls = *lanes_;
  NEUROC_CHECK(ls.open && index >= 0 && index < kRegPc);
  ls.regs[static_cast<size_t>(index)].fill(value);
  ls.regs_written |= static_cast<uint16_t>(1u << index);
}

bool Cpu::CommitLanes() {
  Lanes& ls = *lanes_;
  NEUROC_CHECK(ls.open);
  const auto lane_flags = [&ls](size_t j) {
    return CpuFlags{ls.flags[0][j] != 0, ls.flags[1][j] != 0, ls.flags[2][j] != 0,
                    ls.flags[3][j] != 0};
  };
  // Lane j + 1 ran from the base where a sequential run starts from lane j's end state.
  // The two differ only in what lane j changed, and lane j + 1 can only have seen that
  // through state it read before writing: those registers, flags and SRAM bytes must
  // hold in lane j's end state what they hold in the base.
  const uint8_t base_flags = FlagBits(ls.base_flags);
  const uint8_t* base_ram = mem_->sram_bytes().data();
  const uint8_t* ram = ls.ram.get();
  const size_t width = ls.width;
  for (size_t j = 0; j + 1 < ls.count; ++j) {
    for (size_t r = 0; r < kRegPc; ++r) {
      if (((ls.regs_read_first >> r) & 1) && ls.regs[r][j] != ls.base_regs[r]) {
        AbortLanes();
        return false;
      }
    }
    if (((FlagBits(lane_flags(j)) ^ base_flags) & ls.flags_read_first) != 0) {
      AbortLanes();
      return false;
    }
  }
  const size_t words = ls.word_state.size();
  for (size_t w = NextTouchedWord(ls.word_state, 0); w < words;
       w = NextTouchedWord(ls.word_state, w + 1)) {
    const uint8_t state = ls.word_state[w];
    const uint8_t dependent = (state >> kReadFirstShift) & state;
    for (size_t i = 0; dependent != 0 && i < 4; ++i) {
      if ((dependent >> i) & 1) {
        const size_t off = 4 * w + i;
        for (size_t j = 0; j + 1 < ls.count; ++j) {
          if (ram[LaneByte(off, width, j)] != base_ram[off]) {
            AbortLanes();
            return false;
          }
        }
      }
    }
  }
  // Commit the last lane's state: its registers and flags, and the SRAM bytes the lanes
  // wrote (the rest still holds the base, as sequentially), gathered from its words.
  const size_t last = ls.count - 1;
  const uint32_t ram_base = mem_->ram_base();
  for (size_t w = NextTouchedWord(ls.word_state, 0); w < words;) {
    const uint8_t written = ls.word_state[w] & 0xF;
    if (written != 0xF) {
      for (uint32_t i = 0; i < 4; ++i) {
        if ((written >> i) & 1) {
          const size_t off = 4 * w + i;
          mem_->HostWrite(ram_base + static_cast<uint32_t>(off),
                          std::span<const uint8_t>(ram + LaneByte(off, width, last), 1));
        }
      }
      w = NextTouchedWord(ls.word_state, w + 1);
      continue;
    }
    size_t end = w + 1;
    while (end < words && (ls.word_state[end] & 0xF) == 0xF) {
      ++end;
    }
    ls.commit_bytes.resize(4 * (end - w));
    for (size_t k = 0; k < ls.commit_bytes.size(); ++k) {
      ls.commit_bytes[k] = ram[LaneByte(4 * w + k, width, last)];
    }
    mem_->HostWrite(ram_base + static_cast<uint32_t>(4 * w), ls.commit_bytes);
    w = NextTouchedWord(ls.word_state, end);
  }
  for (size_t r = 0; r < regs_.size(); ++r) {
    regs_[r] = ls.regs[r][last];
  }
  regs_[kRegPc] = ls.r15;
  flags_ = lane_flags(last);
  pc_ = ls.pc;
  const uint64_t lanes = ls.count;
  cycles_ += lanes * ls.cycles;
  instructions_ += lanes * ls.instructions;
  mem_->AddStats({lanes * (ls.data.flash_reads + ls.fetch_reads), lanes * ls.data.sram_reads,
                  lanes * ls.data.sram_writes});
  ls.open = false;
  return true;
}

void Cpu::AbortLanes() {
  Lanes& ls = *lanes_;
  NEUROC_CHECK(ls.open);
  ls.open = false;
}

const char* Cpu::LaneExecutorName(LaneExecutor executor) {
  return executor == LaneExecutor::kAvx2 ? "avx2" : "generic";
}

bool Cpu::LaneExecutorSupported(LaneExecutor executor) {
  if (executor == LaneExecutor::kGeneric) {
    return true;
  }
#if NEUROC_AVX2_LANES
  static const bool host_has_avx2 = __builtin_cpu_supports("avx2");
  return host_has_avx2;
#else
  return false;
#endif
}

void Cpu::SetLaneExecutorForTest(LaneExecutor executor) {
  NEUROC_CHECK(LaneExecutorSupported(executor));
  lane_executor_for_test_ = executor;
}

std::optional<uint64_t> Cpu::RunLanes(uint32_t entry, uint64_t max_instructions,
                                      uint64_t cycle_budget) {
  Lanes& ls = *lanes_;
  NEUROC_CHECK(ls.open);
  if (!blocks_valid_) {
    SyncBlocksWithFlash();
  }
  ls.call_start_cycles = ls.cycles;
  ls.call_budget_end = max_instructions > UINT64_MAX - ls.instructions
                           ? UINT64_MAX
                           : ls.instructions + max_instructions;
  ls.call_cycle_budget = cycle_budget;
  ls.pc = entry & ~1u;
  // On this frame rather than in Lanes: the lane executor ran measurably slower with it
  // beside the lanes' register files.
  LaneMemory memory{mem_->flash_bytes().data(), mem_->flash_base(), mem_->flash_size(),
                    mem_->sram_bytes().data(),  mem_->ram_base(),   mem_->ram_size(),
                    ls.ram.get(),               ls.word_state.data(), MemAccessStats{}};
  const Block* first = NextLaneBlock();
  bool ok = false;
  if (first == nullptr) {
    ok = ls.pc == (kStopAddress & ~1u);
  } else {
    const LaneExecutor executor = lane_executor_for_test_.value_or(
        LaneExecutorSupported(LaneExecutor::kAvx2) ? LaneExecutor::kAvx2
                                                   : LaneExecutor::kGeneric);
    last_lane_executor_ = executor;
#if NEUROC_AVX2_LANES
    if (executor == LaneExecutor::kAvx2) {
      ok = ls.width == 2   ? ExecuteLanesAvx2<2>(first, memory)
           : ls.width == 4 ? ExecuteLanesAvx2<4>(first, memory)
                           : ExecuteLanesAvx2<kMaxLanes>(first, memory);
    } else
#endif
    {
      ok = ls.width == 2   ? ExecuteLanes<2>(first, memory)
           : ls.width == 4 ? ExecuteLanes<4>(first, memory)
                           : ExecuteLanes<kMaxLanes>(first, memory);
    }
  }
  if (!ok) {
    AbortLanes();
    return std::nullopt;
  }
  ls.data.flash_reads += memory.stats.flash_reads;
  ls.data.sram_reads += memory.stats.sram_reads;
  ls.data.sram_writes += memory.stats.sram_writes;
  return ls.cycles - ls.call_start_cycles;
}

inline const Cpu::Block* Cpu::NextLaneBlock() {
  Lanes& ls = *lanes_;
  if (ls.pc == (kStopAddress & ~1u)) {
    return nullptr;
  }
  const size_t slot = static_cast<size_t>(ls.pc - mem_->flash_base()) >> 1;
  int32_t index = slot < block_index_.size() ? block_index_[slot] : kBlockStepOnly;
  if (index == kBlockNotCompiled) {
    index = CompileBlock(slot);
  }
  if (index < 0) {
    return nullptr;
  }
  const Block& blk = blocks_[static_cast<size_t>(index)];
  // Run's limits, counted on one lane: every lane retires the same instructions and
  // cycles, so a block that could cross either runs nowhere — the batch fails and the
  // sequential rerun reaches the limit on the step interpreter, as Run does.
  if (ls.instructions + blk.ops.size() > ls.call_budget_end ||
      (ls.call_cycle_budget != 0 && ls.cycles - ls.call_start_cycles + blk.static_cycles +
                                            blk.dyn_bound >
                                        ls.call_cycle_budget)) {
    return nullptr;
  }
  ls.regs_read_first |= blk.regs_read_first & ~ls.regs_written;
  ls.regs_written |= blk.regs_written;
  ls.flags_read_first |= blk.flags_read_first & ~ls.flags_written;
  ls.flags_written |= blk.flags_written;
  return &blk;
}

// Runs the lanes through compiled blocks from `b` on, chained as in Run, until they
// return. Each op is dispatched once and its body from thumb_ops.inc runs once, over
// W-lane vectors: the registers and flags live as vectors in this frame, loaded from
// Lanes on entry and stored back on exit. Where a body needs a scalar (an address, a
// shift amount, a branch condition, a PC write) it takes lane 0's, and every lane's
// difference from it accumulates in `diverged`; that and the memory's failure flag are
// checked at each block exit, so the batch fails at the first block the lanes would
// leave in different ways. Accounting happens once per block for one lane; the commit
// multiplies it. Both executors, ExecuteLanes and its AVX2 twin, are this one body
// (execute_lanes.inc).
#define NEUROC_REG(r) regs[r]
#define NEUROC_FLAGS flags
#define NEUROC_COND(cond) (CondHolds<Word>(flags, cond).v)
#define NEUROC_LOAD8(a) (LaneLoad<W, 1>(memory, a).v)
#define NEUROC_LOAD16(a) (LaneLoad<W, 2>(memory, a).v)
#define NEUROC_LOAD32(a) (LaneLoad<W, 4>(memory, a).v)
#define NEUROC_STORE8(a, v) LaneStore<W, 1>(memory, a, v)
#define NEUROC_STORE16(a, v) LaneStore<W, 2>(memory, a, v)
#define NEUROC_STORE32(a, v) LaneStore<W, 4>(memory, a, v)
#define NEUROC_SCALAR(x) scalar(x)
#define NEUROC_PC pc
#define NEUROC_DYN dyn
#define NEUROC_OP(name) lbl_##name:
#define NEUROC_NEXT                                   \
  do {                                                \
    if (++op == op_end) goto lanes_exit;              \
    goto* kDispatch[static_cast<size_t>(op->op)];     \
  } while (0)
#define NEUROC_TAKEN
template <size_t W>
bool Cpu::ExecuteLanes(const Block* b, LaneMemory& memory) {
#include "src/sim/execute_lanes.inc"
}

#if NEUROC_AVX2_LANES
template <size_t W>
bool Cpu::ExecuteLanesAvx2(const Block* b, LaneMemory& memory) {
#include "src/sim/execute_lanes.inc"
}
#endif

#undef NEUROC_REG
#undef NEUROC_FLAGS
#undef NEUROC_COND
#undef NEUROC_LOAD8
#undef NEUROC_LOAD16
#undef NEUROC_LOAD32
#undef NEUROC_STORE8
#undef NEUROC_STORE16
#undef NEUROC_STORE32
#undef NEUROC_SCALAR
#undef NEUROC_PC
#undef NEUROC_DYN
#undef NEUROC_OP
#undef NEUROC_NEXT
#undef NEUROC_TAKEN

}  // namespace neuroc
