// ARMv6-M CPU executor: fetch/decode/execute over a MemoryMap with cycle accounting.
//
// Program-counter convention: `pc()` is the address of the next instruction to execute;
// reads of register 15 return pc+4 per the Thumb execution model. Returning through the
// magic address kStopAddress halts execution (the Machine uses it as the call sentinel,
// mirroring how EXC_RETURN-style sentinels work on real parts).

#ifndef NEUROC_SRC_SIM_CPU_H_
#define NEUROC_SRC_SIM_CPU_H_

#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "src/isa/isa.h"
#include "src/sim/cycle_model.h"
#include "src/sim/memory.h"

namespace neuroc {

struct LaneMemory;

struct CpuFlags {
  bool n = false;
  bool z = false;
  bool c = false;
  bool v = false;
};

// Opt-in per-instruction observer (see src/obs/sim_profiler.h for the flat profiler built
// on it). The hook fires after each retired instruction with the instruction address, the
// opcode, and the exact cycle cost charged for it — including flash wait states on the
// fetch, memory-access costs, and branch penalties, so per-PC cycles sum to Cpu::cycles().
// With no probe attached the only cost on the Step hot path is one null check, and the
// simulated cycle/instruction counts are identical either way.
class CpuProbe {
 public:
  virtual ~CpuProbe() = default;
  virtual void OnRetire(uint32_t addr, Op op, uint32_t cycles) = 0;
};

// Snapshot of the CPU's architectural state (see Cpu::SaveState). Derived state (decode
// cache, compiled blocks, probe and alarm attachments) is deliberately absent — caches
// rebuild deterministically and observers are host-side attachments, not machine state.
struct CpuArchState {
  std::array<uint32_t, 16> regs{};
  uint32_t pc = 0;
  CpuFlags flags;
  uint64_t cycles = 0;
  uint64_t instructions = 0;
};

class Cpu {
 public:
  static constexpr uint32_t kStopAddress = 0xFFFFFFFE;

  Cpu(MemoryMap* memory, CycleModel model);
  ~Cpu();
  // The CPU parks its decode-cache validity flag inside the MemoryMap (flash-write
  // listener), so its address must stay stable for its lifetime.
  Cpu(const Cpu&) = delete;
  Cpu& operator=(const Cpu&) = delete;

  uint32_t reg(int index) const { return regs_[static_cast<size_t>(index)]; }
  void set_reg(int index, uint32_t value) { regs_[static_cast<size_t>(index)] = value; }
  uint32_t pc() const { return pc_; }
  void set_pc(uint32_t addr) { pc_ = addr & ~1u; }
  const CpuFlags& flags() const { return flags_; }
  void set_flags(CpuFlags f) { flags_ = f; }

  bool halted() const { return pc_ == (kStopAddress & ~1u); }

  // Executes one instruction on the step interpreter; updates cycle and instruction
  // counters. It fetches and decodes (through the decode cache when enabled), lowers the
  // instruction with the block compiler's lowering and runs the same op body the block
  // executor runs, so the two paths share one definition of every op. Guest faults
  // (undefined instruction, unmapped/unaligned access, store into flash) propagate as
  // GuestFault exceptions stamped with the faulting instruction's address — recoverable
  // at the Machine::TryCallFunction boundary, never a host abort.
  void Step();

  // Steps until halted; throws GuestFault(kInstructionBudgetExceeded) once more than
  // `max_instructions` retire. Keeping the loop in the CPU's own translation unit lets
  // the per-instruction dispatch stay call-free and hot. `cycle_limit` is the watchdog
  // deadline: an absolute bound on `cycles()` (0 disables). The first retired instruction
  // that pushes the counter past it throws GuestFault(kDeadlineExceeded) — block-compiled
  // execution runs any block that *could* cross the limit on the step interpreter, so the
  // faulting instruction, counters and registers are bit-identical across all decode
  // modes, and a limit that is never approached costs one compare per block.
  void Run(uint64_t max_instructions, uint64_t cycle_limit = 0);

  // One-shot instruction alarm, the hook for host events that strike mid-run (the fault
  // injector's mid-inference upset). Run calls `on_alarm` once, right after the first
  // instruction that completes with instructions() >= `at_instructions`; cycles(),
  // instructions(), registers, flags and pc() then read exactly as the step interpreter
  // leaves them after that instruction, on every decode path. Run folds the alarm into
  // the retired-instruction limit it already checks once per block, so only the block
  // holding the alarm instruction runs on the step interpreter and block dispatch resumes
  // after it. The callback may write flash (the caches re-validate before the next
  // block), attach observers, or arm a new alarm. An instruction that faults never fires
  // it: the alarm stays armed until it fires or is cleared.
  void SetInstructionAlarm(uint64_t at_instructions, std::function<void()> on_alarm);
  void ClearInstructionAlarm() { alarm_ = nullptr; }
  bool instruction_alarm_armed() const { return static_cast<bool>(alarm_); }

  // Architectural state capture/restore, the substrate for Machine::Snapshot.
  CpuArchState SaveState() const;
  void RestoreState(const CpuArchState& state);

  uint64_t cycles() const { return cycles_; }
  uint64_t instructions() const { return instructions_; }
  void ResetCounters();

  // Attaches (or with nullptr detaches) the per-instruction probe. The probe must outlive
  // the attachment.
  void set_probe(CpuProbe* probe) { probe_ = probe; }
  CpuProbe* probe() const { return probe_; }

  // Predecoded-instruction cache: each halfword-aligned flash slot is decoded once, and
  // re-decoded only when a host write or restore changes its bytes (or the second
  // halfword of its BL pair), so the fetch path becomes a table lookup.
  // Cycle/instruction counters, memory-access stats, heatmaps and probe callbacks are
  // bit-identical with the cache on or off; the toggle exists so benchmarks can
  // measure the legacy decode-every-step path. Disabling the decode cache also disables
  // block-compiled execution (compiled blocks are built from the predecoded slots).
  void EnableDecodeCache(bool enabled);
  bool decode_cache_enabled() const { return icache_enabled_; }

  // Block-compiled execution: straight-line Thumb basic blocks (runs of predecoded flash
  // instructions ending at a branch/call/PC-writing instruction) are fused into compact
  // op-chains executed with one dispatch per block, with cycle/instruction/fetch
  // accounting batched at block exit and dead APSR flag writes elided (an op's flags are
  // only materialized when a later consumer — conditional branch, ADC/SBC — or a possible
  // guest-fault site can observe them). Execution falls back to the step interpreter at
  // block boundaries, for SRAM or uncovered flash, when a CpuProbe is attached, and for
  // blocks that could cross the instruction budget, an instruction alarm or the watchdog
  // deadline, so every observable quantity (counters, stats, heatmaps, probe streams,
  // fault reports) stays bit-identical to the interpreter. A flash change retires only
  // the blocks whose slots it overlaps. On by default; benchmarks toggle it off to
  // measure the predecode-cache-only path.
  void EnableBlockCompile(bool enabled);
  bool block_compile_enabled() const { return block_enabled_; }
  // Entries in the compiled-block table, live or awaiting reuse. Flash changes retire
  // blocks and later compiles reuse their entries, so this stays bounded by the code's
  // distinct block entry points however many invalidations a run sees.
  size_t block_table_size() const { return blocks_.size(); }

  // Block-granular profiling: per-PC/per-opcode cycle attribution that stays on the
  // block-compiled fast path. While enabled, ExecuteBlock bumps one exec counter per
  // block (plus a per-op flash-wait hit counter on data accesses and the taken count of
  // the conditional-branch terminator — the only two dynamic cycle sources inside a
  // block), and CollectBlockProfile expands those counters exactly to per-PC attribution
  // using the compiler's per-op static-cycle prefix sums. Mid-block faults and
  // interpreter-fallback steps (uncovered flash, step-only entries, budget tails, SRAM)
  // are folded in as per-PC residue, so the collected cycles sum exactly to the
  // Cpu::cycles() delta of the profiled window — the same invariant the step-interpreter
  // probe gives — without dropping out of block dispatch.
  struct ProfiledPc {
    uint64_t count = 0;   // times the instruction at this PC retired
    uint64_t cycles = 0;  // exact cycles charged to it (fetch waits, memory, branches)
    Op op = Op::kInvalid;
  };
  void EnableBlockProfile(bool enabled);
  bool block_profile_enabled() const { return block_profile_enabled_; }
  // Expands all per-block counters (plus residue) into an address-ordered per-PC map and
  // resets the per-block counters; the accumulated map persists until ResetBlockProfile.
  const std::map<uint32_t, ProfiledPc>& CollectBlockProfile() const;
  void ResetBlockProfile();

  // Lockstep lanes: one batch of up to kMaxLanes inferences of the same code, run
  // together through the compiled blocks. Each lane has its own registers, flags and
  // SRAM over the shared flash and starts from the CPU's current state; each op is
  // dispatched once and its body applied to every lane. The batch commits exactly the
  // state running the lanes one after another would leave, or fails and leaves the CPU
  // and memory as they were (docs/SIMULATOR.md, "Lockstep lanes"). Machine::
  // TryRunLockstep drives these steps; calls outside an open batch are host bugs.
  static constexpr size_t kMaxLanes = 8;
  // Opens a batch of `lanes` (1..kMaxLanes). Declines, opening nothing, unless block
  // dispatch is active with no probe, block profile, instruction alarm, heatmap or stack
  // watch attached.
  bool BeginLanes(size_t lanes);
  // Host write of each lane's own bytes at `addr` (its input; one span per lane, all of
  // one size) before the first call. False, with the batch abandoned, when the bytes are
  // not all SRAM.
  bool WriteLanes(uint32_t addr, std::span<const std::span<const uint8_t>> bytes);
  // Sets register `index` in every lane, as Machine::TryCallFunction sets the argument,
  // stack and link registers before a call.
  void SetLaneReg(int index, uint32_t value);
  // Runs every lane from `entry` until it returns through kStopAddress; returns the
  // cycles one lane spent, the same in every lane. Fails, abandoning the batch, when
  // the lanes' branches or memory addresses diverge, a lane would fault, execution
  // leaves compiled flash, or a block could cross `max_instructions` or `cycle_budget`
  // (relative to the call's start; 0 = unsupervised) — exactly the cases Run would
  // need the step interpreter or a fault report for.
  std::optional<uint64_t> RunLanes(uint32_t entry, uint64_t max_instructions,
                                   uint64_t cycle_budget);
  // Host read of one lane's SRAM after its calls (its output). False, with the batch
  // abandoned, when the bytes are not all SRAM.
  bool ReadLane(size_t lane, uint32_t addr, std::span<uint8_t> out);
  // Closes the batch. Commits when no lane read a register, flag or SRAM byte before
  // writing it whose value the previous lane would have left different (the one state
  // a lane sees differently from a sequential run), and otherwise abandons it. A commit
  // leaves the last lane's registers, flags and SRAM, and advances cycles, instructions
  // and the memory stats by lanes × one lane's delta.
  bool CommitLanes();
  // Abandons an open batch: the CPU and memory read exactly as before BeginLanes.
  void AbortLanes();

  const CycleModel& cycle_model() const { return model_; }
  MemoryMap& memory() { return *mem_; }

 private:
  // One decoded flash slot, keyed by (addr - flash_base) >> 1. The first halfword rides
  // along so undefined-instruction fault reports match the interpreter byte for byte;
  // flash_reads is the number of counted halfword fetches (2 for a wide encoding whose
  // second halfword is mapped, else 1), precomputed so the fetch path is branch-free.
  struct Predecoded {
    Instr instr;
    uint16_t hw1 = 0;
    uint8_t flash_reads = 1;
  };
  // Brings the decode cache up to date with flash: re-decodes the slots host writes and
  // restores changed (one slot back for a BL pair) plus any newly covered slots, and
  // retires the compiled blocks overlapping them. A first build, or one after the cache
  // was dropped, is the same loop over the whole covered range.
  void RebuildDecodeCache();

  // One lowered instruction, the form both executors run (src/sim/thumb_ops.inc).
  // PC-relative operands (literal-load and ADR addresses, branch targets) are resolved to
  // absolute values by Lower. In a compiled block, all static cycle costs — fetch wait
  // states and fixed execution costs — are folded into the block's static_cycles total;
  // cycles_before is this op's prefix of that total (the static cycles of everything
  // retired before it, plus nothing of its own), which lets a mid-block fault reconstruct
  // the exact interpreter cycle count. Only the dynamic costs (data-access flash wait
  // states, the conditional-branch outcome) are accumulated at runtime. fetch_reads
  // doubles as the instruction length in halfwords: invalid wide encodings never enter a
  // block, so the counted-fetch rule and the length coincide.
  struct BlockOp {
    Op op = Op::kInvalid;
    uint8_t rd = 0;
    uint8_t rn = 0;
    uint8_t rm = 0;
    Cond cond = Cond::kAl;
    uint8_t set_flags = 1;   // materialize APSR writes (a later consumer can observe them)
    uint8_t fetch_reads = 1; // counted flash halfword fetches == length in halfwords
    uint8_t is_mem = 0;      // charges a data-access cost (flash-wait check at runtime)
    uint16_t reglist = 0;
    uint32_t cycles_before = 0;  // static cycles charged for ops preceding this one
    int32_t imm = 0;
    uint32_t addr = 0;       // instruction address (PC reads, LR writes, fault stamps)
  };
  // An index into blocks_ is free (retired, awaiting reuse) when its ops are empty.
  struct Block {
    std::vector<BlockOp> ops;
    // Flash slots the block was compiled from, [entry_slot, end_slot): a flash change
    // overlapping them retires the block.
    uint32_t entry_slot = 0;
    uint32_t end_slot = 0;
    // Batched accounting applied once at block exit instead of per retired instruction.
    uint32_t static_cycles = 0;  // fetch wait states + fixed execution costs, whole block
    // Upper bound on the runtime-dynamic cycles one execution can add on top of
    // static_cycles (per-access flash wait states, the dearer kBcond outcome). The Run
    // loop uses static_cycles + dyn_bound to prove a block cannot cross the watchdog
    // cycle limit; blocks that might cross fall back to the step interpreter so the
    // deadline fires at exactly the same instruction as the legacy path.
    uint32_t dyn_bound = 0;
    uint64_t fetch_reads = 0;
    bool terminated = false;  // ends in a control-flow op (else falls through)
    // The registers (bit r for r0..r14) and APSR flags (CompileBlock's flag bits) one
    // execution reads before writing them, and those it certainly writes: lockstep lanes
    // check from these that no inference reads state the previous one left.
    uint16_t regs_read_first = 0;
    uint16_t regs_written = 0;
    uint8_t flags_read_first = 0;
    uint8_t flags_written = 0;
    // Block-profile counters, maintained only by ExecuteBlock<true>: completed profiled
    // executions, taken outcomes of a kBcond terminator, and per-op counts of data
    // accesses that hit flash (the per-access wait-state charge). Everything else a
    // profile needs is reconstructed from the static cycles_before prefix sums.
    // FlushBlockProfiles() expands and zeroes these; mutable so the flush can run from the
    // const CollectBlockProfile().
    mutable uint64_t prof_execs = 0;
    mutable uint64_t prof_bcond_taken = 0;
    // One flash-wait hit counter per op, sized at compile time (CompileBlock). The
    // profiled execute loop advances a cursor into this array in lockstep with the op
    // pointer, so recording a hit is a plain increment with no per-access index math
    // (an op index computed from the op pointer costs a divide-by-sizeof(BlockOp),
    // which dominated the profiled loop).
    mutable std::vector<uint64_t> prof_mem_hits;
  };
  static constexpr int32_t kBlockNotCompiled = -1;
  // The entry slot cannot start a block (invalid/UDF decode): always use the interpreter,
  // which raises the fault with the exact message the seed produced.
  static constexpr int32_t kBlockStepOnly = -2;

  // The Instr -> BlockOp lowering CompileBlock and Step share: copies the operands and
  // resolves PC-relative ones for an instruction at `addr`. The block-only fields
  // (fetch_reads, is_mem, cycles_before, set_flags) keep their defaults.
  static BlockOp Lower(const Instr& in, uint32_t addr);

  bool BlockModeActive() const {
    return block_enabled_ && icache_enabled_ && probe_ == nullptr;
  }
  int32_t CompileBlock(size_t entry_slot);
  // Lane state of an open lockstep batch (defined in cpu.cc); allocated on first use and
  // kept, lane SRAM buffers included, for the next batch.
  struct Lanes;
  // The next block for the open batch's lanes (RunLanes); nullptr when they have
  // returned, and when they cannot go on in lockstep.
  const Block* NextLaneBlock();
  // Runs every lane of the open batch from block `b` until the lanes return, their data
  // accesses going through `memory`; false when they diverged, one would have faulted,
  // or they left compiled code or a limit.
  bool ExecuteLanes(const Block* b, LaneMemory& memory);
  // Runs one compiled block: the op bodies Step runs, token-threaded, with the block's
  // static cycles, instructions and fetches accounted once at exit (or patched
  // to the faulting instruction's step-interpreter state on a mid-block fault).
  template <bool kProfiled>
  void ExecuteBlock(const Block& b);
  // Retires every block whose [entry_slot, end_slot) overlaps slots [lo, hi): folds its
  // profile counters first, unmaps its entry and frees its index for the next compile,
  // so blocks_ stays bounded by the live code however many invalidations a run sees.
  void RetireBlocks(size_t lo, size_t hi);
  // Expands one block's profile counters into block_profile_ per-PC entries and zeroes
  // them.
  void FoldBlockProfile(const Block& blk) const;
  // FoldBlockProfile over every block while block profiling is on. Off, every counter is
  // already zero (disabling folds them), so the flush is skipped. Must run before blocks_
  // is cleared or the counts are lost.
  void FlushBlockProfiles() const;
  // Run's retired-instruction limit: `budget_end`, or the instruction before an armed
  // alarm when that comes first.
  uint64_t InstructionLimit(uint64_t budget_end) const;

  struct AddResult {
    uint32_t value;
    bool carry;
    bool overflow;
  };
  static AddResult AddWithCarry(uint32_t x, uint32_t y, bool carry_in);

  static void SetNZ(CpuFlags& flags, uint32_t value) {
    flags.n = (value >> 31) & 1;
    flags.z = value == 0;
  }
  // Whether `cond` holds on `flags`; EvalCond asks it of the CPU's own flags.
  static bool CondHolds(const CpuFlags& flags, Cond cond);
  bool EvalCond(Cond cond) const;

  MemoryMap* mem_;
  CycleModel model_;
  std::array<uint32_t, 16> regs_{};
  uint32_t pc_ = 0;
  CpuFlags flags_;
  uint64_t cycles_ = 0;
  uint64_t instructions_ = 0;
  CpuProbe* probe_ = nullptr;
  std::vector<Predecoded> icache_;  // covers flash up to the load high-water mark
  bool icache_enabled_ = true;
  bool icache_valid_ = false;  // cleared by the MemoryMap on any change to flash
  // Block cache, maintained with (and lazily on top of) the decode cache: block_index_
  // maps a flash halfword slot to its compiled block, kBlockNotCompiled before first
  // dispatch. A flash change clears the same listener flag; the rebuild then retires only
  // the blocks over the changed slots, and free_blocks_ holds their indices for reuse.
  std::vector<Block> blocks_;
  std::vector<int32_t> block_index_;
  std::vector<int32_t> free_blocks_;
  // Armed instruction alarm (empty function when none) and the instructions() value
  // whose retirement fires it.
  std::function<void()> alarm_;
  uint64_t alarm_at_ = 0;
  bool block_enabled_ = true;
  bool block_profile_enabled_ = false;
  // Accumulated per-PC profile: expanded block counters, mid-block fault residue, and
  // interpreter-fallback step residue. Address-ordered so reads are deterministic.
  // Mutable so CollectBlockProfile / FlushBlockProfiles can run through const paths.
  mutable std::map<uint32_t, ProfiledPc> block_profile_;
  std::unique_ptr<Lanes> lanes_;
};

}  // namespace neuroc

#endif  // NEUROC_SRC_SIM_CPU_H_
