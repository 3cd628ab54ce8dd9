#include "src/sim/machine.h"

#include <cstdio>
#include <cstdlib>

#include "src/common/check.h"
#include "src/sim/guest_fault.h"

namespace neuroc {

Machine::Machine(const MachineConfig& config)
    : config_(config),
      memory_(config.flash_base, config.flash_size, config.ram_base, config.ram_size),
      cpu_(&memory_, config.cycle_model) {}

void Machine::LoadBytes(uint32_t addr, std::span<const uint8_t> bytes) {
  memory_.HostWrite(addr, bytes);
}

StatusOr<uint64_t> Machine::TryCallFunction(uint32_t addr,
                                            std::initializer_list<uint32_t> args) {
  return TryCallFunction(addr, args, /*cycle_budget=*/0);
}

StatusOr<uint64_t> Machine::TryCallFunction(uint32_t addr,
                                            std::initializer_list<uint32_t> args,
                                            uint64_t cycle_budget) {
  NEUROC_CHECK(args.size() <= 4);
  int i = 0;
  for (uint32_t a : args) {
    cpu_.set_reg(i++, a);
  }
  // 8-byte-aligned stack at the top of SRAM, per AAPCS.
  cpu_.set_reg(kRegSp, (config_.ram_base + config_.ram_size) & ~7u);
  cpu_.set_reg(kRegLr, Cpu::kStopAddress | 1u);
  cpu_.set_pc(addr);
  const uint64_t start_cycles = cpu_.cycles();
  try {
    cpu_.Run(config_.max_instructions,
             cycle_budget == 0 ? 0 : start_cycles + cycle_budget);
  } catch (const GuestFault& gf) {
    FaultReport report;
    report.code = gf.code;
    report.message = gf.message;
    report.pc = gf.pc;
    report.addr = gf.addr;
    report.instruction = gf.instruction;
    report.cycles = cpu_.cycles();
    report.instructions = cpu_.instructions();
    report.trace_tail = cpu_.DumpTrace();
    last_fault_ = report;
    return Status::FromFault(std::move(report));
  }
  last_fault_ = FaultReport{};
  return cpu_.cycles() - start_cycles;
}

std::optional<LockstepResult> Machine::TryRunLockstep(const LockstepBatch& batch) {
  const size_t lanes = batch.inputs.size();
  if (lanes == 0 || lanes > Cpu::kMaxLanes || !cpu_.BeginLanes(lanes) ||
      !cpu_.WriteLanes(batch.input_addr, batch.inputs)) {
    return std::nullopt;
  }
  LockstepResult result;
  uint64_t used = 0;
  for (const LockstepCall& call : batch.calls) {
    // A budget spent on a call boundary is a deadline fault the sequential run reports.
    if (batch.cycle_budget != 0 && used >= batch.cycle_budget) {
      cpu_.AbortLanes();
      return std::nullopt;
    }
    // The register setup of TryCallFunction(call.entry, {call.arg}).
    cpu_.SetLaneReg(0, call.arg);
    cpu_.SetLaneReg(kRegSp, (config_.ram_base + config_.ram_size) & ~7u);
    cpu_.SetLaneReg(kRegLr, Cpu::kStopAddress | 1u);
    const std::optional<uint64_t> cycles =
        cpu_.RunLanes(call.entry, config_.max_instructions,
                      batch.cycle_budget == 0 ? 0 : batch.cycle_budget - used);
    if (!cycles) {
      return std::nullopt;
    }
    result.call_cycles.push_back(*cycles);
    used += *cycles;
  }
  result.outputs.assign(lanes, std::vector<uint8_t>(batch.output_size));
  for (size_t lane = 0; lane < lanes; ++lane) {
    if (!cpu_.ReadLane(lane, batch.output_addr, result.outputs[lane])) {
      return std::nullopt;
    }
  }
  if (!cpu_.CommitLanes()) {
    return std::nullopt;
  }
  last_fault_ = FaultReport{};
  return result;
}

MachineSnapshot Machine::Snapshot() const {
  MachineSnapshot s;
  s.cpu = cpu_.SaveState();
  s.memory = memory_.SaveState();
  s.last_fault = last_fault_;
  return s;
}

void Machine::Restore(const MachineSnapshot& snapshot, RestoreScope scope) {
  memory_.RestoreState(snapshot.memory,
                       /*restore_flash=*/scope == RestoreScope::kFull);
  cpu_.RestoreState(snapshot.cpu);
  last_fault_ = snapshot.last_fault;
}

uint64_t Machine::CallFunction(uint32_t addr, std::initializer_list<uint32_t> args) {
  StatusOr<uint64_t> cycles = TryCallFunction(addr, args);
  if (!cycles.ok()) {
    std::fprintf(stderr, "%s\n", cycles.status().fault()->Describe().c_str());
    std::abort();
  }
  return *cycles;
}

}  // namespace neuroc
