#include "src/common/status.h"

#include <cstdio>

namespace neuroc {

const char* ErrorCodeName(ErrorCode code) {
  switch (code) {
    case ErrorCode::kOk: return "OK";
    case ErrorCode::kUndefinedInstruction: return "UNDEFINED_INSTRUCTION";
    case ErrorCode::kUnmappedAccess: return "UNMAPPED_ACCESS";
    case ErrorCode::kUnalignedAccess: return "UNALIGNED_ACCESS";
    case ErrorCode::kIllegalStore: return "ILLEGAL_STORE";
    case ErrorCode::kInstructionBudgetExceeded: return "INSTRUCTION_BUDGET_EXCEEDED";
    case ErrorCode::kDeadlineExceeded: return "DEADLINE_EXCEEDED";
    case ErrorCode::kIntegrityFailure: return "INTEGRITY_FAILURE";
    case ErrorCode::kMalformedImage: return "MALFORMED_IMAGE";
    case ErrorCode::kResourceExhausted: return "RESOURCE_EXHAUSTED";
    case ErrorCode::kInvalidArgument: return "INVALID_ARGUMENT";
    case ErrorCode::kIoError: return "IO_ERROR";
    case ErrorCode::kInternal: return "INTERNAL";
  }
  return "UNKNOWN";
}

std::string FaultReport::Describe() const {
  std::string out;
  // "at" names the most useful address for the fault class: the faulting data address
  // for memory faults, the instruction address otherwise.
  const bool data_fault = code == ErrorCode::kUnmappedAccess ||
                          code == ErrorCode::kUnalignedAccess ||
                          code == ErrorCode::kIllegalStore;
  char buf[160];
  std::snprintf(buf, sizeof(buf), "simulator: %s at 0x%08x [%s] pc=0x%08x",
                message.c_str(), data_fault ? addr : pc, ErrorCodeName(code), pc);
  out += buf;
  std::snprintf(buf, sizeof(buf), " after %llu instructions / %llu cycles",
                static_cast<unsigned long long>(instructions),
                static_cast<unsigned long long>(cycles));
  out += buf;
  return out;
}

std::string Status::ToString() const {
  if (ok()) {
    return "OK";
  }
  std::string out = ErrorCodeName(code_);
  out += ": ";
  out += message_;
  if (fault_ != nullptr) {
    out += "\n";
    out += fault_->Describe();
  }
  return out;
}

}  // namespace neuroc
