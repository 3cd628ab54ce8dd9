// Structured, recoverable error propagation.
//
// The library distinguishes two failure classes:
//   - Host programming errors (out-of-range index, misuse of an API): NEUROC_CHECK aborts,
//     because continuing would invalidate every measurement (see src/common/check.h).
//   - Guest/data faults (corrupted kernel code on the simulated device, a descriptor
//     pointing at unmapped space, a malformed model file on disk): these are *expected*
//     inputs for a robustness harness and must be reportable values, not process aborts.
//     They flow through Status / StatusOr<T>, optionally carrying a FaultReport with the
//     cycle-exact simulator context at the point of failure.
//
// StatusOr<T> intentionally mirrors the std::optional surface (has_value / operator* /
// operator->) so call sites that previously used std::optional migrate without churn,
// while gaining a reason for the failure.

#ifndef NEUROC_SRC_COMMON_STATUS_H_
#define NEUROC_SRC_COMMON_STATUS_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <utility>

#include "src/common/check.h"

namespace neuroc {

enum class ErrorCode : uint8_t {
  kOk = 0,
  // Guest (simulated device) faults.
  kUndefinedInstruction,        // fetched encoding decodes to UDF/invalid
  kUnmappedAccess,              // load/store/fetch outside flash+SRAM (incl. past-end)
  kUnalignedAccess,             // ARMv6-M alignment fault
  kIllegalStore,                // guest store into flash (read-only to the CPU)
  kInstructionBudgetExceeded,   // runaway-loop guard tripped
  kDeadlineExceeded,            // watchdog cycle budget exhausted (supervisor, not guest)
  // Host-side data faults.
  kIntegrityFailure,            // CRC section digest mismatch
  kMalformedImage,              // unparseable/inconsistent model blob or IDX file
  kResourceExhausted,           // model does not fit flash/SRAM budget
  kInvalidArgument,
  kIoError,
  kInternal,
};

const char* ErrorCodeName(ErrorCode code);

// Cycle-exact context captured when a guest fault stops simulated execution. `pc` is the
// address of the faulting instruction (not the next one); `cycles`/`instructions` are the
// CPU counters at the stop, including the partially charged faulting instruction.
struct FaultReport {
  ErrorCode code = ErrorCode::kOk;
  std::string message;      // human-readable cause, e.g. "access to unmapped address"
  uint32_t pc = 0;          // faulting instruction address (0 when not applicable)
  uint32_t addr = 0;        // faulting data address (unmapped/unaligned access), else 0
  uint16_t instruction = 0; // faulting halfword encoding (undefined instruction), else 0
  uint64_t cycles = 0;
  uint64_t instructions = 0;

  // One-line diagnostic: the cause, where, and the counters at the stop.
  std::string Describe() const;
};

class Status {
 public:
  Status() = default;  // ok
  Status(ErrorCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  static Status Ok() { return Status(); }
  static Status FromFault(FaultReport report) {
    Status s(report.code, report.message);
    s.fault_ = std::make_shared<FaultReport>(std::move(report));
    return s;
  }

  bool ok() const { return code_ == ErrorCode::kOk; }
  ErrorCode code() const { return code_; }
  const std::string& message() const { return message_; }

  // Guest-fault detail when this status came out of the simulator; nullptr otherwise.
  const FaultReport* fault() const { return fault_.get(); }

  // "<code>: <message>" (plus fault context when present).
  std::string ToString() const;

 private:
  ErrorCode code_ = ErrorCode::kOk;
  std::string message_;
  std::shared_ptr<FaultReport> fault_;  // shared so Status stays cheap to copy
};

// Value-or-error. Dereferencing a non-ok StatusOr is a host programming error (CHECK).
template <typename T>
class StatusOr {
 public:
  StatusOr(T value) : value_(std::move(value)) {}  // NOLINT: implicit by design
  StatusOr(Status status) : status_(std::move(status)) {  // NOLINT
    NEUROC_CHECK_MSG(!status_.ok(), "StatusOr constructed from an OK status without a value");
  }

  bool ok() const { return value_.has_value(); }
  bool has_value() const { return value_.has_value(); }
  explicit operator bool() const { return value_.has_value(); }

  // OK when a value is present; the carried error otherwise.
  const Status& status() const { return status_; }

  T& value() & {
    NEUROC_CHECK_MSG(value_.has_value(), "StatusOr::value() on an error");
    return *value_;
  }
  const T& value() const& {
    NEUROC_CHECK_MSG(value_.has_value(), "StatusOr::value() on an error");
    return *value_;
  }
  T&& value() && {
    NEUROC_CHECK_MSG(value_.has_value(), "StatusOr::value() on an error");
    return std::move(*value_);
  }

  T& operator*() & { return value(); }
  const T& operator*() const& { return value(); }
  T&& operator*() && { return std::move(*this).value(); }
  T* operator->() { return &value(); }
  const T* operator->() const { return &value(); }

 private:
  std::optional<T> value_;
  Status status_;
};

}  // namespace neuroc

#endif  // NEUROC_SRC_COMMON_STATUS_H_
