// The four differential-testing oracles. Each oracle is a pair of pure functions over
// FuzzCase: a generator (case_seed -> fully explicit case) and a runner (case -> verdict).
// Runners never mutate global state and derive every random draw from the case's seed, so
// a case behaves identically whether it runs inside a parallel campaign, a corpus replay,
// or a minimizer probe.
//
//   kernel  host NeuroCModel/MlpModel inference vs the simulated Thumb kernels, with block
//           compilation on and off: outputs must match the host byte-for-byte and the
//           two decode paths must report identical cycle counts.
//   isa     random halfwords: valid decodes must fix-point through encode -> decode (and,
//           for textually round-trippable ops, disassemble -> assemble -> decode), and
//           every halfword — valid or not — must execute or fault *structurally* on the
//           simulated CPU (Status/FaultReport, never a host abort), identically on the
//           block-compiled and step decode paths from seeded registers.
//   serde   random models: serialize -> deserialize -> re-serialize must be lossless and
//           the reloaded model must deploy and predict identically; seeded single-bit
//           mutations must be rejected with a structured error (CRC on v2 images).
//   frame   serve wire frames: valid frames must decode -> re-encode byte-identically
//           (whole-buffer and split-fed through FrameReader alike); truncated, bit-
//           flipped, oversized-length, trailing-garbage and random-byte frames must
//           yield structured errors — never a hang, allocation blow-up or host abort.

#ifndef NEUROC_SRC_FUZZ_ORACLES_H_
#define NEUROC_SRC_FUZZ_ORACLES_H_

#include <string>
#include <vector>

#include "src/fuzz/fuzz_case.h"

namespace neuroc {

enum class FuzzVerdict : uint8_t {
  kPass = 0,
  kSkip = 1,  // infeasible configuration (e.g. model does not fit the device)
  kFail = 2,
};
const char* FuzzVerdictName(FuzzVerdict verdict);

struct CaseResult {
  FuzzVerdict verdict = FuzzVerdict::kPass;
  std::string detail;  // deterministic failure cause / skip reason; empty on pass
};

FuzzCase GenerateKernelCase(uint64_t case_seed);
FuzzCase GenerateIsaCase(uint64_t case_seed);
FuzzCase GenerateSerdeCase(uint64_t case_seed);
FuzzCase GenerateFrameCase(uint64_t case_seed);
FuzzCase GenerateFuzzCase(FuzzOracle oracle, uint64_t case_seed);

CaseResult RunKernelCase(const FuzzCase& c);
CaseResult RunIsaCase(const FuzzCase& c);
CaseResult RunSerdeCase(const FuzzCase& c);
CaseResult RunFrameCase(const FuzzCase& c);
CaseResult RunFuzzCase(const FuzzCase& c);

// The concrete input vectors a kernel case runs (the single explicit_input when set,
// otherwise the inputs drawn from the case's input stream). Exposed so the minimizer can
// materialize a drawn input into explicit_input before shrinking it.
std::vector<std::vector<int8_t>> KernelCaseInputs(const FuzzCase& c);

}  // namespace neuroc

#endif  // NEUROC_SRC_FUZZ_ORACLES_H_
