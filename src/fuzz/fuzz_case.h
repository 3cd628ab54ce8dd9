// A fuzz case is the unit of the differential fuzzing subsystem: a small, fully explicit
// description of one randomized trial against one oracle. Cases are value types with a
// lossless line-oriented text form (`key value`, one pair per line, '#' comments), so a
// failing case can be written to tests/corpus/*.fuzzcase, checked in as a permanent
// regression test, and replayed with `neuroc fuzz --replay <file>`.
//
// Everything a case needs is derived from its fields plus `case_seed` (sub-streams are
// split off with a SplitMix64 finalizer), so replaying a case file reproduces the exact
// model bytes, inputs and mutations of the original campaign trial — on any machine, at
// any thread count.

#ifndef NEUROC_SRC_FUZZ_FUZZ_CASE_H_
#define NEUROC_SRC_FUZZ_FUZZ_CASE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/status.h"
#include "src/core/encoding.h"
#include "src/core/synthetic.h"

namespace neuroc {

enum class FuzzOracle : uint8_t {
  kKernel = 0,  // host reference inference vs simulated Thumb kernels
  kIsa = 1,     // decoder/encoder/disassembler/assembler round-trips + structural faults
  kSerde = 2,   // model image serialize/deserialize/deploy round-trips + mutations
  kFrame = 3,   // serve wire-frame codec round-trips + hostile-byte totality
};
inline constexpr FuzzOracle kAllFuzzOracles[] = {FuzzOracle::kKernel, FuzzOracle::kIsa,
                                                 FuzzOracle::kSerde, FuzzOracle::kFrame};
const char* FuzzOracleName(FuzzOracle oracle);
bool ParseFuzzOracle(std::string_view text, FuzzOracle* out);

// Kernel/serde cases address the five sparse encodings by EncodingKind value and the dense
// q7 MLP baseline by this sentinel (one past kUnrolled = 4; corpus files are immune to the
// renumbering because the text form stores encodings by name).
inline constexpr int kDenseBaselineEncoding = 5;
const char* FuzzEncodingName(int encoding);
bool ParseFuzzEncoding(std::string_view text, int* out);

// Frame-oracle byte-level mutations applied to a well-formed serve frame. Stored as int
// in FuzzCase (text form uses names, so renumbering cannot invalidate corpus files).
enum class FrameMutation : uint8_t {
  kNone = 0,       // valid frame: decode must succeed and re-encode byte-identically
  kTruncate = 1,   // payload cut short: structured kMalformedImage, never a hang
  kBitflip = 2,    // one flipped bit: structured rejection OR a canonical re-decode
  kTrailing = 3,   // extra bytes after a valid payload: trailing-garbage rejection
  kOversized = 4,  // declared length beyond the cap: FrameReader poisons the stream
  kGarbage = 5,    // random bytes as payload: total decode, no allocation blow-up
};
const char* FrameMutationName(int mutation);
bool ParseFrameMutation(std::string_view text, int* out);

struct FuzzCase {
  FuzzOracle oracle = FuzzOracle::kKernel;
  uint64_t case_seed = 0;

  // --- kernel oracle ---
  int encoding = 0;  // EncodingKind value, or kDenseBaselineEncoding
  uint32_t in_dim = 0;
  uint32_t out_dim = 0;
  uint32_t density_ppm = 0;  // adjacency density in parts-per-million (lossless in text)
  uint32_t block_size = 255;
  bool has_scale = true;
  bool relu = true;
  int requant_shift = 9;
  InputDist input_dist = InputDist::kUniform;
  // Set by the minimizer: when non-empty, this single input (length in_dim) replaces the
  // inputs drawn from the case's input stream.
  std::vector<int8_t> explicit_input;

  // --- isa oracle ---
  uint16_t hw1 = 0;
  uint16_t hw2 = 0;  // second halfword, consumed only by 32-bit encodings (BL)

  // --- serde oracle ---
  std::vector<uint32_t> dims;         // layer dimension chain: n layers -> n+1 entries
  std::vector<int> layer_encodings;   // per layer (ignored for the dense baseline)
  bool legacy_v1 = false;             // exercise the v1 (no CRC trailer) load path
  bool mutate = false;                // flip one seeded bit and expect structured rejection

  // --- frame oracle ---
  int frame_kind = 0;      // 0 = request frame, 1 = response frame
  int frame_mutation = 0;  // FrameMutation value

  std::string ToText() const;
};

// Parses the text form. Unknown keys and structurally inconsistent cases (e.g. serde
// dimension chain vs per-layer encoding count) are kInvalidArgument.
StatusOr<FuzzCase> ParseFuzzCase(std::string_view text);
StatusOr<FuzzCase> LoadFuzzCase(const std::string& path);

}  // namespace neuroc

#endif  // NEUROC_SRC_FUZZ_FUZZ_CASE_H_
