// Minimal recursive-descent JSON parser — the read-side counterpart of JsonWriter, for
// tools that consume our own emitted JSON (bench_compare diffing BENCH_*.json baselines,
// `neuroc report` aggregating metrics run records). Dependency-free and strict enough
// for round-tripping JsonWriter output; it is not a general-purpose validator (no
// \uXXXX surrogate handling beyond BMP passthrough, numbers parsed with strtod).

#ifndef NEUROC_SRC_OBS_JSON_READER_H_
#define NEUROC_SRC_OBS_JSON_READER_H_

#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace neuroc {

struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string text;
  std::vector<JsonValue> elements;                            // kArray
  std::vector<std::pair<std::string, JsonValue>> members;     // kObject, source order

  bool is_object() const { return kind == Kind::kObject; }
  bool is_array() const { return kind == Kind::kArray; }
  bool is_number() const { return kind == Kind::kNumber; }
  bool is_string() const { return kind == Kind::kString; }

  // Object member lookup; nullptr when absent or not an object.
  const JsonValue* Find(std::string_view key) const;
  // Dotted-path lookup ("speedups.block_vs_step_csc").
  const JsonValue* FindPath(std::string_view dotted) const;
  double AsDouble(double fallback = 0.0) const {
    return kind == Kind::kNumber ? number : fallback;
  }
};

// Parses one JSON document. Returns false and sets `error` (with byte offset context) on
// malformed input; trailing non-whitespace is an error.
bool ParseJson(std::string_view text, JsonValue* out, std::string* error);

// Reads and parses a whole file; false (with `error`) when unreadable or malformed.
bool ParseJsonFile(const std::string& path, JsonValue* out, std::string* error);

// Parses newline-delimited JSON records (blank lines skipped); false on the first bad
// record. Used for metrics run-record streams.
bool ParseJsonl(std::string_view text, std::vector<JsonValue>* out, std::string* error);

}  // namespace neuroc

#endif  // NEUROC_SRC_OBS_JSON_READER_H_
