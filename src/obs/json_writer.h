// Dependency-free streaming JSON writer shared by every structured output in the repo:
// profiler reports, Chrome trace exports, metrics run records, and the bench harness
// (bench_util.h). Replaces the hand-rolled fprintf JSON that benches used to carry.
//
// Usage:
//   JsonWriter w;
//   w.BeginObject();
//   w.Key("bench").Value("train_throughput");
//   w.Key("configs").BeginArray();
//   ...
//   w.EndArray().EndObject();
//   WriteStringToFile(path, w.str());
//
// The writer validates nesting with NEUROC_CHECK (malformed emission is a programming
// error) and produces deterministic bytes for deterministic inputs — the profiler's
// byte-identical-output test relies on that.

#ifndef NEUROC_SRC_OBS_JSON_WRITER_H_
#define NEUROC_SRC_OBS_JSON_WRITER_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace neuroc {

class JsonWriter {
 public:
  // `indent` > 0 pretty-prints with that many spaces per level; 0 emits compact JSON
  // (the right form for JSONL records and trace events, which must stay one-per-line).
  explicit JsonWriter(int indent = 2) : indent_(indent) {}

  const std::string& str() const { return out_; }

  JsonWriter& BeginObject();
  JsonWriter& EndObject();
  JsonWriter& BeginArray();
  JsonWriter& EndArray();

  // Object member name; must be followed by exactly one value or container.
  JsonWriter& Key(std::string_view name);

  JsonWriter& Value(std::string_view v);
  JsonWriter& Value(const char* v) { return Value(std::string_view(v)); }
  JsonWriter& Value(bool v);
  JsonWriter& Value(int v) { return Value(static_cast<int64_t>(v)); }
  JsonWriter& Value(unsigned v) { return Value(static_cast<uint64_t>(v)); }
  JsonWriter& Value(int64_t v);
  JsonWriter& Value(uint64_t v);
  // Non-finite doubles become null (JSON has no NaN/Inf). `precision` is the %g precision.
  JsonWriter& Value(double v, int precision = 6);
  // Fixed-point form (%f with `decimals` digits): use for metrics that trajectory diffs
  // compare across runs, where %g's switch to scientific notation (e.g. 1.1e+02 for a
  // sim-MIPS figure) hides real movement behind a 2-significant-digit mantissa.
  JsonWriter& ValueFixed(double v, int decimals);

  // True once the single top-level value is complete.
  bool done() const { return stack_.empty() && has_top_value_; }

  static std::string Escape(std::string_view s);

 private:
  enum class Scope : uint8_t { kObject, kArray };
  struct Frame {
    Scope scope;
    size_t count = 0;  // members/elements emitted so far
  };

  // Comma/indent bookkeeping before a key (in objects) or a value (in arrays / top level).
  void BeforeItem();
  void NewlineIndent();
  void Append(std::string_view s) { out_.append(s.data(), s.size()); }

  std::string out_;
  std::vector<Frame> stack_;
  int indent_;
  bool after_key_ = false;      // a Key was just written; next emission is its value
  bool has_top_value_ = false;  // the single top-level value has been emitted
};

// Writes `content` to `path`, returning false (and logging) on failure.
bool WriteStringToFile(const std::string& path, std::string_view content);

}  // namespace neuroc

#endif  // NEUROC_SRC_OBS_JSON_WRITER_H_
