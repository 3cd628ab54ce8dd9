#include "src/fuzz/fuzz_case.h"

#include <charconv>
#include <fstream>
#include <sstream>

namespace neuroc {

namespace {

Status Malformed(const std::string& why) {
  return Status(ErrorCode::kInvalidArgument, "fuzzcase: " + why);
}

bool ParseU64(std::string_view text, uint64_t* out) {
  if (text.empty()) return false;
  int base = 10;
  if (text.size() > 2 && text[0] == '0' && (text[1] == 'x' || text[1] == 'X')) {
    text.remove_prefix(2);
    base = 16;
  }
  const auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), *out, base);
  return ec == std::errc() && ptr == text.data() + text.size();
}

bool ParseI64(std::string_view text, int64_t* out) {
  if (text.empty()) return false;
  const auto [ptr, ec] = std::from_chars(text.data(), text.data() + text.size(), *out);
  return ec == std::errc() && ptr == text.data() + text.size();
}

// Comma-separated signed integers (the explicit_input / dims lists).
bool ParseIntList(std::string_view text, std::vector<int64_t>* out) {
  out->clear();
  while (!text.empty()) {
    const size_t comma = text.find(',');
    const std::string_view item = text.substr(0, comma);
    int64_t v = 0;
    if (!ParseI64(item, &v)) return false;
    out->push_back(v);
    if (comma == std::string_view::npos) break;
    text.remove_prefix(comma + 1);
  }
  return true;
}

std::string_view Trim(std::string_view s) {
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t' || s.front() == '\r')) {
    s.remove_prefix(1);
  }
  while (!s.empty() && (s.back() == ' ' || s.back() == '\t' || s.back() == '\r')) {
    s.remove_suffix(1);
  }
  return s;
}

}  // namespace

const char* FuzzOracleName(FuzzOracle oracle) {
  switch (oracle) {
    case FuzzOracle::kKernel: return "kernel";
    case FuzzOracle::kIsa: return "isa";
    case FuzzOracle::kSerde: return "serde";
    case FuzzOracle::kFrame: return "frame";
  }
  return "unknown";
}

bool ParseFuzzOracle(std::string_view text, FuzzOracle* out) {
  for (FuzzOracle o : kAllFuzzOracles) {
    if (text == FuzzOracleName(o)) {
      *out = o;
      return true;
    }
  }
  return false;
}

const char* FuzzEncodingName(int encoding) {
  if (encoding == kDenseBaselineEncoding) return "dense";
  return EncodingKindName(static_cast<EncodingKind>(encoding));
}

bool ParseFuzzEncoding(std::string_view text, int* out) {
  if (text == "dense") {
    *out = kDenseBaselineEncoding;
    return true;
  }
  for (EncodingKind k : kAllEncodingKinds) {
    if (text == EncodingKindName(k)) {
      *out = static_cast<int>(k);
      return true;
    }
  }
  return false;
}

const char* FrameMutationName(int mutation) {
  switch (static_cast<FrameMutation>(mutation)) {
    case FrameMutation::kNone: return "none";
    case FrameMutation::kTruncate: return "truncate";
    case FrameMutation::kBitflip: return "bitflip";
    case FrameMutation::kTrailing: return "trailing";
    case FrameMutation::kOversized: return "oversized";
    case FrameMutation::kGarbage: return "garbage";
  }
  return "unknown";
}

bool ParseFrameMutation(std::string_view text, int* out) {
  for (int m = 0; m <= static_cast<int>(FrameMutation::kGarbage); ++m) {
    if (text == FrameMutationName(m)) {
      *out = m;
      return true;
    }
  }
  return false;
}

std::string FuzzCase::ToText() const {
  std::ostringstream os;
  os << "# neuroc fuzzcase v1\n";
  os << "oracle " << FuzzOracleName(oracle) << "\n";
  os << "case_seed " << case_seed << "\n";
  switch (oracle) {
    case FuzzOracle::kKernel:
      os << "encoding " << FuzzEncodingName(encoding) << "\n";
      os << "in_dim " << in_dim << "\n";
      os << "out_dim " << out_dim << "\n";
      os << "density_ppm " << density_ppm << "\n";
      os << "block_size " << block_size << "\n";
      os << "has_scale " << (has_scale ? 1 : 0) << "\n";
      os << "relu " << (relu ? 1 : 0) << "\n";
      os << "requant_shift " << requant_shift << "\n";
      os << "input_dist " << InputDistName(input_dist) << "\n";
      if (!explicit_input.empty()) {
        os << "input ";
        for (size_t i = 0; i < explicit_input.size(); ++i) {
          os << (i ? "," : "") << static_cast<int>(explicit_input[i]);
        }
        os << "\n";
      }
      break;
    case FuzzOracle::kIsa:
      os << "hw1 " << hw1 << "\n";
      os << "hw2 " << hw2 << "\n";
      break;
    case FuzzOracle::kSerde:
      os << "dims ";
      for (size_t i = 0; i < dims.size(); ++i) {
        os << (i ? "," : "") << dims[i];
      }
      os << "\n";
      os << "layer_encodings ";
      for (size_t i = 0; i < layer_encodings.size(); ++i) {
        os << (i ? "," : "") << FuzzEncodingName(layer_encodings[i]);
      }
      os << "\n";
      os << "density_ppm " << density_ppm << "\n";
      os << "block_size " << block_size << "\n";
      os << "has_scale " << (has_scale ? 1 : 0) << "\n";
      os << "requant_shift " << requant_shift << "\n";
      os << "legacy_v1 " << (legacy_v1 ? 1 : 0) << "\n";
      os << "mutate " << (mutate ? 1 : 0) << "\n";
      break;
    case FuzzOracle::kFrame:
      os << "frame_kind " << (frame_kind == 0 ? "request" : "response") << "\n";
      os << "frame_mutation " << FrameMutationName(frame_mutation) << "\n";
      break;
  }
  return os.str();
}

StatusOr<FuzzCase> ParseFuzzCase(std::string_view text) {
  FuzzCase c;
  bool saw_oracle = false;
  size_t pos = 0;
  while (pos <= text.size()) {
    const size_t eol = text.find('\n', pos);
    std::string_view line = text.substr(pos, eol == std::string_view::npos
                                                 ? std::string_view::npos
                                                 : eol - pos);
    pos = eol == std::string_view::npos ? text.size() + 1 : eol + 1;
    line = Trim(line);
    if (line.empty() || line.front() == '#') continue;
    const size_t space = line.find(' ');
    const std::string_view key = line.substr(0, space);
    const std::string_view value =
        space == std::string_view::npos ? std::string_view() : Trim(line.substr(space + 1));

    uint64_t u = 0;
    int64_t i = 0;
    std::vector<int64_t> list;
    if (key == "oracle") {
      if (!ParseFuzzOracle(value, &c.oracle)) return Malformed("bad oracle");
      saw_oracle = true;
    } else if (key == "case_seed") {
      if (!ParseU64(value, &u)) return Malformed("bad case_seed");
      c.case_seed = u;
    } else if (key == "encoding") {
      if (!ParseFuzzEncoding(value, &c.encoding)) return Malformed("bad encoding");
    } else if (key == "in_dim") {
      if (!ParseU64(value, &u) || u == 0 || u > 4096) return Malformed("bad in_dim");
      c.in_dim = static_cast<uint32_t>(u);
    } else if (key == "out_dim") {
      if (!ParseU64(value, &u) || u == 0 || u > 4096) return Malformed("bad out_dim");
      c.out_dim = static_cast<uint32_t>(u);
    } else if (key == "density_ppm") {
      if (!ParseU64(value, &u) || u > 1'000'000) return Malformed("bad density_ppm");
      c.density_ppm = static_cast<uint32_t>(u);
    } else if (key == "block_size") {
      if (!ParseU64(value, &u) || u == 0 || u > 255) return Malformed("bad block_size");
      c.block_size = static_cast<uint32_t>(u);
    } else if (key == "has_scale") {
      if (!ParseU64(value, &u) || u > 1) return Malformed("bad has_scale");
      c.has_scale = u != 0;
    } else if (key == "relu") {
      if (!ParseU64(value, &u) || u > 1) return Malformed("bad relu");
      c.relu = u != 0;
    } else if (key == "requant_shift") {
      if (!ParseI64(value, &i) || i < 0 || i > 14) return Malformed("bad requant_shift");
      c.requant_shift = static_cast<int>(i);
    } else if (key == "input_dist") {
      if (!ParseInputDist(value, &c.input_dist)) return Malformed("bad input_dist");
    } else if (key == "input") {
      if (!ParseIntList(value, &list)) return Malformed("bad input list");
      c.explicit_input.clear();
      for (int64_t v : list) {
        if (v < -128 || v > 127) return Malformed("input value out of int8 range");
        c.explicit_input.push_back(static_cast<int8_t>(v));
      }
    } else if (key == "hw1") {
      if (!ParseU64(value, &u) || u > 0xFFFF) return Malformed("bad hw1");
      c.hw1 = static_cast<uint16_t>(u);
    } else if (key == "hw2") {
      if (!ParseU64(value, &u) || u > 0xFFFF) return Malformed("bad hw2");
      c.hw2 = static_cast<uint16_t>(u);
    } else if (key == "dims") {
      if (!ParseIntList(value, &list)) return Malformed("bad dims list");
      c.dims.clear();
      for (int64_t v : list) {
        if (v <= 0 || v > 4096) return Malformed("dims value out of range");
        c.dims.push_back(static_cast<uint32_t>(v));
      }
    } else if (key == "layer_encodings") {
      c.layer_encodings.clear();
      std::string_view rest = value;
      while (!rest.empty()) {
        const size_t comma = rest.find(',');
        int enc = 0;
        if (!ParseFuzzEncoding(Trim(rest.substr(0, comma)), &enc)) {
          return Malformed("bad layer_encodings");
        }
        c.layer_encodings.push_back(enc);
        if (comma == std::string_view::npos) break;
        rest.remove_prefix(comma + 1);
      }
    } else if (key == "legacy_v1") {
      if (!ParseU64(value, &u) || u > 1) return Malformed("bad legacy_v1");
      c.legacy_v1 = u != 0;
    } else if (key == "mutate") {
      if (!ParseU64(value, &u) || u > 1) return Malformed("bad mutate");
      c.mutate = u != 0;
    } else if (key == "frame_kind") {
      if (value == "request") {
        c.frame_kind = 0;
      } else if (value == "response") {
        c.frame_kind = 1;
      } else {
        return Malformed("bad frame_kind");
      }
    } else if (key == "frame_mutation") {
      if (!ParseFrameMutation(value, &c.frame_mutation)) {
        return Malformed("bad frame_mutation");
      }
    } else {
      return Malformed("unknown key '" + std::string(key) + "'");
    }
  }

  if (!saw_oracle) return Malformed("missing oracle");
  switch (c.oracle) {
    case FuzzOracle::kKernel:
      if (c.in_dim == 0 || c.out_dim == 0) return Malformed("kernel case needs dims");
      if (!c.explicit_input.empty() && c.explicit_input.size() != c.in_dim) {
        return Malformed("input length != in_dim");
      }
      break;
    case FuzzOracle::kIsa:
      break;
    case FuzzOracle::kSerde:
      if (c.dims.size() < 2) return Malformed("serde case needs >= 2 dims");
      if (c.layer_encodings.size() != c.dims.size() - 1) {
        return Malformed("layer_encodings length != layer count");
      }
      break;
    case FuzzOracle::kFrame:
      break;
  }
  return c;
}

StatusOr<FuzzCase> LoadFuzzCase(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return Status(ErrorCode::kIoError, "cannot read fuzzcase file: " + path);
  }
  std::ostringstream os;
  os << in.rdbuf();
  return ParseFuzzCase(os.str());
}

}  // namespace neuroc
