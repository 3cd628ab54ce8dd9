#include "src/runtime/firmware_image.h"

#include <algorithm>
#include <cstdio>

#include "src/common/check.h"

namespace neuroc {

namespace {

void AppendRecord(std::string& out, uint8_t type, uint16_t addr16,
                  std::span<const uint8_t> data) {
  NEUROC_CHECK(data.size() <= 255);
  char buf[16];
  std::snprintf(buf, sizeof(buf), ":%02X%04X%02X", static_cast<unsigned>(data.size()),
                addr16, type);
  out += buf;
  uint32_t sum = static_cast<uint32_t>(data.size()) + (addr16 >> 8) + (addr16 & 0xFF) + type;
  for (uint8_t b : data) {
    std::snprintf(buf, sizeof(buf), "%02X", b);
    out += buf;
    sum += b;
  }
  std::snprintf(buf, sizeof(buf), "%02X", static_cast<unsigned>((~sum + 1) & 0xFF));
  out += buf;
  out += "\n";
}

int HexDigit(char c) {
  if (c >= '0' && c <= '9') {
    return c - '0';
  }
  if (c >= 'A' && c <= 'F') {
    return c - 'A' + 10;
  }
  if (c >= 'a' && c <= 'f') {
    return c - 'a' + 10;
  }
  return -1;
}

}  // namespace

std::string EmitIntelHex(std::span<const FirmwareChunk> chunks) {
  std::string out;
  uint32_t current_upper = 0xFFFFFFFF;
  for (const FirmwareChunk& chunk : chunks) {
    uint32_t addr = chunk.addr;
    size_t offset = 0;
    while (offset < chunk.bytes.size()) {
      const uint32_t upper = addr >> 16;
      if (upper != current_upper) {
        const uint8_t ela[2] = {static_cast<uint8_t>(upper >> 8),
                                static_cast<uint8_t>(upper & 0xFF)};
        AppendRecord(out, 0x04, 0x0000, ela);
        current_upper = upper;
      }
      // Records must not cross a 64 KiB boundary.
      const size_t until_boundary = 0x10000 - (addr & 0xFFFF);
      const size_t n = std::min({size_t{16}, chunk.bytes.size() - offset, until_boundary});
      AppendRecord(out, 0x00, static_cast<uint16_t>(addr & 0xFFFF),
                   std::span<const uint8_t>(chunk.bytes.data() + offset, n));
      addr += static_cast<uint32_t>(n);
      offset += n;
    }
  }
  AppendRecord(out, 0x01, 0x0000, {});
  return out;
}

std::optional<std::vector<FirmwareChunk>> ParseIntelHex(const std::string& text) {
  std::vector<FirmwareChunk> chunks;
  uint32_t upper = 0;
  bool saw_eof = false;
  size_t pos = 0;
  while (pos < text.size()) {
    // Skip whitespace between records.
    while (pos < text.size() &&
           (text[pos] == '\n' || text[pos] == '\r' || text[pos] == ' ')) {
      ++pos;
    }
    if (pos >= text.size()) {
      break;
    }
    if (saw_eof || text[pos] != ':') {
      return std::nullopt;
    }
    ++pos;
    auto byte_at = [&](size_t i) -> int {
      if (pos + 2 * i + 1 >= text.size()) {
        return -1;
      }
      const int hi = HexDigit(text[pos + 2 * i]);
      const int lo = HexDigit(text[pos + 2 * i + 1]);
      if (hi < 0 || lo < 0) {
        return -1;
      }
      return (hi << 4) | lo;
    };
    const int len = byte_at(0);
    const int a_hi = byte_at(1);
    const int a_lo = byte_at(2);
    const int type = byte_at(3);
    if (len < 0 || a_hi < 0 || a_lo < 0 || type < 0) {
      return std::nullopt;
    }
    std::vector<uint8_t> data(static_cast<size_t>(len));
    uint32_t sum = static_cast<uint32_t>(len) + static_cast<uint32_t>(a_hi) +
                   static_cast<uint32_t>(a_lo) + static_cast<uint32_t>(type);
    for (int i = 0; i < len; ++i) {
      const int b = byte_at(4 + static_cast<size_t>(i));
      if (b < 0) {
        return std::nullopt;
      }
      data[static_cast<size_t>(i)] = static_cast<uint8_t>(b);
      sum += static_cast<uint32_t>(b);
    }
    const int checksum = byte_at(4 + static_cast<size_t>(len));
    if (checksum < 0 || ((sum + static_cast<uint32_t>(checksum)) & 0xFF) != 0) {
      return std::nullopt;
    }
    pos += 2 * (5 + static_cast<size_t>(len));
    const uint32_t addr16 = (static_cast<uint32_t>(a_hi) << 8) | static_cast<uint32_t>(a_lo);
    switch (type) {
      case 0x00: {
        const uint32_t addr = (upper << 16) | addr16;
        if (!chunks.empty() &&
            chunks.back().addr + chunks.back().bytes.size() == addr) {
          chunks.back().bytes.insert(chunks.back().bytes.end(), data.begin(), data.end());
        } else {
          chunks.push_back({addr, std::move(data)});
        }
        break;
      }
      case 0x01:
        saw_eof = true;
        break;
      case 0x04:
        if (data.size() != 2) {
          return std::nullopt;
        }
        upper = (static_cast<uint32_t>(data[0]) << 8) | data[1];
        break;
      default:
        return std::nullopt;  // unsupported record type
    }
  }
  if (!saw_eof) {
    return std::nullopt;
  }
  std::sort(chunks.begin(), chunks.end(),
            [](const FirmwareChunk& a, const FirmwareChunk& b) { return a.addr < b.addr; });
  return chunks;
}

std::string FirmwareHex(const DeployedModel::Program& program) {
  const AssembledProgram& code = program.kernels.program();
  const std::vector<FirmwareChunk> chunks = {{code.base_addr, code.bytes},
                                             {program.image_base, program.image.flash}};
  return EmitIntelHex(chunks);
}

}  // namespace neuroc
