#include "src/common/crc32.h"

#include <array>

namespace neuroc {

namespace {

// Slicing-by-8 tables: kTables[0] is the classic bytewise table, and kTables[k][b] is the
// CRC of byte b followed by k zero bytes, so eight table lookups fold eight input bytes.
using Crc32Tables = std::array<std::array<uint32_t, 256>, 8>;

Crc32Tables MakeTables() {
  Crc32Tables t{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    t[0][i] = c;
  }
  for (uint32_t i = 0; i < 256; ++i) {
    for (size_t k = 1; k < t.size(); ++k) {
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFFu];
    }
  }
  return t;
}

// Little-endian load from any alignment; compiles to one load on little-endian hosts.
uint32_t Load32(const uint8_t* p) {
  return static_cast<uint32_t>(p[0]) | static_cast<uint32_t>(p[1]) << 8 |
         static_cast<uint32_t>(p[2]) << 16 | static_cast<uint32_t>(p[3]) << 24;
}

}  // namespace

uint32_t Crc32(std::span<const uint8_t> bytes, uint32_t seed) {
  static const Crc32Tables kTables = MakeTables();
  uint32_t c = seed ^ 0xFFFFFFFFu;
  const uint8_t* p = bytes.data();
  size_t n = bytes.size();
  for (; n >= 8; p += 8, n -= 8) {
    const uint32_t lo = Load32(p) ^ c;
    const uint32_t hi = Load32(p + 4);
    c = kTables[7][lo & 0xFFu] ^ kTables[6][(lo >> 8) & 0xFFu] ^
        kTables[5][(lo >> 16) & 0xFFu] ^ kTables[4][lo >> 24] ^ kTables[3][hi & 0xFFu] ^
        kTables[2][(hi >> 8) & 0xFFu] ^ kTables[1][(hi >> 16) & 0xFFu] ^
        kTables[0][hi >> 24];
  }
  for (; n > 0; ++p, --n) {
    c = kTables[0][(c ^ *p) & 0xFFu] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

}  // namespace neuroc
