#include "common/crc.h"

#include <array>

namespace vscrub {
namespace {

/// Slice-by-8 tables: tables[0] is the classic byte table; tables[k][b] is
/// the CRC contribution of byte b followed by k zero bytes, so eight input
/// bytes fold into the state with eight independent lookups.
using Crc32Tables = std::array<std::array<u32, 256>, 8>;

Crc32Tables make_crc32_tables() {
  Crc32Tables t{};
  for (u32 i = 0; i < 256; ++i) {
    u32 c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    t[0][i] = c;
  }
  for (u32 i = 0; i < 256; ++i) {
    for (std::size_t k = 1; k < t.size(); ++k) {
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFF];
    }
  }
  return t;
}

const Crc32Tables& crc32_tables() {
  static const Crc32Tables tables = make_crc32_tables();
  return tables;
}

u32 load_le32(const u8* p) {
  return static_cast<u32>(p[0]) | static_cast<u32>(p[1]) << 8 |
         static_cast<u32>(p[2]) << 16 | static_cast<u32>(p[3]) << 24;
}

}  // namespace

u16 crc16_ccitt(std::span<const u8> data) {
  u16 crc = 0xFFFF;
  for (u8 byte : data) {
    crc ^= static_cast<u16>(byte << 8);
    for (int i = 0; i < 8; ++i) {
      crc = (crc & 0x8000) ? static_cast<u16>((crc << 1) ^ 0x1021)
                           : static_cast<u16>(crc << 1);
    }
  }
  return crc;
}

u32 crc32_init() { return 0xFFFFFFFFu; }

u32 crc32_update(u32 state, std::span<const u8> data) {
  const Crc32Tables& t = crc32_tables();
  const u8* p = data.data();
  std::size_t n = data.size();
  for (; n >= 8; p += 8, n -= 8) {
    const u32 lo = load_le32(p) ^ state;
    const u32 hi = load_le32(p + 4);
    state = t[7][lo & 0xFF] ^ t[6][(lo >> 8) & 0xFF] ^
            t[5][(lo >> 16) & 0xFF] ^ t[4][lo >> 24] ^ t[3][hi & 0xFF] ^
            t[2][(hi >> 8) & 0xFF] ^ t[1][(hi >> 16) & 0xFF] ^ t[0][hi >> 24];
  }
  for (; n > 0; ++p, --n) {
    state = t[0][(state ^ *p) & 0xFF] ^ (state >> 8);
  }
  return state;
}

u32 crc32_final(u32 state) { return state ^ 0xFFFFFFFFu; }

u32 crc32(std::span<const u8> data) {
  return crc32_final(crc32_update(crc32_init(), data));
}

}  // namespace vscrub
