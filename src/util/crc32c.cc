#include "util/crc32c.h"

#include <cstring>

#if defined(__x86_64__)
#include <nmmintrin.h>
#endif

namespace glint::util {
namespace {

/// Builds the 4-way slicing tables at first use. Table 0 is the classic
/// byte-at-a-time table for the reflected Castagnoli polynomial; tables
/// 1..3 extend it so four input bytes are folded per iteration.
struct Tables {
  uint32_t t[4][256];

  Tables() {
    constexpr uint32_t kPoly = 0x82F63B78u;
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t crc = i;
      for (int k = 0; k < 8; ++k) {
        crc = (crc >> 1) ^ ((crc & 1) ? kPoly : 0);
      }
      t[0][i] = crc;
    }
    for (uint32_t i = 0; i < 256; ++i) {
      t[1][i] = (t[0][i] >> 8) ^ t[0][t[0][i] & 0xff];
      t[2][i] = (t[1][i] >> 8) ^ t[0][t[1][i] & 0xff];
      t[3][i] = (t[2][i] >> 8) ^ t[0][t[2][i] & 0xff];
    }
  }
};

const Tables& tables() {
  static const Tables tables;
  return tables;
}

}  // namespace

uint32_t Crc32cExtendTable(uint32_t crc, const void* data, size_t n) {
  const Tables& tb = tables();
  const unsigned char* p = static_cast<const unsigned char*>(data);
  crc = ~crc;
  while (n >= 4) {
    crc ^= static_cast<uint32_t>(p[0]) | (static_cast<uint32_t>(p[1]) << 8) |
           (static_cast<uint32_t>(p[2]) << 16) |
           (static_cast<uint32_t>(p[3]) << 24);
    crc = tb.t[3][crc & 0xff] ^ tb.t[2][(crc >> 8) & 0xff] ^
          tb.t[1][(crc >> 16) & 0xff] ^ tb.t[0][crc >> 24];
    p += 4;
    n -= 4;
  }
  while (n-- > 0) {
    crc = (crc >> 8) ^ tb.t[0][(crc ^ *p++) & 0xff];
  }
  return ~crc;
}

#if defined(__x86_64__)

// The SSE4.2 `crc32` instruction computes the reflected Castagnoli CRC
// without the initial and final inversion, so it folds into the same
// running value the table path keeps.
__attribute__((target("sse4.2"))) uint32_t Crc32cExtendHardware(
    uint32_t crc, const void* data, size_t n) {
  const unsigned char* p = static_cast<const unsigned char*>(data);
  uint64_t c = ~crc;
  while (n >= 8) {
    uint64_t word = 0;
    std::memcpy(&word, p, sizeof word);
    c = _mm_crc32_u64(c, word);
    p += 8;
    n -= 8;
  }
  uint32_t c32 = static_cast<uint32_t>(c);
  while (n-- > 0) c32 = _mm_crc32_u8(c32, *p++);
  return ~c32;
}

bool Crc32cHardwareAvailable() { return __builtin_cpu_supports("sse4.2"); }

#else

uint32_t Crc32cExtendHardware(uint32_t crc, const void* data, size_t n) {
  return Crc32cExtendTable(crc, data, n);
}

bool Crc32cHardwareAvailable() { return false; }

#endif

uint32_t Crc32cExtend(uint32_t crc, const void* data, size_t n) {
  static const auto impl = Crc32cHardwareAvailable() ? &Crc32cExtendHardware
                                                     : &Crc32cExtendTable;
  return impl(crc, data, n);
}

}  // namespace glint::util
