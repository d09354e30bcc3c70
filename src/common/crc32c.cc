#include "common/crc32c.h"

#include <array>
#include <cstring>

#if defined(__x86_64__)
#include <nmmintrin.h>
#endif

namespace dlog::crc32c {
namespace {

constexpr uint32_t kPoly = 0x82F63B78u;  // reflected CRC-32C polynomial

// Slice-by-8 tables: table[0] is the classic byte-at-a-time table;
// table[k][b] extends b's contribution through k additional zero bytes,
// so eight input bytes fold into the running CRC with eight independent
// table loads per iteration instead of an eight-deep dependency chain.
// Identical output to the byte-wise algorithm for every input.
struct Tables {
  std::array<std::array<uint32_t, 256>, 8> t;
};

Tables MakeTables() {
  Tables tables{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t crc = i;
    for (int k = 0; k < 8; ++k) {
      crc = (crc >> 1) ^ ((crc & 1) ? kPoly : 0);
    }
    tables.t[0][i] = crc;
  }
  for (int k = 1; k < 8; ++k) {
    for (uint32_t i = 0; i < 256; ++i) {
      const uint32_t prev = tables.t[k - 1][i];
      tables.t[k][i] = tables.t[0][prev & 0xFF] ^ (prev >> 8);
    }
  }
  return tables;
}

const Tables& AllTables() {
  static const Tables tables = MakeTables();
  return tables;
}

#if defined(__x86_64__)
// SSE4.2's crc32 instruction computes exactly this polynomial, eight
// bytes per instruction. Compiled for SSE4.2 on its own, so the rest of
// the build keeps the baseline instruction set.
__attribute__((target("sse4.2"))) uint32_t ExtendSse42(uint32_t init,
                                                       const uint8_t* data,
                                                       size_t n) {
  uint64_t crc = init ^ 0xFFFFFFFFu;
  while (n >= 8) {
    uint64_t word = 0;
    std::memcpy(&word, data, sizeof(word));
    crc = _mm_crc32_u64(crc, word);
    data += 8;
    n -= 8;
  }
  uint32_t crc32 = static_cast<uint32_t>(crc);
  while (n > 0) {
    crc32 = _mm_crc32_u8(crc32, *data++);
    --n;
  }
  return crc32 ^ 0xFFFFFFFFu;
}
#endif

}  // namespace

namespace internal {

uint32_t ExtendPortable(uint32_t init, const uint8_t* data, size_t n) {
  const auto& t = AllTables().t;
  uint32_t crc = init ^ 0xFFFFFFFFu;
  while (n >= 8) {
    crc ^= static_cast<uint32_t>(data[0]) |
           (static_cast<uint32_t>(data[1]) << 8) |
           (static_cast<uint32_t>(data[2]) << 16) |
           (static_cast<uint32_t>(data[3]) << 24);
    crc = t[7][crc & 0xFF] ^ t[6][(crc >> 8) & 0xFF] ^
          t[5][(crc >> 16) & 0xFF] ^ t[4][crc >> 24] ^ t[3][data[4]] ^
          t[2][data[5]] ^ t[1][data[6]] ^ t[0][data[7]];
    data += 8;
    n -= 8;
  }
  while (n > 0) {
    crc = t[0][(crc ^ *data++) & 0xFF] ^ (crc >> 8);
    --n;
  }
  return crc ^ 0xFFFFFFFFu;
}

bool HardwareAccelerated() {
#if defined(__x86_64__)
  static const bool sse42 = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("sse4.2") != 0;
  }();
  return sse42;
#else
  return false;
#endif
}

}  // namespace internal

uint32_t Extend(uint32_t init, const uint8_t* data, size_t n) {
#if defined(__x86_64__)
  if (internal::HardwareAccelerated()) return ExtendSse42(init, data, n);
#endif
  return internal::ExtendPortable(init, data, n);
}

}  // namespace dlog::crc32c
