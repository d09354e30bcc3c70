#ifndef DLOG_COMMON_CRC32C_H_
#define DLOG_COMMON_CRC32C_H_

#include <cstddef>
#include <cstdint>

#include "common/bytes.h"

namespace dlog::crc32c {

/// Computes the CRC-32C (Castagnoli) checksum of `data[0,n)` continuing
/// from `init` (pass 0 to start). Used to detect corruption in simulated
/// disk blocks and network packets. Runs the SSE4.2 crc32 instruction
/// where the CPU has it, and slice-by-8 tables otherwise; both give the
/// same value for every input.
uint32_t Extend(uint32_t init, const uint8_t* data, size_t n);

namespace internal {
/// The portable table-driven path, exposed so tests can check the
/// hardware path against it.
uint32_t ExtendPortable(uint32_t init, const uint8_t* data, size_t n);
/// Whether Extend runs the hardware instruction on this CPU.
bool HardwareAccelerated();
}  // namespace internal

inline uint32_t Value(const uint8_t* data, size_t n) {
  return Extend(0, data, n);
}
inline uint32_t Value(const Bytes& b) { return Value(b.data(), b.size()); }

}  // namespace dlog::crc32c

#endif  // DLOG_COMMON_CRC32C_H_
