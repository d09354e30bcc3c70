#ifndef DLOG_COMMON_BYTES_H_
#define DLOG_COMMON_BYTES_H_

#include <bit>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/result.h"
#include "common/status.h"

namespace dlog {

/// A byte buffer used for message and disk-record encoding.
using Bytes = std::vector<uint8_t>;

/// The calling thread's tally of payload bytes memcpy'd across ownership
/// boundaries after their initial serialization — the copies the
/// zero-copy wire path exists to eliminate. Counted: Decoder blob/string
/// materialization, SharedBytes materialization, and the explicit
/// persistence copy into stable storage. Not counted: the one
/// unavoidable serialization pass that first builds a message or disk
/// image (Encoder writes). Benchmarks reset and diff this around a
/// workload. The tally is per thread: a simulation runs start to finish
/// on one thread, so it reads its own copies and no other thread's, and
/// counting one is a plain add.
uint64_t BytesCopied();
void AddBytesCopied(uint64_t n);
void ResetBytesCopied();

namespace internal {
inline thread_local uint64_t bytes_copied = 0;
}  // namespace internal

inline uint64_t BytesCopied() { return internal::bytes_copied; }
inline void AddBytesCopied(uint64_t n) { internal::bytes_copied += n; }
inline void ResetBytesCopied() { internal::bytes_copied = 0; }

/// A refcounted immutable byte buffer, plus a view (offset/length) into
/// it. Copying a SharedBytes — or slicing sub-ranges out of it — shares
/// the underlying storage instead of duplicating bytes, which is what
/// lets one encoded message flow from the sender through Network
/// fan-out, every receiver's NIC, and envelope/record decoding without a
/// single payload copy. The refcount is atomic (std::shared_ptr), so
/// buffers may be handed across the parallel trial runner's threads.
class SharedBytes {
 public:
  SharedBytes() = default;

  /// Takes ownership of `b` (move in; no copy when called with an
  /// rvalue). Implicit so the many call sites that build a Bytes and
  /// hand it off keep reading naturally.
  SharedBytes(Bytes b)  // NOLINT: implicit by design
      : owner_(std::make_shared<const Bytes>(std::move(b))),
        data_(owner_->data()),
        size_(owner_->size()) {}

  /// A view of [offset, offset+length) of `owner`, sharing it. The owner
  /// may still append to its buffer, but only within capacity, and must
  /// never change bytes a view covers (the NVRAM track images grow this
  /// way while their records are already stored as views).
  SharedBytes(std::shared_ptr<const Bytes> owner, size_t offset,
              size_t length)
      : owner_(std::move(owner)),
        data_(owner_->data() + offset),
        size_(length) {}

  /// Copies `n` bytes into a fresh buffer (counted as a payload copy).
  static SharedBytes Copy(const uint8_t* data, size_t n) {
    AddBytesCopied(n);
    return SharedBytes(Bytes(data, data + n));
  }
  static SharedBytes Copy(std::string_view s) {
    return Copy(reinterpret_cast<const uint8_t*>(s.data()), s.size());
  }

  const uint8_t* data() const { return data_; }
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  const uint8_t* begin() const { return data_; }
  const uint8_t* end() const { return data_ + size_; }
  uint8_t operator[](size_t i) const { return data_[i]; }

  /// A view of [offset, offset+length) sharing ownership of the buffer.
  SharedBytes Slice(size_t offset, size_t length) const {
    SharedBytes out;
    out.owner_ = owner_;
    out.data_ = data_ + offset;
    out.size_ = length;
    return out;
  }

  /// Materializes an owned mutable copy (counted as a payload copy).
  Bytes ToBytes() const {
    AddBytesCopied(size_);
    return Bytes(data_, data_ + size_);
  }

  std::string_view view() const {
    return {reinterpret_cast<const char*>(data_), size_};
  }

  /// Content equality (used by LogRecord comparison and tests).
  friend bool operator==(const SharedBytes& a, const SharedBytes& b) {
    return a.size_ == b.size_ &&
           (a.size_ == 0 || std::memcmp(a.data_, b.data_, a.size_) == 0);
  }
  friend bool operator!=(const SharedBytes& a, const SharedBytes& b) {
    return !(a == b);
  }

 private:
  std::shared_ptr<const Bytes> owner_;
  const uint8_t* data_ = nullptr;
  size_t size_ = 0;
};

/// Reads the `width`-byte little-endian integer at `p` (the layout
/// Encoder writes). On a little-endian host each width the codecs use is
/// one unaligned load; once inlined with a constant width the switch
/// folds away.
inline uint64_t LoadLE(const uint8_t* p, size_t width) {
  if constexpr (std::endian::native == std::endian::little) {
    switch (width) {
      case 1:
        return p[0];
      case 2: {
        uint16_t v;
        std::memcpy(&v, p, 2);
        return v;
      }
      case 4: {
        uint32_t v;
        std::memcpy(&v, p, 4);
        return v;
      }
      case 8: {
        uint64_t v;
        std::memcpy(&v, p, 8);
        return v;
      }
      default:
        break;
    }
  }
  uint64_t v = 0;
  for (size_t i = 0; i < width; ++i) {
    v |= static_cast<uint64_t>(p[i]) << (8 * i);
  }
  return v;
}

/// Writes `v` as the `width`-byte little-endian integer at `p` (one
/// unaligned store on a little-endian host, as LoadLE reads).
inline void StoreLE(uint8_t* p, uint64_t v, size_t width) {
  if constexpr (std::endian::native == std::endian::little) {
    switch (width) {
      case 1:
        p[0] = static_cast<uint8_t>(v);
        return;
      case 2: {
        const auto w = static_cast<uint16_t>(v);
        std::memcpy(p, &w, 2);
        return;
      }
      case 4: {
        const auto w = static_cast<uint32_t>(v);
        std::memcpy(p, &w, 4);
        return;
      }
      case 8:
        std::memcpy(p, &v, 8);
        return;
      default:
        break;
    }
  }
  for (size_t i = 0; i < width; ++i) {
    p[i] = static_cast<uint8_t>(v >> (8 * i));
  }
}

namespace internal {
/// Reports an Encoder write past its declared size and aborts.
[[noreturn]] void EncoderOverrun(size_t wanted, size_t left);
}  // namespace internal

/// Writes fixed-width little-endian integers and length-prefixed blobs
/// into a Bytes buffer. All dlog on-wire and on-disk encodings go through
/// this. The constructor grows the buffer once, by the exact size of the
/// encoding the caller computed, and each Put writes through a cursor. A
/// write past that size means the computed size is wrong: it aborts, in
/// every build type, rather than write past the buffer.
class Encoder {
 public:
  /// Appends `size` bytes to `*out`, which the Puts then fill in order.
  /// `*out` must not change until the encoding is written.
  Encoder(Bytes* out, size_t size) {
    const size_t at = out->size();
    out->resize(at + size);
    pos_ = out->data() + at;
    end_ = pos_ + size;
  }

  /// Declared bytes not yet written.
  size_t remaining() const { return static_cast<size_t>(end_ - pos_); }

  void PutU8(uint8_t v) { *Take(1) = v; }
  void PutU16(uint16_t v) { StoreLE(Take(2), v, 2); }
  void PutU32(uint32_t v) { StoreLE(Take(4), v, 4); }
  void PutU64(uint64_t v) { StoreLE(Take(8), v, 8); }

  /// Writes `n` bytes as they are (no length prefix).
  void PutRaw(const uint8_t* data, size_t n) {
    if (n > 0) std::memcpy(Take(n), data, n);
  }
  /// Length-prefixed (u32) byte string.
  void PutBlob(const uint8_t* data, size_t n) {
    PutU32(static_cast<uint32_t>(n));
    PutRaw(data, n);
  }
  void PutBlob(const Bytes& b) { PutBlob(b.data(), b.size()); }
  void PutBlob(const SharedBytes& b) { PutBlob(b.data(), b.size()); }
  void PutString(std::string_view s) {
    PutBlob(reinterpret_cast<const uint8_t*>(s.data()), s.size());
  }

 private:
  /// Advances the cursor past the next `n` bytes and returns where they
  /// start.
  uint8_t* Take(size_t n) {
    if (n > remaining()) [[unlikely]] {
      internal::EncoderOverrun(n, remaining());
    }
    uint8_t* at = pos_;
    pos_ += n;
    return at;
  }

  uint8_t* pos_;
  uint8_t* end_;
};

/// Consumes values previously written by Encoder. All getters return a
/// Status error (never crash) on truncated input so that corrupt packets
/// and disk blocks are survivable.
class Decoder {
 public:
  Decoder(const uint8_t* data, size_t size)
      : data_(data), size_(size), pos_(0) {}
  explicit Decoder(const Bytes& b) : Decoder(b.data(), b.size()) {}
  explicit Decoder(const SharedBytes& b) : Decoder(b.data(), b.size()) {}

  size_t remaining() const { return size_ - pos_; }
  bool Done() const { return pos_ == size_; }

  Result<uint8_t> GetU8() {
    if (remaining() < 1) return Truncated();
    return data_[pos_++];
  }
  Result<uint16_t> GetU16() { return GetLE<uint16_t>(2); }
  Result<uint32_t> GetU32() { return GetLE<uint32_t>(4); }
  Result<uint64_t> GetU64() { return GetLE<uint64_t>(8); }

  /// Materializes a length-prefixed blob into an owned buffer (a counted
  /// payload copy).
  Result<Bytes> GetBlob() {
    DLOG_ASSIGN_OR_RETURN(uint32_t n, GetU32());
    if (remaining() < n) return Truncated();
    AddBytesCopied(n);
    Bytes out(data_ + pos_, data_ + pos_ + n);
    pos_ += n;
    return out;
  }

  Result<std::string> GetString() {
    DLOG_ASSIGN_OR_RETURN(uint32_t n, GetU32());
    if (remaining() < n) return Truncated();
    AddBytesCopied(n);
    std::string out(reinterpret_cast<const char*>(data_ + pos_), n);
    pos_ += n;
    return out;
  }

 private:
  static Status Truncated() {
    return Status::Corruption("decode past end of buffer");
  }

  template <typename T>
  Result<T> GetLE(int width) {
    if (remaining() < static_cast<size_t>(width)) return Truncated();
    const uint64_t v = LoadLE(data_ + pos_, static_cast<size_t>(width));
    pos_ += width;
    return static_cast<T>(v);
  }

  const uint8_t* data_;
  size_t size_;
  size_t pos_;
};

/// Convenience: builds a Bytes from a string literal/payload.
inline Bytes ToBytes(std::string_view s) {
  return Bytes(s.begin(), s.end());
}
inline std::string ToString(const Bytes& b) {
  return std::string(b.begin(), b.end());
}
inline std::string ToString(const SharedBytes& b) {
  return std::string(b.view());
}

}  // namespace dlog

#endif  // DLOG_COMMON_BYTES_H_
