#ifndef DLOG_SERVER_TRACK_FORMAT_H_
#define DLOG_SERVER_TRACK_FORMAT_H_

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "common/bytes.h"
#include "common/log_types.h"
#include "common/result.h"
#include "wire/messages.h"

namespace dlog::server {

/// One element of the merged log data stream is a log record tagged with
/// the client that owns it: "Records from different logs must be
/// interleaved in a data stream that is written sequentially to disk"
/// (Section 4.1). A stream entry is, byte for byte, the owning client's
/// id followed by the record's wire encoding (wire::kRecordFixedBytes of
/// lsn, epoch, present flag and data length, then the data), so a server
/// stores an arriving record with one copy of the bytes it received.
constexpr size_t kStreamEntryClientBytes = 4;

/// Fixed (non-payload) bytes of an encoded stream entry:
/// client(4) + lsn(8) + epoch(8) + present(1) + data length(4).
constexpr size_t kStreamEntryFixedBytes =
    kStreamEntryClientBytes + wire::kRecordFixedBytes;

/// Fixed per-track overhead bytes (CRC + count).
constexpr size_t kTrackOverhead = 8;

/// A track is CRC32C, entry count, then the entries. A track image is
/// built in place: kTrackOverhead header bytes reserved up front, entries
/// appended one by one, the header filled in last.

/// Appends the entry of `client`'s record whose wire encoding is `record`
/// to the track image `image`, whose capacity must already hold it.
/// Counts the payload as copied into stable storage.
void AppendStreamEntry(Bytes* image, ClientId client,
                       std::span<const uint8_t> record);

/// Fills in the header of a track image holding `count` entries.
void FinishTrackImage(Bytes* image, uint32_t count);

/// One entry of a track image, read in place: where it starts, its
/// client, and its record.
struct StreamEntryRef {
  size_t offset = 0;
  ClientId client = 0;
  wire::RecordView record;
};

/// Size of the encoded entry at `pos` in `bytes`, read from its length
/// field.
size_t StreamEntrySizeAt(const Bytes& bytes, size_t pos);

/// Reads the entry at `pos` of a track image.
StreamEntryRef StreamEntryAt(std::span<const uint8_t> image, size_t pos);

/// The entries of a track, read in place. Parse checks a track read back
/// from disk; a track image this node built is read as it is.
class TrackView {
 public:
  /// Checks the CRC, the count and every entry's bounds in one pass.
  /// Corruption if the header is truncated, the checksum does not match,
  /// an entry overruns the track (however the count or a length field
  /// lies) or has a present byte other than 0 or 1, or bytes follow the
  /// last entry.
  static Result<TrackView> Parse(std::span<const uint8_t> track);

  /// The first `count` entries of a track image this node built.
  TrackView(std::span<const uint8_t> image, uint32_t count)
      : image_(image), count_(count) {}

  uint32_t size() const { return count_; }

  class Iterator {
   public:
    StreamEntryRef operator*() const { return StreamEntryAt(image_, pos_); }
    Iterator& operator++() {
      // The record's data length ends the entry's fixed fields.
      pos_ += kStreamEntryFixedBytes +
              static_cast<size_t>(LoadLE(
                  image_.data() + pos_ + kStreamEntryFixedBytes - 4, 4));
      --left_;
      return *this;
    }
    bool operator!=(const Iterator& other) const {
      return left_ != other.left_;
    }

   private:
    friend class TrackView;
    Iterator(std::span<const uint8_t> image, size_t pos, uint32_t left)
        : image_(image), pos_(pos), left_(left) {}
    std::span<const uint8_t> image_;
    size_t pos_;
    uint32_t left_;
  };
  Iterator begin() const { return Iterator(image_, kTrackOverhead, count_); }
  Iterator end() const { return Iterator({}, 0, 0); }

 private:
  std::span<const uint8_t> image_;
  uint32_t count_;
};

/// Encodes a full track of (client, record) entries: the tests' builder
/// of expected tracks (the log server builds its tracks in place in
/// NVRAM).
Bytes EncodeTrack(const std::vector<std::pair<ClientId, LogRecord>>& entries);

}  // namespace dlog::server

#endif  // DLOG_SERVER_TRACK_FORMAT_H_
