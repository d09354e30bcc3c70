#ifndef DLOG_SERVER_TRACK_FORMAT_H_
#define DLOG_SERVER_TRACK_FORMAT_H_

#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "common/bytes.h"
#include "common/log_types.h"
#include "common/result.h"
#include "wire/messages.h"

namespace dlog::server {

/// One element of the merged log data stream: a log record tagged with
/// the client that owns it. "Records from different logs must be
/// interleaved in a data stream that is written sequentially to disk"
/// (Section 4.1).
struct StreamEntry {
  ClientId client = 0;
  LogRecord record;

  friend bool operator==(const StreamEntry& a, const StreamEntry& b) {
    return a.client == b.client && a.record == b.record;
  }
};

/// Encodes a single stream entry (the per-entry format of a track).
Bytes EncodeStreamEntry(const StreamEntry& entry);
Result<StreamEntry> DecodeStreamEntry(const Bytes& bytes);

/// A stream entry is, byte for byte, the owning client's id followed by
/// the record's wire encoding (wire::kRecordFixedBytes of lsn, epoch,
/// present flag and data length, then the data), so a server stores an
/// arriving record with one copy of the bytes it received.
constexpr size_t kStreamEntryClientBytes = 4;

/// Fixed (non-payload) bytes of an encoded stream entry:
/// client(4) + lsn(8) + epoch(8) + present(1) + data length(4).
constexpr size_t kStreamEntryFixedBytes =
    kStreamEntryClientBytes + wire::kRecordFixedBytes;

/// Encoded size of a record's entry, used when packing a track.
size_t StreamEntrySize(const LogRecord& record);

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

/// One entry of a track image, read in place: where it starts, its fixed
/// fields, and where its payload sits in the image.
struct StreamEntryRef {
  size_t offset = 0;
  ClientId client = 0;
  Lsn lsn = kNoLsn;
  Epoch epoch = 0;
  bool present = true;
  size_t data_offset = 0;
  size_t data_size = 0;
};

/// Size of the encoded entry at `pos` in `bytes`, read from its length
/// field.
size_t StreamEntrySizeAt(const Bytes& bytes, size_t pos);

/// Reads the entry at `pos` of a track image.
StreamEntryRef StreamEntryAt(std::span<const uint8_t> image, size_t pos);

/// The record of the entry at `pos` of `image`, its payload a view
/// sharing the image (empty when the payload is).
LogRecord RecordOfEntry(const SharedBytes& image, size_t pos);

/// Calls `fn(const StreamEntryRef&)` for the first `count` entries of a
/// track image this node built, or of a track DecodeTrack has verified
/// (no validation here).
template <typename Fn>
void ForEachStreamEntry(std::span<const uint8_t> image, uint32_t count,
                        Fn&& fn) {
  size_t pos = kTrackOverhead;
  for (uint32_t i = 0; i < count; ++i) {
    const StreamEntryRef entry = StreamEntryAt(image, pos);
    pos = entry.data_offset + entry.data_size;
    fn(entry);
  }
}

/// Encodes a full track from entries (reference encoder; the log server
/// builds its tracks in place in NVRAM).
Bytes EncodeTrack(const std::vector<StreamEntry>& entries);

/// Decodes a track, verifying its checksum so torn/corrupt tracks surface
/// as Corruption instead of bad data. Payloads are views sharing `track`.
Result<std::vector<StreamEntry>> DecodeTrack(const SharedBytes& track);

}  // namespace dlog::server

#endif  // DLOG_SERVER_TRACK_FORMAT_H_
