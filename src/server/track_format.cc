#include "server/track_format.h"

#include "common/crc32c.h"

namespace dlog::server {
namespace {

/// The fixed fields of the entry at `pos`. The one indexed access bounds
/// them all, so an entry that overruns the written bytes trips the
/// standard library's assertions instead of reading stale capacity.
const uint8_t* FixedFieldsAt(std::span<const uint8_t> bytes, size_t pos) {
  return &bytes[pos + kStreamEntryFixedBytes - 1] -
         (kStreamEntryFixedBytes - 1);
}

}  // namespace

void AppendStreamEntry(Bytes* image, ClientId client,
                       std::span<const uint8_t> record) {
  // Persistence is where a record's bytes leave the shared wire buffer
  // for a stable-storage image — the one copy the zero-copy path keeps.
  // Counted first: the counter's atomic add would otherwise wait for the
  // entry's stores into the image to drain.
  AddBytesCopied(record.size() - wire::kRecordFixedBytes);
  Encoder enc(image, kStreamEntryClientBytes + record.size());
  enc.PutU32(client);
  enc.PutRaw(record.data(), record.size());
}

void FinishTrackImage(Bytes* image, uint32_t count) {
  StoreLE(image->data() + 4, count, 4);
  StoreLE(image->data(), crc32c::Value(image->data() + 4, image->size() - 4),
          4);
}

size_t StreamEntrySizeAt(const Bytes& bytes, size_t pos) {
  return kStreamEntryFixedBytes +
         static_cast<size_t>(LoadLE(FixedFieldsAt(bytes, pos) + 21, 4));
}

StreamEntryRef StreamEntryAt(std::span<const uint8_t> image, size_t pos) {
  const uint8_t* fixed = FixedFieldsAt(image, pos);
  return {pos, static_cast<ClientId>(LoadLE(fixed, 4)),
          wire::RecordAt(fixed + kStreamEntryClientBytes)};
}

Result<TrackView> TrackView::Parse(std::span<const uint8_t> track) {
  if (track.size() < kTrackOverhead) {
    return Status::Corruption("truncated track header");
  }
  if (crc32c::Value(track.data() + 4, track.size() - 4) !=
      LoadLE(track.data(), 4)) {
    return Status::Corruption("track checksum mismatch");
  }
  const auto count = static_cast<uint32_t>(LoadLE(track.data() + 4, 4));
  // A lying count ends the loop when the bytes run out.
  size_t pos = kTrackOverhead;
  for (uint32_t i = 0; i < count; ++i) {
    const size_t record =
        track.size() - pos < kStreamEntryClientBytes
            ? 0
            : wire::CheckedRecordSize(
                  track.subspan(pos + kStreamEntryClientBytes));
    if (record == 0) return Status::Corruption("entry overruns the track");
    pos += kStreamEntryClientBytes + record;
  }
  if (pos != track.size()) {
    return Status::Corruption("trailing bytes after track");
  }
  return TrackView(track, count);
}

Bytes EncodeTrack(
    const std::vector<std::pair<ClientId, LogRecord>>& entries) {
  size_t size = kTrackOverhead;
  for (const auto& [client, record] : entries) {
    size += kStreamEntryClientBytes + wire::EncodedRecordSize(record);
  }
  Bytes image;
  image.reserve(size);
  image.resize(kTrackOverhead);
  for (const auto& [client, record] : entries) {
    AppendStreamEntry(&image, client, wire::EncodeRecord(record));
  }
  FinishTrackImage(&image, static_cast<uint32_t>(entries.size()));
  return image;
}

}  // namespace dlog::server
