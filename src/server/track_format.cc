#include "server/track_format.h"

#include "common/crc32c.h"

namespace dlog::server {
namespace {

void PutEntry(Encoder* enc, ClientId client, const LogRecord& record) {
  enc->PutU32(client);
  enc->PutU64(record.lsn);
  enc->PutU64(record.epoch);
  enc->PutBool(record.present);
  // Persistence is where a record's bytes leave the shared wire buffer
  // for a stable-storage image — the one copy the zero-copy path keeps.
  AddBytesCopied(record.data.size());
  enc->PutBlob(record.data);
}

Result<StreamEntry> GetEntry(Decoder* dec) {
  StreamEntry entry;
  DLOG_ASSIGN_OR_RETURN(entry.client, dec->GetU32());
  DLOG_ASSIGN_OR_RETURN(entry.record.lsn, dec->GetU64());
  DLOG_ASSIGN_OR_RETURN(entry.record.epoch, dec->GetU64());
  DLOG_ASSIGN_OR_RETURN(entry.record.present, dec->GetBool());
  DLOG_ASSIGN_OR_RETURN(entry.record.data, dec->GetBlobView());
  return entry;
}

/// The fixed fields of the entry at `pos`. The one indexed access bounds
/// them all, so an entry that overruns the written bytes trips the
/// standard library's assertions instead of reading stale capacity.
const uint8_t* FixedFieldsAt(std::span<const uint8_t> bytes, size_t pos) {
  return &bytes[pos + kStreamEntryFixedBytes - 1] -
         (kStreamEntryFixedBytes - 1);
}

void StoreLE32(Bytes* bytes, size_t pos, uint32_t v) {
  for (size_t i = 0; i < 4; ++i) {
    (*bytes)[pos + i] = static_cast<uint8_t>(v >> (8 * i));
  }
}

}  // namespace

Bytes EncodeStreamEntry(const StreamEntry& entry) {
  Bytes out;
  out.reserve(StreamEntrySize(entry.record));
  Encoder enc(&out);
  PutEntry(&enc, entry.client, entry.record);
  return out;
}

Result<StreamEntry> DecodeStreamEntry(const Bytes& bytes) {
  Decoder dec(bytes);
  DLOG_ASSIGN_OR_RETURN(StreamEntry entry, GetEntry(&dec));
  if (!dec.Done()) return Status::Corruption("trailing bytes after entry");
  return entry;
}

size_t StreamEntrySize(const LogRecord& record) {
  return kStreamEntryFixedBytes + record.data.size();
}

void AppendStreamEntry(Bytes* image, ClientId client,
                       std::span<const uint8_t> record) {
  Encoder enc(image);
  enc.PutU32(client);
  // Persistence is where a record's bytes leave the shared wire buffer
  // for a stable-storage image — the one copy the zero-copy path keeps.
  AddBytesCopied(record.size() - wire::kRecordFixedBytes);
  image->insert(image->end(), record.begin(), record.end());
}

void FinishTrackImage(Bytes* image, uint32_t count) {
  StoreLE32(image, 4, count);
  StoreLE32(image, 0, crc32c::Value(image->data() + 4, image->size() - 4));
}

size_t StreamEntrySizeAt(const Bytes& bytes, size_t pos) {
  return kStreamEntryFixedBytes +
         static_cast<size_t>(LoadLE(FixedFieldsAt(bytes, pos) + 21, 4));
}

StreamEntryRef StreamEntryAt(std::span<const uint8_t> image, size_t pos) {
  const uint8_t* fixed = FixedFieldsAt(image, pos);
  StreamEntryRef entry;
  entry.offset = pos;
  entry.client = static_cast<ClientId>(LoadLE(fixed, 4));
  entry.lsn = LoadLE(fixed + 4, 8);
  entry.epoch = LoadLE(fixed + 12, 8);
  entry.present = fixed[20] != 0;
  entry.data_offset = pos + kStreamEntryFixedBytes;
  entry.data_size = static_cast<size_t>(LoadLE(fixed + 21, 4));
  return entry;
}

LogRecord RecordOfEntry(const SharedBytes& image, size_t pos) {
  const StreamEntryRef e = StreamEntryAt({image.data(), image.size()}, pos);
  LogRecord record{e.lsn, e.epoch, e.present, {}};
  if (e.data_size > 0) record.data = image.Slice(e.data_offset, e.data_size);
  return record;
}

Bytes EncodeTrack(const std::vector<StreamEntry>& entries) {
  size_t size = kTrackOverhead;
  for (const StreamEntry& e : entries) size += StreamEntrySize(e.record);
  Bytes image;
  image.reserve(size);
  image.resize(kTrackOverhead);
  Encoder enc(&image);
  for (const StreamEntry& e : entries) PutEntry(&enc, e.client, e.record);
  FinishTrackImage(&image, static_cast<uint32_t>(entries.size()));
  return image;
}

Result<std::vector<StreamEntry>> DecodeTrack(const SharedBytes& track) {
  Decoder dec(track);
  DLOG_ASSIGN_OR_RETURN(uint32_t crc, dec.GetU32());
  if (crc32c::Value(track.data() + 4, track.size() - 4) != crc) {
    return Status::Corruption("track checksum mismatch");
  }
  DLOG_ASSIGN_OR_RETURN(uint32_t count, dec.GetU32());
  std::vector<StreamEntry> entries;
  entries.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    DLOG_ASSIGN_OR_RETURN(StreamEntry entry, GetEntry(&dec));
    entries.push_back(std::move(entry));
  }
  if (!dec.Done()) return Status::Corruption("trailing bytes after track");
  return entries;
}

}  // namespace dlog::server
