#include "tp/wal.h"

namespace dlog::tp {

Bytes EncodeWalRecord(WalType type, TxnId txn, PageId page, uint32_t offset,
                      Lsn update_lsn, std::span<const uint8_t> redo,
                      std::span<const uint8_t> undo) {
  Bytes out;
  // type, txn, page, offset, update_lsn, then two length-prefixed images.
  Encoder enc(&out, 1 + 8 + 4 + 4 + 8 + 4 + redo.size() + 4 + undo.size());
  enc.PutU8(static_cast<uint8_t>(type));
  enc.PutU64(txn);
  enc.PutU32(page);
  enc.PutU32(offset);
  enc.PutU64(update_lsn);
  enc.PutBlob(redo.data(), redo.size());
  enc.PutBlob(undo.data(), undo.size());
  return out;
}

Bytes EncodeWalRecord(const WalRecord& record) {
  return EncodeWalRecord(record.type, record.txn, record.page, record.offset,
                         record.update_lsn, record.redo, record.undo);
}

Result<WalView> DecodeWalRecord(std::span<const uint8_t> bytes) {
  // type(1), txn(8), page(4), offset(4), update_lsn(8), then the redo
  // and the undo image, each behind its u32 length.
  constexpr size_t kFixedBytes = 1 + 8 + 4 + 4 + 8;
  const auto truncated = []() {
    return Status::Corruption("decode past end of buffer");
  };
  if (bytes.empty()) return truncated();
  const uint8_t type = bytes[0];
  if (type < static_cast<uint8_t>(WalType::kBegin) ||
      type > static_cast<uint8_t>(WalType::kCheckpoint)) {
    return Status::Corruption("bad WAL record type");
  }
  if (bytes.size() < kFixedBytes) return truncated();
  const uint8_t* p = bytes.data();
  WalView record;
  record.type = static_cast<WalType>(type);
  record.txn = LoadLE(p + 1, 8);
  record.page = static_cast<PageId>(LoadLE(p + 9, 4));
  record.offset = static_cast<uint32_t>(LoadLE(p + 13, 4));
  record.update_lsn = LoadLE(p + 17, 8);
  size_t at = kFixedBytes;
  for (std::span<const uint8_t>* image : {&record.redo, &record.undo}) {
    if (bytes.size() - at < 4) return truncated();
    const size_t n = static_cast<size_t>(LoadLE(p + at, 4));
    at += 4;
    if (bytes.size() - at < n) return truncated();
    *image = bytes.subspan(at, n);
    at += n;
  }
  if (at != bytes.size()) return Status::Corruption("trailing WAL bytes");
  return record;
}

}  // namespace dlog::tp
