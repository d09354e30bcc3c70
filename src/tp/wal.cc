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

Result<WalRecord> DecodeWalRecord(const Bytes& bytes) {
  Decoder dec(bytes);
  WalRecord record;
  DLOG_ASSIGN_OR_RETURN(uint8_t type, dec.GetU8());
  if (type < static_cast<uint8_t>(WalType::kBegin) ||
      type > static_cast<uint8_t>(WalType::kCheckpoint)) {
    return Status::Corruption("bad WAL record type");
  }
  record.type = static_cast<WalType>(type);
  DLOG_ASSIGN_OR_RETURN(record.txn, dec.GetU64());
  DLOG_ASSIGN_OR_RETURN(record.page, dec.GetU32());
  DLOG_ASSIGN_OR_RETURN(record.offset, dec.GetU32());
  DLOG_ASSIGN_OR_RETURN(record.update_lsn, dec.GetU64());
  DLOG_ASSIGN_OR_RETURN(record.redo, dec.GetBlob());
  DLOG_ASSIGN_OR_RETURN(record.undo, dec.GetBlob());
  if (!dec.Done()) return Status::Corruption("trailing WAL bytes");
  return record;
}

}  // namespace dlog::tp
