#ifndef DLOG_TP_WAL_H_
#define DLOG_TP_WAL_H_

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "common/bytes.h"
#include "common/log_types.h"
#include "common/result.h"

namespace dlog::tp {

/// Transaction identifiers issued by the engine.
using TxnId = uint64_t;
/// Page identifiers within a node's page store.
using PageId = uint32_t;

/// Types of transaction-level log records. These are the payloads the
/// recovery manager hands to the (replicated) log — the log itself treats
/// them as opaque bytes.
enum class WalType : uint8_t {
  kBegin = 1,
  /// A page update carrying redo and (unless split) undo byte images.
  kUpdate = 2,
  kCommit = 3,
  kAbort = 4,
  /// An undo component logged separately under record splitting
  /// (Section 5.2), emitted just before its page is cleaned.
  kUndo = 5,
  /// A quiescent checkpoint: all pages clean, no active transactions.
  kCheckpoint = 6,
};

/// One transaction-level WAL record. Update records carry the byte range
/// they change: [offset, offset + redo.size()) within `page`.
struct WalRecord {
  WalType type = WalType::kBegin;
  TxnId txn = 0;
  PageId page = 0;
  uint32_t offset = 0;
  /// For kUndo records: the LSN of the update this undo belongs to.
  Lsn update_lsn = kNoLsn;
  Bytes redo;
  Bytes undo;

  friend bool operator==(const WalRecord& a, const WalRecord& b) {
    return a.type == b.type && a.txn == b.txn && a.page == b.page &&
           a.offset == b.offset && a.update_lsn == b.update_lsn &&
           a.redo == b.redo && a.undo == b.undo;
  }
};

Bytes EncodeWalRecord(const WalRecord& record);
/// Encodes a record from its fields, for callers that keep the byte
/// images elsewhere and need not copy them into a WalRecord first.
Bytes EncodeWalRecord(WalType type, TxnId txn, PageId page, uint32_t offset,
                      Lsn update_lsn, std::span<const uint8_t> redo,
                      std::span<const uint8_t> undo);
Result<WalRecord> DecodeWalRecord(const Bytes& bytes);

}  // namespace dlog::tp

#endif  // DLOG_TP_WAL_H_
