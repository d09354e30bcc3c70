#ifndef DLOG_TP_ENGINE_H_
#define DLOG_TP_ENGINE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/log_types.h"
#include "common/result.h"
#include "common/status.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/scheduler.h"
#include "sim/stats.h"
#include "tp/logger.h"
#include "tp/storage.h"
#include "tp/wal.h"

namespace dlog::tp {

/// Transaction engine options.
struct EngineConfig {
  size_t page_bytes = 1024;
  /// Section 5.2: split each update into a redo component (streamed to
  /// the log immediately) and an undo component (cached in client memory,
  /// logged only if its page must be cleaned before commit).
  bool split_records = false;
  /// Section 5.3: after a quiescent checkpoint (no active transactions,
  /// all pages clean), ask the log to discard everything before it —
  /// "checkpoints and other mechanisms ... limit the online log storage
  /// required for node recovery".
  bool truncate_after_checkpoint = false;
};

/// A miniature write-ahead-logging transaction engine: the paper's
/// "client node" recovery manager. One engine per node, serial
/// transaction execution (the paper's replicated log serves exactly one
/// client process; concurrency control is out of scope). Commits pipeline
/// through the asynchronous log force.
///
/// Recovery is redo/undo over byte-image update records: committed and
/// aborted transactions are redone in LSN order (aborts log redo-only
/// compensation records), and transactions with no outcome record are
/// undone in reverse LSN order using cached-or-logged undo components.
class TransactionEngine {
 public:
  TransactionEngine(sim::Scheduler* sim, TxnLogger* logger, PageDisk* disk,
                    const EngineConfig& config);

  TransactionEngine(const TransactionEngine&) = delete;
  TransactionEngine& operator=(const TransactionEngine&) = delete;
  ~TransactionEngine();

  /// Starts a transaction (logs a begin record, buffered).
  Result<TxnId> Begin();

  /// Logs and applies an update of `bytes` at [offset, offset+size) of
  /// `page`.
  Status Update(TxnId txn, PageId page, uint32_t offset,
                std::span<const uint8_t> bytes);

  /// Logs the commit record, forces the log through it, and completes.
  void Commit(TxnId txn, std::function<void(Status)> done);

  /// Rolls the transaction back from the cached undo components (no
  /// log server read — the Section 5.2 point), logging compensation.
  Status Abort(TxnId txn);

  /// Flushes undo components as needed, forces the log, cleans every
  /// dirty page, and appends a checkpoint record.
  void CleanPages(std::function<void(Status)> done);

  /// Simulated node crash: buffer pool, undo cache, and transaction
  /// table vanish. The engine is dead; build a new one on the same
  /// PageDisk and a recovered logger, then call Recover().
  void Crash();

  /// Restart recovery: scans the log, redoes committed/aborted work,
  /// undoes unfinished transactions. Fails with Corruption, before any
  /// page is touched, if a record does not decode or a logged image does
  /// not fit its page, and with FailedPrecondition while another Recover
  /// runs.
  void Recover(std::function<void(Status)> done);

  BufferPool& buffer_pool() { return *pool_; }
  PageDisk& disk() { return *disk_; }
  size_t active_transactions() const { return active_.size(); }

  // --- Observability ---
  /// Attaches the shared causal tracer. Every Begin() mints a "txn" root
  /// span (closed when the transaction commits or aborts); the scoped
  /// context makes downstream log appends and forces children of it.
  void SetTracer(obs::Tracer* tracer, const std::string& node);
  /// Registers commit/abort counters under "<node>/tp/...".
  void RegisterMetrics(obs::MetricsRegistry* registry,
                       const std::string& node) const;

  // --- statistics (experiment E7) ---
  uint64_t log_bytes() const { return log_bytes_; }
  uint64_t log_records() const { return log_records_; }
  uint64_t undo_bytes_logged() const { return undo_bytes_logged_; }
  uint64_t undo_bytes_cached() const { return undo_bytes_cached_; }
  sim::Counter& commits() { return commits_; }
  sim::Counter& aborts() { return aborts_; }

 private:
  struct UpdateInfo {
    Lsn lsn = kNoLsn;
    PageId page = 0;
    uint32_t offset = 0;
    /// The cached undo component: ActiveTxn::undo[undo_at, +size).
    size_t undo_at = 0;
    uint32_t size = 0;
    bool undo_logged = false;
  };
  /// One transaction's state. Finished transactions' buffers are kept
  /// for reuse, so a transaction allocates nothing once they are grown.
  struct ActiveTxn {
    TxnId txn = 0;
    /// Root span of this transaction's causal trace.
    obs::SpanContext span;
    std::vector<UpdateInfo> updates;
    /// Every update's old image, back to back.
    Bytes undo;

    std::span<const uint8_t> UndoOf(const UpdateInfo& u) const {
      return {undo.data() + u.undo_at, u.size};
    }
  };

  /// The active transaction `txn`, or null. The logger can re-enter the
  /// engine, so the result must not be held across an append: look it
  /// up again.
  ActiveTxn* FindActive(TxnId txn);
  /// Drops `txn` from the active set, keeping its buffers for reuse.
  void Finish(TxnId txn);

  /// Appends a WAL record, tracking volume statistics.
  Result<Lsn> AppendRecord(const WalRecord& record);
  /// Appends an already encoded WAL record, tracking volume statistics.
  Result<Lsn> AppendPayload(Bytes payload);

  /// Logs the undo components covering `page` for all active txns
  /// (required before cleaning under splitting).
  Status FlushUndoFor(PageId page);

  /// Restart recovery's log scan: takes in the record at the cursor,
  /// then the next, and replays them all once the cursor passes the end.
  struct ScanState;
  void ScanNext();
  /// Ends the scan with `status` (which it replaces with the replay's
  /// when OK).
  void EndScan(Status status);
  /// Redo and undo over the scanned update and undo records.
  Status Replay(const ScanState& st);

  sim::Scheduler* sim_;
  TxnLogger* logger_;
  PageDisk* disk_;
  EngineConfig config_;
  std::unique_ptr<BufferPool> pool_;

  bool crashed_ = false;
  TxnId next_txn_ = 1;
  std::vector<ActiveTxn> active_;  // ascending by txn id
  std::vector<ActiveTxn> finished_;  // cleared, capacity kept for reuse

  /// The scan while Recover runs. The engine owns it, so a read's
  /// callback captures the engine alone and allocates nothing.
  std::unique_ptr<ScanState> scan_;

  obs::Tracer* tracer_ = nullptr;
  std::string trace_node_;

  uint64_t log_bytes_ = 0;
  uint64_t log_records_ = 0;
  uint64_t undo_bytes_logged_ = 0;
  uint64_t undo_bytes_cached_ = 0;
  sim::Counter commits_;
  sim::Counter aborts_;
};

}  // namespace dlog::tp

#endif  // DLOG_TP_ENGINE_H_
