#include "tp/engine.h"

#include <algorithm>
#include <cassert>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <utility>

namespace dlog::tp {
namespace {

/// Whether an update or undo record's byte images fit the page they
/// apply to.
bool FitsPage(const WalView& rec, size_t page_bytes) {
  auto fits = [&](std::span<const uint8_t> image) {
    return rec.offset <= page_bytes && image.size() <= page_bytes - rec.offset;
  };
  return fits(rec.redo) && fits(rec.undo);
}

}  // namespace

TransactionEngine::TransactionEngine(sim::Scheduler* sim, TxnLogger* logger,
                                     PageDisk* disk,
                                     const EngineConfig& config)
    : sim_(sim), logger_(logger), disk_(disk), config_(config) {
  pool_ = std::make_unique<BufferPool>(disk);
}

void TransactionEngine::SetTracer(obs::Tracer* tracer,
                                  const std::string& node) {
  tracer_ = tracer;
  trace_node_ = node;
}

void TransactionEngine::RegisterMetrics(obs::MetricsRegistry* registry,
                                        const std::string& node) const {
  registry->RegisterCounter(node + "/tp/commits", &commits_);
  registry->RegisterCounter(node + "/tp/aborts", &aborts_);
}

Result<Lsn> TransactionEngine::AppendRecord(const WalRecord& record) {
  return AppendPayload(EncodeWalRecord(record));
}

Result<Lsn> TransactionEngine::AppendPayload(Bytes payload) {
  log_bytes_ += payload.size();
  ++log_records_;
  return logger_->Append(std::move(payload));
}

TransactionEngine::ActiveTxn* TransactionEngine::FindActive(TxnId txn) {
  auto it = std::lower_bound(
      active_.begin(), active_.end(), txn,
      [](const ActiveTxn& a, TxnId id) { return a.txn < id; });
  return it != active_.end() && it->txn == txn ? &*it : nullptr;
}

void TransactionEngine::Finish(TxnId txn) {
  ActiveTxn* t = FindActive(txn);
  if (t == nullptr) return;
  t->updates.clear();
  t->undo.clear();
  finished_.push_back(std::move(*t));
  active_.erase(active_.begin() + (t - active_.data()));
}

Result<TxnId> TransactionEngine::Begin() {
  if (crashed_) return Status::Aborted("engine crashed");
  const TxnId txn = next_txn_++;
  obs::SpanContext root;
  if (tracer_ != nullptr) {
    root = tracer_->StartTrace("txn", trace_node_);
    tracer_->AddArg(root, "txn", txn);
  }
  WalRecord rec;
  rec.type = WalType::kBegin;
  rec.txn = txn;
  {
    obs::Tracer::Scope scope(tracer_, root);
    Status st = AppendRecord(rec).status();
    if (!st.ok()) {
      if (tracer_ != nullptr) tracer_->EndSpan(root);
      return st;
    }
  }
  ActiveTxn state;
  if (!finished_.empty()) {
    state = std::move(finished_.back());
    finished_.pop_back();
  }
  state.txn = txn;
  state.span = root;
  // Ids only grow, but the logger can re-enter and begin a later one.
  auto at = std::lower_bound(
      active_.begin(), active_.end(), txn,
      [](const ActiveTxn& a, TxnId id) { return a.txn < id; });
  active_.insert(at, std::move(state));
  return txn;
}

Status TransactionEngine::Update(TxnId txn, PageId page, uint32_t offset,
                                 std::span<const uint8_t> bytes) {
  if (crashed_) return Status::Aborted("engine crashed");
  ActiveTxn* t = FindActive(txn);
  if (t == nullptr) {
    return Status::InvalidArgument("unknown transaction");
  }
  const Page& current = pool_->Get(page);
  if (offset + bytes.size() > current.data.size()) {
    return Status::OutOfRange("update beyond page");
  }
  // The old image goes into the transaction's undo buffer, and the
  // record is logged straight from there.
  UpdateInfo info;
  info.page = page;
  info.offset = offset;
  info.undo_at = t->undo.size();
  info.size = static_cast<uint32_t>(bytes.size());
  info.undo_logged = !config_.split_records;
  const auto old_image = current.data.begin() + offset;
  t->undo.insert(t->undo.end(), old_image, old_image + info.size);

  std::span<const uint8_t> logged_undo = t->UndoOf(info);
  if (config_.split_records) {
    // "Redo components of log records are sent to log servers as they
    // are generated ... Undo components ... are cached in virtual memory
    // at client nodes."
    undo_bytes_cached_ += info.size;
    logged_undo = {};
  }
  obs::Tracer::Scope scope(tracer_, t->span);
  Result<Lsn> lsn = AppendPayload(EncodeWalRecord(
      WalType::kUpdate, txn, page, offset, kNoLsn, bytes, logged_undo));
  if (!lsn.ok()) return lsn.status();
  t = FindActive(txn);
  if (t == nullptr) return Status::Aborted("engine crashed");
  info.lsn = *lsn;
  t->updates.push_back(info);
  return pool_->ApplyUpdate(page, offset, bytes, *lsn);
}

void TransactionEngine::Commit(TxnId txn, std::function<void(Status)> done) {
  const ActiveTxn* t = FindActive(txn);
  if (crashed_ || t == nullptr) {
    sim_->After(0, [done = std::move(done)]() {
      done(Status::InvalidArgument("unknown or dead transaction"));
    });
    return;
  }
  const obs::SpanContext root = t->span;
  obs::SpanContext commit_span;
  if (tracer_ != nullptr) {
    commit_span = tracer_->StartSpan("commit", trace_node_, root);
  }
  WalRecord rec;
  rec.type = WalType::kCommit;
  rec.txn = txn;
  Result<Lsn> lsn = [&]() {
    obs::Tracer::Scope scope(tracer_, commit_span);
    return AppendRecord(rec);
  }();
  if (!lsn.ok()) {
    if (tracer_ != nullptr) {
      tracer_->EndSpan(commit_span);
      tracer_->EndSpan(root);
    }
    sim_->After(0, [done = std::move(done), st = lsn.status()]() {
      done(st);
    });
    return;
  }
  // "Only the final commit record written by a local ET1 transaction must
  // be forced to disk, preceding records are buffered."
  // "When a transaction commits, the undo components of log records
  // written by the transaction are flushed from the cache."
  Finish(txn);
  {
    // The scoped context makes the client's ForceLog span (and the sends
    // it triggers) children of the commit span.
    obs::Tracer::Scope scope(tracer_, commit_span);
    logger_->Force(*lsn, [this, root, commit_span,
                          done = std::move(done)](Status st) {
      if (st.ok()) commits_.Increment();
      if (tracer_ != nullptr) {
        tracer_->EndSpan(commit_span);
        tracer_->EndSpan(root);
      }
      done(st);
    });
  }
}

Status TransactionEngine::Abort(TxnId txn) {
  if (crashed_) return Status::Aborted("engine crashed");
  ActiveTxn* t = FindActive(txn);
  if (t == nullptr) {
    return Status::InvalidArgument("unknown transaction");
  }
  // Undo from the local cache ("If a transaction aborts while the undo
  // components of its log records are in the cache, then the log records
  // are available locally and do not need to be retrieved from a log
  // server"), logging redo-only compensation records so recovery replays
  // the rollback.
  const obs::SpanContext root = t->span;
  obs::Tracer::Scope scope(tracer_, root);
  for (size_t k = t->updates.size(); k-- > 0;) {
    const UpdateInfo u = t->updates[k];
    // Compensation: restore the old image.
    DLOG_ASSIGN_OR_RETURN(
        Lsn lsn, AppendPayload(EncodeWalRecord(WalType::kUpdate, txn, u.page,
                                               u.offset, kNoLsn,
                                               t->UndoOf(u), {})));
    t = FindActive(txn);
    if (t == nullptr) return Status::Aborted("engine crashed");
    DLOG_RETURN_IF_ERROR(
        pool_->ApplyUpdate(u.page, u.offset, t->UndoOf(u), lsn));
  }
  WalRecord rec;
  rec.type = WalType::kAbort;
  rec.txn = txn;
  DLOG_RETURN_IF_ERROR(AppendRecord(rec).status());
  Finish(txn);
  aborts_.Increment();
  if (tracer_ != nullptr) tracer_->EndSpan(root);
  return Status::OK();
}

Status TransactionEngine::FlushUndoFor(PageId page) {
  if (!config_.split_records) return Status::OK();
  // "If a page referenced by an undo component of a log record in the
  // cache is scheduled for cleaning, the undo component must be sent to
  // log servers first." Walked by txn id and update index, looked up
  // again after every append: the logger can re-enter the engine.
  std::vector<TxnId> txns;
  for (const ActiveTxn& t : active_) txns.push_back(t.txn);
  for (TxnId txn : txns) {
    for (size_t k = 0;; ++k) {
      const ActiveTxn* t = FindActive(txn);
      if (t == nullptr || k >= t->updates.size()) break;
      const UpdateInfo u = t->updates[k];
      if (u.page != page || u.undo_logged) continue;
      DLOG_RETURN_IF_ERROR(
          AppendPayload(EncodeWalRecord(WalType::kUndo, txn, u.page,
                                        u.offset, u.lsn, {}, t->UndoOf(u)))
              .status());
      undo_bytes_logged_ += u.size;
      if (ActiveTxn* again = FindActive(txn)) {
        again->updates[k].undo_logged = true;
      }
    }
  }
  return Status::OK();
}

void TransactionEngine::CleanPages(std::function<void(Status)> done) {
  if (crashed_) {
    sim_->After(0, [done = std::move(done)]() {
      done(Status::Aborted("engine crashed"));
    });
    return;
  }
  const std::vector<PageId> dirty = pool_->dirty_pages();
  for (PageId page : dirty) {
    Status st = FlushUndoFor(page);
    if (!st.ok()) {
      sim_->After(0, [done = std::move(done), st]() { done(st); });
      return;
    }
  }
  // WAL rule: force the log past every dirty page's LSN before cleaning.
  const Lsn end = logger_->End();
  logger_->Force(end, [this, dirty, done = std::move(done)](Status st) {
    if (!st.ok()) {
      done(st);
      return;
    }
    if (crashed_) {
      done(Status::Aborted("engine crashed"));
      return;
    }
    for (PageId page : dirty) pool_->Clean(page);
    WalRecord rec;
    rec.type = WalType::kCheckpoint;
    Result<Lsn> checkpoint = AppendRecord(rec);
    if (config_.truncate_after_checkpoint && checkpoint.ok() &&
        active_.empty()) {
      // Quiescent: node recovery needs nothing before the checkpoint.
      (void)logger_->Truncate(*checkpoint);
    }
    done(Status::OK());
  });
}

void TransactionEngine::Crash() {
  crashed_ = true;
  pool_->LoseAll();
  active_.clear();
}

// Sequential asynchronous scan of the whole log. Each record is handled
// as it arrives: an outcome record goes into the txn -> finished table,
// an update or undo record keeps one entry, its images appended to one
// buffer, and every other record is dropped.
struct TransactionEngine::ScanState {
  /// An update or undo record: its fields, and its redo image then its
  /// undo image at images[at, at + redo_size + undo_size).
  struct Entry {
    Lsn lsn = kNoLsn;
    /// For kUndo records: the LSN of the update this undo belongs to.
    Lsn update_lsn = kNoLsn;
    TxnId txn = 0;
    size_t at = 0;
    PageId page = 0;
    uint32_t offset = 0;
    uint32_t redo_size = 0;
    uint32_t undo_size = 0;
    WalType type = WalType::kUpdate;
  };
  std::vector<Entry> entries;
  Bytes images;
  /// Whether each txn that logged a begin, commit or abort has an outcome
  /// record, by ascending txn id; its last such record decides.
  std::vector<std::pair<TxnId, bool>> finished;
  Lsn cursor = 1;
  Lsn end = kNoLsn;
  std::function<void(Status)> done;

  std::span<const uint8_t> RedoOf(const Entry& e) const {
    return {images.data() + e.at, e.redo_size};
  }
  std::span<const uint8_t> UndoOf(const Entry& e) const {
    return {images.data() + e.at + e.redo_size, e.undo_size};
  }
  /// Whether `txn` has an outcome record; nullopt if it logged no begin
  /// or outcome.
  std::optional<bool> FinishedOf(TxnId txn) const {
    auto it = std::lower_bound(finished.begin(), finished.end(),
                               std::make_pair(txn, false));
    if (it == finished.end() || it->first != txn) return std::nullopt;
    return it->second;
  }
  void SetFinished(TxnId txn, bool is_finished) {
    // Txn ids rise through a log, so a begin appends.
    if (finished.empty() || finished.back().first < txn) {
      finished.emplace_back(txn, is_finished);
      return;
    }
    auto it = std::lower_bound(finished.begin(), finished.end(),
                               std::make_pair(txn, false));
    if (it->first == txn) {
      it->second = is_finished;
    } else {
      finished.insert(it, {txn, is_finished});
    }
  }
  /// Takes in the record at the cursor. Corruption, before any page is
  /// touched, if it does not decode or its images do not fit its page.
  Status Add(std::span<const uint8_t> bytes, size_t page_bytes);
};

Status TransactionEngine::ScanState::Add(std::span<const uint8_t> bytes,
                                         size_t page_bytes) {
  DLOG_ASSIGN_OR_RETURN(const WalView rec, DecodeWalRecord(bytes));
  switch (rec.type) {
    case WalType::kBegin:
      SetFinished(rec.txn, false);
      return Status::OK();
    case WalType::kCommit:
    case WalType::kAbort:
      SetFinished(rec.txn, true);
      return Status::OK();
    case WalType::kUpdate:
    case WalType::kUndo:
      break;
    default:
      return Status::OK();
  }
  if (!FitsPage(rec, page_bytes)) {
    return Status::Corruption("logged image overruns its page");
  }
  Entry e;
  e.lsn = cursor;
  e.update_lsn = rec.update_lsn;
  e.txn = rec.txn;
  e.at = images.size();
  e.page = rec.page;
  e.offset = rec.offset;
  e.redo_size = static_cast<uint32_t>(rec.redo.size());
  e.undo_size = static_cast<uint32_t>(rec.undo.size());
  e.type = rec.type;
  // The one copy of the images (counted as a payload copy).
  AddBytesCopied(rec.redo.size() + rec.undo.size());
  images.insert(images.end(), rec.redo.begin(), rec.redo.end());
  images.insert(images.end(), rec.undo.begin(), rec.undo.end());
  entries.push_back(e);
  return Status::OK();
}

TransactionEngine::~TransactionEngine() = default;

void TransactionEngine::Recover(std::function<void(Status)> done) {
  if (scan_ != nullptr) {
    sim_->After(0, [done = std::move(done)]() {
      done(Status::FailedPrecondition("recovery already running"));
    });
    return;
  }
  crashed_ = false;
  const Lsn end = logger_->End();
  if (end == kNoLsn) {
    sim_->After(0, [done = std::move(done)]() { done(Status::OK()); });
    return;
  }
  scan_ = std::make_unique<ScanState>();
  scan_->end = end;
  scan_->done = std::move(done);
  ScanNext();
}

void TransactionEngine::ScanNext() {
  if (scan_->cursor > scan_->end) {
    EndScan(Status::OK());
    return;
  }
  logger_->Read(scan_->cursor, [this](Result<Bytes> r) {
    if (r.ok()) {
      Status added = scan_->Add(*r, disk_->page_bytes());
      if (!added.ok()) {
        EndScan(std::move(added));
        return;
      }
    } else if (!r.status().IsNotFound()) {
      // OutOfRange / unreadable tail: treat as end of usable log.
      // NotFound (not-present records from log recovery) is skipped.
      if (!r.status().IsOutOfRange()) {
        EndScan(r.status());
        return;
      }
    }
    ++scan_->cursor;
    ScanNext();
  });
}

void TransactionEngine::EndScan(Status status) {
  // `done` may start another Recover, or destroy the engine.
  const std::unique_ptr<ScanState> st = std::move(scan_);
  if (status.ok()) status = Replay(*st);
  st->done(std::move(status));
}

Status TransactionEngine::Replay(const ScanState& st) {
  using Entry = ScanState::Entry;
  // --- Redo (committed and aborted transactions, in LSN order) ---
  for (const Entry& e : st.entries) {
    if (e.type != WalType::kUpdate) continue;
    if (st.FinishedOf(e.txn) != true) continue;
    if (pool_->Get(e.page).lsn < e.lsn) {
      DLOG_RETURN_IF_ERROR(
          pool_->ApplyUpdate(e.page, e.offset, st.RedoOf(e), e.lsn));
    }
  }
  // --- Undo (unfinished transactions, reverse LSN order) ---
  // Undo components come from the update record itself or, under
  // splitting, from kUndo records keyed by update LSN.
  std::map<Lsn, std::span<const uint8_t>> logged_undo;
  for (const Entry& e : st.entries) {
    if (e.type == WalType::kUndo) logged_undo[e.update_lsn] = st.UndoOf(e);
  }
  for (auto it = st.entries.rbegin(); it != st.entries.rend(); ++it) {
    const Entry& e = *it;
    if (e.type != WalType::kUpdate) continue;
    if (st.FinishedOf(e.txn) != false) continue;
    // An update that never reached this image needs no undo.
    if (pool_->Get(e.page).lsn < e.lsn) continue;
    std::span<const uint8_t> undo = st.UndoOf(e);
    if (undo.empty()) {
      auto lu = logged_undo.find(e.lsn);
      if (lu == logged_undo.end()) {
        // Split record whose undo was never logged: then its page was
        // never cleaned, so the disk image cannot contain the update.
        continue;
      }
      undo = lu->second;
    }
    // A logged undo whose own offset fit can still overrun at its
    // update's offset in a corrupt log.
    if (!pool_->ApplyUpdate(e.page, e.offset, undo, e.lsn).ok()) {
      return Status::Corruption("logged undo overruns its page");
    }
  }
  return Status::OK();
}

}  // namespace dlog::tp
