#include "tp/engine.h"

#include <algorithm>
#include <cassert>
#include <memory>

namespace dlog::tp {

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
  active_[txn] = ActiveTxn{{}, root};
  return txn;
}

Status TransactionEngine::Update(TxnId txn, PageId page, uint32_t offset,
                                 Bytes bytes) {
  if (crashed_) return Status::Aborted("engine crashed");
  auto it = active_.find(txn);
  if (it == active_.end()) {
    return Status::InvalidArgument("unknown transaction");
  }
  Page& current = pool_->Get(page);
  if (offset + bytes.size() > current.data.size()) {
    return Status::OutOfRange("update beyond page");
  }
  Bytes old_image(current.data.begin() + offset,
                  current.data.begin() + offset + bytes.size());

  // Logged straight from `bytes` and `old_image`, which the undo cache
  // keeps anyway.
  std::span<const uint8_t> logged_undo = old_image;
  if (config_.split_records) {
    // "Redo components of log records are sent to log servers as they
    // are generated ... Undo components ... are cached in virtual memory
    // at client nodes."
    undo_bytes_cached_ += old_image.size();
    logged_undo = {};
  }
  obs::Tracer::Scope scope(tracer_, it->second.span);
  DLOG_ASSIGN_OR_RETURN(
      Lsn lsn, AppendPayload(EncodeWalRecord(WalType::kUpdate, txn, page,
                                             offset, kNoLsn, bytes,
                                             logged_undo)));

  pool_->ApplyUpdate(page, offset, bytes, lsn);
  UpdateInfo info;
  info.lsn = lsn;
  info.page = page;
  info.offset = offset;
  info.redo = std::move(bytes);
  info.undo = std::move(old_image);
  info.undo_logged = !config_.split_records;
  it->second.updates.push_back(std::move(info));
  return Status::OK();
}

void TransactionEngine::Commit(TxnId txn, std::function<void(Status)> done) {
  if (crashed_ || active_.find(txn) == active_.end()) {
    sim_->After(0, [done = std::move(done)]() {
      done(Status::InvalidArgument("unknown or dead transaction"));
    });
    return;
  }
  const obs::SpanContext root = active_[txn].span;
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
  active_.erase(txn);
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
  auto it = active_.find(txn);
  if (it == active_.end()) {
    return Status::InvalidArgument("unknown transaction");
  }
  // Undo from the local cache ("If a transaction aborts while the undo
  // components of its log records are in the cache, then the log records
  // are available locally and do not need to be retrieved from a log
  // server"), logging redo-only compensation records so recovery replays
  // the rollback.
  ActiveTxn& state = it->second;
  obs::Tracer::Scope scope(tracer_, state.span);
  const obs::SpanContext root = state.span;
  for (auto u = state.updates.rbegin(); u != state.updates.rend(); ++u) {
    WalRecord clr;
    clr.type = WalType::kUpdate;
    clr.txn = txn;
    clr.page = u->page;
    clr.offset = u->offset;
    clr.redo = u->undo;  // compensation: restore the old image
    DLOG_ASSIGN_OR_RETURN(Lsn lsn, AppendRecord(clr));
    pool_->ApplyUpdate(u->page, u->offset, u->undo, lsn);
  }
  WalRecord rec;
  rec.type = WalType::kAbort;
  rec.txn = txn;
  DLOG_RETURN_IF_ERROR(AppendRecord(rec).status());
  active_.erase(it);
  aborts_.Increment();
  if (tracer_ != nullptr) tracer_->EndSpan(root);
  return Status::OK();
}

Status TransactionEngine::FlushUndoFor(PageId page) {
  if (!config_.split_records) return Status::OK();
  // "If a page referenced by an undo component of a log record in the
  // cache is scheduled for cleaning, the undo component must be sent to
  // log servers first."
  for (auto& [txn, state] : active_) {
    for (UpdateInfo& u : state.updates) {
      if (u.page != page || u.undo_logged) continue;
      WalRecord rec;
      rec.type = WalType::kUndo;
      rec.txn = txn;
      rec.page = u.page;
      rec.offset = u.offset;
      rec.update_lsn = u.lsn;
      rec.undo = u.undo;
      DLOG_RETURN_IF_ERROR(AppendRecord(rec).status());
      undo_bytes_logged_ += u.undo.size();
      u.undo_logged = true;
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
  std::vector<PageId> dirty(pool_->dirty_pages().begin(),
                            pool_->dirty_pages().end());
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

void TransactionEngine::Recover(std::function<void(Status)> done) {
  // Sequential asynchronous scan of the whole log.
  struct ScanState {
    std::vector<std::pair<Lsn, WalRecord>> records;
    Lsn cursor = 1;
    Lsn end = kNoLsn;
    std::function<void(Status)> done;
  };
  auto st = std::make_shared<ScanState>();
  st->end = logger_->End();
  st->done = std::move(done);
  crashed_ = false;

  if (st->end == kNoLsn) {
    sim_->After(0, [st]() { st->done(Status::OK()); });
    return;
  }

  // The step captures itself weakly and takes a strong reference while
  // it runs: the pending Read callback owns the chain, so it is freed
  // when the scan ends.
  auto step = std::make_shared<std::function<void()>>();
  *step = [this, st, self = std::weak_ptr(step)]() {
    const auto step = self.lock();
    if (st->cursor > st->end) {
      // --- Analysis ---
      std::map<TxnId, bool> finished;  // txn -> has outcome record
      for (const auto& [lsn, rec] : st->records) {
        switch (rec.type) {
          case WalType::kBegin:
            finished[rec.txn] = false;
            break;
          case WalType::kCommit:
          case WalType::kAbort:
            finished[rec.txn] = true;
            break;
          default:
            break;
        }
      }
      // --- Redo (committed and aborted transactions, in LSN order) ---
      for (const auto& [lsn, rec] : st->records) {
        if (rec.type != WalType::kUpdate) continue;
        auto f = finished.find(rec.txn);
        if (f == finished.end() || !f->second) continue;
        Page& page = pool_->Get(rec.page);
        if (page.lsn < lsn) {
          pool_->ApplyUpdate(rec.page, rec.offset, rec.redo, lsn);
        }
      }
      // --- Undo (unfinished transactions, reverse LSN order) ---
      // Undo components come from the update record itself or, under
      // splitting, from kUndo records keyed by update LSN.
      std::map<Lsn, Bytes> logged_undo;
      for (const auto& [lsn, rec] : st->records) {
        if (rec.type == WalType::kUndo) {
          logged_undo[rec.update_lsn] = rec.undo;
        }
      }
      for (auto it = st->records.rbegin(); it != st->records.rend(); ++it) {
        const auto& [lsn, rec] = *it;
        if (rec.type != WalType::kUpdate) continue;
        auto f = finished.find(rec.txn);
        if (f == finished.end() || f->second) continue;
        Page& page = pool_->Get(rec.page);
        if (page.lsn < lsn) continue;  // update never reached this image
        Bytes undo = rec.undo;
        if (undo.empty()) {
          auto lu = logged_undo.find(lsn);
          if (lu == logged_undo.end()) {
            // Split record whose undo was never logged: then its page was
            // never cleaned, so the disk image cannot contain the update.
            continue;
          }
          undo = lu->second;
        }
        pool_->ApplyUpdate(rec.page, rec.offset, undo, lsn);
      }
      st->done(Status::OK());
      return;
    }
    logger_->Read(st->cursor, [this, st, step](Result<Bytes> r) {
      if (r.ok()) {
        Result<WalRecord> rec = DecodeWalRecord(*r);
        if (rec.ok()) {
          st->records.emplace_back(st->cursor, *std::move(rec));
        }
      } else if (!r.status().IsNotFound()) {
        // OutOfRange / unreadable tail: treat as end of usable log.
        // NotFound (not-present records from log recovery) is skipped.
        if (!r.status().IsOutOfRange()) {
          st->done(r.status());
          return;
        }
      }
      ++st->cursor;
      (*step)();
    });
  };
  (*step)();
}

}  // namespace dlog::tp
