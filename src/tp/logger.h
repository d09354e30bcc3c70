#ifndef DLOG_TP_LOGGER_H_
#define DLOG_TP_LOGGER_H_

#include <functional>
#include <vector>

#include "client/log_client.h"
#include "common/bytes.h"
#include "common/log_types.h"
#include "common/result.h"
#include "common/status.h"
#include "sim/scheduler.h"

namespace dlog::tp {

/// The recovery manager's view of its log: buffered appends, explicit
/// forces, and reads during restart ("recovery managers commonly support
/// the grouping of log record writes by providing different calls for
/// forced and buffered log writes", Section 4.1).
///
/// Implementations: ReplicatedTxnLogger (the paper's distributed log),
/// baseline::DuplexedTxnLogger (conventional local duplexed disks), and
/// InMemoryTxnLogger (unit tests).
class TxnLogger {
 public:
  virtual ~TxnLogger() = default;

  /// Appends a record to the (buffered) log, returning its LSN.
  virtual Result<Lsn> Append(Bytes payload) = 0;

  /// Makes all records up to `upto` stable, then calls `done`.
  virtual void Force(Lsn upto, std::function<void(Status)> done) = 0;

  /// Reads one record (restart/abort path).
  virtual void Read(Lsn lsn, std::function<void(Result<Bytes>)> done) = 0;

  /// LSN of the most recently appended record.
  virtual Lsn End() const = 0;

  /// Log space management (Section 5.3): the records below `below` are
  /// no longer needed for node recovery. Best effort; returns the point
  /// actually applied (kNoLsn when unsupported).
  virtual Lsn Truncate(Lsn below) {
    (void)below;
    return kNoLsn;
  }
};

/// Adapter over the replicated-log protocol client.
class ReplicatedTxnLogger : public TxnLogger {
 public:
  explicit ReplicatedTxnLogger(client::LogClient* log) : log_(log) {}

  Result<Lsn> Append(Bytes payload) override {
    return log_->WriteLog(std::move(payload));
  }
  void Force(Lsn upto, std::function<void(Status)> done) override {
    log_->ForceLog(upto, std::move(done));
  }
  void Read(Lsn lsn, std::function<void(Result<Bytes>)> done) override {
    log_->ReadLog(lsn, std::move(done));
  }
  Lsn End() const override { return log_->EndOfLog(); }
  Lsn Truncate(Lsn below) override { return log_->TruncateLog(below); }

 private:
  client::LogClient* log_;
};

/// In-memory log with crash semantics (unforced suffix lost), for engine
/// unit tests.
class InMemoryTxnLogger : public TxnLogger {
 public:
  explicit InMemoryTxnLogger(sim::Scheduler* sim) : sim_(sim) {}

  Result<Lsn> Append(Bytes payload) override {
    records_.push_back(std::move(payload));
    return static_cast<Lsn>(records_.size());
  }

  void Force(Lsn upto, std::function<void(Status)> done) override {
    forced_high_ = std::max(forced_high_, upto);
    sim_->After(0, [done = std::move(done)]() { done(Status::OK()); });
  }

  void Read(Lsn lsn, std::function<void(Result<Bytes>)> done) override {
    if (lsn == kNoLsn || lsn > records_.size()) {
      sim_->After(0, [done = std::move(done)]() {
        done(Status::OutOfRange("beyond end of log"));
      });
      return;
    }
    sim_->After(0, [done = std::move(done),
                    record = records_[lsn - 1]]() mutable {
      done(std::move(record));
    });
  }

  Lsn End() const override { return static_cast<Lsn>(records_.size()); }

  /// Simulated node crash: records never forced are gone.
  void Crash() { records_.resize(std::min<size_t>(records_.size(),
                                                  forced_high_)); }

  Lsn forced_high() const { return forced_high_; }

 private:
  sim::Scheduler* sim_;
  std::vector<Bytes> records_;
  Lsn forced_high_ = 0;
};

}  // namespace dlog::tp

#endif  // DLOG_TP_LOGGER_H_
