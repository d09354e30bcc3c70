#ifndef DLOG_CLIENT_REPLICATED_LOG_H_
#define DLOG_CLIENT_REPLICATED_LOG_H_

#include <cstdint>
#include <vector>

#include "common/bytes.h"
#include "common/log_types.h"
#include "common/result.h"
#include "common/status.h"
#include "client/log_server_stub.h"
#include "epoch/id_generator.h"

namespace dlog::client {

/// The synchronous reference implementation of the Section 3.1 replicated
/// log: "an instance of an abstract type that is an append only sequence
/// of records", used by exactly one client, with each record stored on N
/// of the M log servers.
///
/// This class follows the paper's algorithm text line by line and serves
/// two roles in the repository: the executable specification that the
/// property tests check crash interleavings against, and the oracle the
/// asynchronous protocol client (LogClient) is tested against.
class ReplicatedLog {
 public:
  struct Options {
    /// N: copies per record, "constrained by performance and cost
    /// considerations to having values of two or three".
    int copies = 2;
  };

  /// `servers` are the M log servers, `generator` issues epoch numbers
  /// (Appendix I). Neither is owned.
  ReplicatedLog(ClientId client, std::vector<LogServerStub*> servers,
                epoch::ReplicatedIdGenerator* generator, Options options);

  ReplicatedLog(const ReplicatedLog&) = delete;
  ReplicatedLog& operator=(const ReplicatedLog&) = delete;

  /// Client initialization (Section 3.1.2): gathers interval lists from
  /// at least M-N+1 servers, merges them keeping the highest epoch per
  /// LSN, obtains a new epoch number, and makes the possibly partially
  /// written final record atomic by copying it under the new epoch and
  /// appending a not-present record above it. Must be called (and
  /// succeed) before any other operation. Restartable: a crash during
  /// Init is recovered by a later Init.
  Status Init();

  /// Appends a record; returns its LSN. "Consecutive calls to WriteLog
  /// return increasing LSNs."
  Result<Lsn> WriteLog(const Bytes& data);

  /// Fault injection: performs ServerWriteLog on only
  /// `server_writes` (< N) servers and then stops, as a client crash
  /// mid-WriteLog would. Returns Aborted. The object must be discarded
  /// afterwards (a real crash destroys it).
  Status WriteLogCrashAfter(const Bytes& data, int server_writes);

  /// Reads the record at `lsn`. Errors: OutOfRange beyond the end of the
  /// log, NotFound for a record "marked not present" (the paper's
  /// signaled exception), Unavailable when no holder responds.
  Result<Bytes> ReadLog(Lsn lsn);

  /// "The LSN of the most recently written log record" (kNoLsn when the
  /// log is empty).
  Result<Lsn> EndOfLog() const;

  bool initialized() const { return initialized_; }
  Epoch current_epoch() const { return epoch_; }
  const MergedLogView& view() const { return view_; }
  int copies() const { return options_.copies; }

 private:
  /// Picks N available servers, preferring the current write set
  /// ("clients should attempt to perform consecutive writes to the same
  /// servers"). Unavailable if fewer than N are up.
  Result<std::vector<LogServerStub*>> ChooseWriteSet();

  /// Writes one record to the given servers, updating the cached view.
  Status WriteRecord(const LogRecord& record,
                     const std::vector<LogServerStub*>& targets);

  LogServerStub* FindServer(ServerId id) const;

  ClientId client_;
  std::vector<LogServerStub*> servers_;  // the M servers
  epoch::ReplicatedIdGenerator* generator_;
  Options options_;

  bool initialized_ = false;
  Epoch epoch_ = 0;
  Lsn next_lsn_ = 1;
  MergedLogView view_;
  std::vector<ServerId> write_set_;  // sticky server choice
};

}  // namespace dlog::client

#endif  // DLOG_CLIENT_REPLICATED_LOG_H_
