#ifndef DLOG_CLIENT_LOG_SERVER_STUB_H_
#define DLOG_CLIENT_LOG_SERVER_STUB_H_

#include <map>

#include "common/log_types.h"
#include "common/result.h"
#include "common/status.h"
#include "server/client_log_store.h"

namespace dlog::client {

/// The abstract log-server interface the Section 3.1 replication
/// algorithm is written against: the three operations of Section 3.1.1.
/// The synchronous reference model (ReplicatedLog) uses this directly;
/// tests plug in in-memory or fault-injecting implementations.
class LogServerStub {
 public:
  virtual ~LogServerStub() = default;

  virtual ServerId id() const = 0;
  /// An unavailable server fails every operation with Unavailable.
  virtual bool IsAvailable() const = 0;

  /// ServerWriteLog: "takes the LSN, epoch number, and present flag for
  /// the record as arguments (along with the data)".
  virtual Status ServerWriteLog(ClientId client, const LogRecord& record) = 0;

  /// ServerReadLog: "returns the present flag and log record with highest
  /// epoch number and the requested LSN".
  virtual Result<LogRecord> ServerReadLog(ClientId client, Lsn lsn) = 0;

  /// IntervalList: "returns the epoch number, low LSN, and high LSN for
  /// each consecutive sequence of log records stored for a client node".
  virtual Result<IntervalList> ServerIntervalList(ClientId client) = 0;
};

/// In-memory stub backed by the real per-client store semantics, its
/// records kept in track images of its own; the workhorse of the
/// reference-model property tests.
class InMemoryLogServerStub : public LogServerStub {
 public:
  explicit InMemoryLogServerStub(ServerId id) : id_(id) {}
  // The stores point at images_.
  InMemoryLogServerStub(const InMemoryLogServerStub&) = delete;
  InMemoryLogServerStub& operator=(const InMemoryLogServerStub&) = delete;

  ServerId id() const override { return id_; }
  bool IsAvailable() const override { return available_; }
  void SetAvailable(bool available) { available_ = available; }

  Status ServerWriteLog(ClientId client, const LogRecord& record) override {
    if (!available_) return Status::Unavailable("server down");
    return store(client).Write(record);
  }

  Result<LogRecord> ServerReadLog(ClientId client, Lsn lsn) override {
    if (!available_) return Status::Unavailable("server down");
    return store(client).Read(lsn);
  }

  Result<IntervalList> ServerIntervalList(ClientId client) override {
    if (!available_) return Status::Unavailable("server down");
    return store(client).Intervals();
  }

  /// Test access to the underlying store.
  server::ClientLogStore& store(ClientId client) {
    return store_.try_emplace(client, client, &images_).first->second;
  }

 private:
  ServerId id_;
  bool available_ = true;
  server::MemoryTrackImages images_;
  std::map<ClientId, server::ClientLogStore> store_;
};

}  // namespace dlog::client

#endif  // DLOG_CLIENT_LOG_SERVER_STUB_H_
