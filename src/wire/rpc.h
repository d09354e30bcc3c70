#ifndef DLOG_WIRE_RPC_H_
#define DLOG_WIRE_RPC_H_

#include <cstdint>
#include <functional>
#include <map>

#include "common/bytes.h"
#include "common/result.h"
#include "sim/scheduler.h"
#include "wire/connection.h"
#include "wire/messages.h"

namespace dlog::wire {

/// Client-side bookkeeping for the synchronous calls of Figure 4-1
/// (IntervalList, ReadLogForward/Backward, CopyLog, InstallCopies):
/// request-id assignment, timeout, and bounded retransmission. "Strict
/// RPCs for infrequently used operations" (Section 4.2).
///
/// The owner routes response envelopes (rpc_id != 0, *Resp types) to
/// HandleResponse(); anything this class does not recognize is left to
/// the owner.
class RpcClient {
 public:
  using ResponseCallback = std::function<void(Result<Envelope>)>;

  /// `encode` builds the request bytes for a given rpc id; retries reuse
  /// the id so the server's duplicate work is at worst recomputation.
  struct CallOptions {
    sim::Duration timeout = 500 * sim::kMillisecond;
    int max_attempts = 4;
  };

  /// The provider is consulted on every transmission (including
  /// retries), so a call started before a server restart is retried on
  /// the fresh connection. It may return nullptr when no transport is
  /// available right now (the retry timer keeps running).
  using ConnectionProvider = std::function<Connection*()>;

  RpcClient(sim::Scheduler* sim, ConnectionProvider provider)
      : sim_(sim), provider_(std::move(provider)) {}

  /// Convenience for a fixed connection (tests, short-lived use).
  RpcClient(sim::Scheduler* sim, Connection* connection)
      : RpcClient(sim, [connection]() { return connection; }) {}

  RpcClient(const RpcClient&) = delete;
  RpcClient& operator=(const RpcClient&) = delete;

  ~RpcClient() { FailAll(Status::Aborted("rpc client destroyed")); }

  /// Issues a call; `cb` receives the response envelope or a TimedOut /
  /// Aborted status.
  void Call(std::function<Bytes(uint64_t)> encode, const CallOptions& opts,
            ResponseCallback cb);

  /// Returns true if the envelope completed a pending call.
  bool HandleResponse(const Envelope& envelope);

  /// Fails every pending call (e.g., connection reset).
  void FailAll(const Status& status);

  /// Forgets every pending call without invoking its callback: for an
  /// owner being destroyed, whose continuations must not run.
  void DropAll();

  size_t pending() const { return pending_.size(); }

 private:
  struct PendingCall {
    std::function<Bytes(uint64_t)> encode;
    CallOptions opts;
    ResponseCallback cb;
    int attempts = 0;
    sim::EventId timer = 0;
  };

  void Transmit(uint64_t rpc_id);
  void OnTimeout(uint64_t rpc_id);

  sim::Scheduler* sim_;
  ConnectionProvider provider_;
  uint64_t next_rpc_id_ = 1;
  std::map<uint64_t, PendingCall> pending_;
};

}  // namespace dlog::wire

#endif  // DLOG_WIRE_RPC_H_
