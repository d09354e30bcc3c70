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

  /// Issues `req`; `cb` receives the envelope of its reply (a message of
  /// type Req::Reply::kType) or a TimedOut / Aborted status. Retries
  /// reuse the rpc id, so the server's duplicate work is at worst
  /// recomputation.
  template <typename Req>
  void Call(const Req& req, const CallOptions& opts, ResponseCallback cb) {
    Start(Req::Reply::kType, [req](uint64_t id) { return Encode(req, id); },
          opts, std::move(cb));
  }

  /// Returns true if the envelope completed a pending call: it carries
  /// the call's rpc id and its reply type. A reply of another type is
  /// left unanswered, like a garbled packet; the call still completes
  /// with the right reply or times out.
  bool HandleResponse(const Envelope& envelope);

  /// Fails every pending call (e.g., connection reset).
  void FailAll(const Status& status);

  /// Forgets every pending call without invoking its callback: for an
  /// owner being destroyed, whose continuations must not run.
  void DropAll();

  size_t pending() const { return pending_.size(); }

 private:
  struct PendingCall {
    /// The request for a given rpc id, and the type of its reply.
    std::function<Bytes(uint64_t)> encode;
    MessageType reply;
    CallOptions opts;
    ResponseCallback cb;
    int attempts = 0;
    sim::EventId timer = 0;
  };

  void Start(MessageType reply, std::function<Bytes(uint64_t)> encode,
             const CallOptions& opts, ResponseCallback cb);
  void Transmit(uint64_t rpc_id);
  void OnTimeout(uint64_t rpc_id);

  sim::Scheduler* sim_;
  ConnectionProvider provider_;
  uint64_t next_rpc_id_ = 1;
  std::map<uint64_t, PendingCall> pending_;
};

}  // namespace dlog::wire

#endif  // DLOG_WIRE_RPC_H_
