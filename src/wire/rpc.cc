#include "wire/rpc.h"

#include <utility>
#include <vector>

namespace dlog::wire {

void RpcClient::Start(MessageType reply,
                      std::function<Bytes(uint64_t)> encode,
                      const CallOptions& opts, ResponseCallback cb) {
  const uint64_t rpc_id = next_rpc_id_++;
  PendingCall call;
  call.encode = std::move(encode);
  call.reply = reply;
  call.opts = opts;
  call.cb = std::move(cb);
  pending_[rpc_id] = std::move(call);
  Transmit(rpc_id);
}

void RpcClient::Transmit(uint64_t rpc_id) {
  auto it = pending_.find(rpc_id);
  if (it == pending_.end()) return;
  PendingCall& call = it->second;
  ++call.attempts;
  Connection* conn = provider_();
  if (conn != nullptr && !conn->IsClosed()) {
    conn->Send(call.encode(rpc_id));
  }
  call.timer =
      sim_->After(call.opts.timeout, [this, rpc_id]() { OnTimeout(rpc_id); });
}

void RpcClient::OnTimeout(uint64_t rpc_id) {
  auto it = pending_.find(rpc_id);
  if (it == pending_.end()) return;
  PendingCall& call = it->second;
  call.timer = 0;
  if (call.attempts >= call.opts.max_attempts) {
    ResponseCallback cb = std::move(call.cb);
    pending_.erase(it);
    cb(Status::TimedOut("rpc retries exhausted"));
    return;
  }
  Transmit(rpc_id);
}

bool RpcClient::HandleResponse(const Envelope& envelope) {
  auto it = pending_.find(envelope.rpc_id);
  if (it == pending_.end()) return false;  // stale duplicate response
  if (it->second.reply != envelope.type) return false;  // not its reply
  if (it->second.timer != 0) sim_->Cancel(it->second.timer);
  ResponseCallback cb = std::move(it->second.cb);
  pending_.erase(it);
  cb(envelope);
  return true;
}

void RpcClient::FailAll(const Status& status) {
  std::vector<ResponseCallback> callbacks;
  for (auto& [id, call] : pending_) {
    if (call.timer != 0) sim_->Cancel(call.timer);
    callbacks.push_back(std::move(call.cb));
  }
  pending_.clear();
  for (auto& cb : callbacks) cb(status);
}

void RpcClient::DropAll() {
  for (auto& [id, call] : pending_) {
    if (call.timer != 0) sim_->Cancel(call.timer);
  }
  pending_.clear();
}

}  // namespace dlog::wire
