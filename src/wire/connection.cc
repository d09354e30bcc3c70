#include "wire/connection.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <utility>

#include "wire/messages.h"

namespace dlog::wire {

namespace {

/// Section 4.1: "network and RPC implementation processing can be
/// performed in one thousand instructions per packet".
constexpr uint64_t kInstructionsPerPacket = 1000;

/// Moving-window size, in packets: how much unconsumed allocation each
/// party tries to keep granted to the other.
constexpr uint64_t kWindowPackets = 16;
/// Grant refresh threshold: a standalone window-update packet is sent
/// when the peer's unsent grant lags by at least this many packets (at
/// most half the window, so the peer's allocation never runs dry).
constexpr uint64_t kWindowUpdateThreshold = 8;
/// SYNs sent before a handshake gives up and closes the connection.
constexpr int kHandshakeMaxRetries = 10;
/// "Deadlocks are prevented by allowing either party to exceed its
/// allocation, so long as it pauses several seconds between packets."
constexpr sim::Duration kAllocationOverrideDelay = 3 * sim::kSecond;

}  // namespace

// --- ReceivedSeqs ---

bool ReceivedSeqs::Accept(uint64_t seq) {
  if (seq <= cumulative_) return false;
  if (seq == cumulative_ + 1) {
    ++cumulative_;
    size_t drained = 0;
    while (drained < recorded_.size() &&
           recorded_[drained] == cumulative_ + 1) {
      ++cumulative_;
      ++drained;
    }
    if (drained > 0) {
      recorded_.erase(recorded_.begin(),
                      recorded_.begin() + static_cast<ptrdiff_t>(drained));
    }
    return true;
  }
  auto at = recorded_.end();
  if (!recorded_.empty() && seq <= recorded_.back()) {
    at = std::lower_bound(recorded_.begin(), recorded_.end(), seq);
    if (*at == seq) return false;
  }
  if (recorded_.size() == kMaxRecorded) {
    // Recording this seq would pass the bound: collapse instead.
    cumulative_ = std::max(seq, recorded_.back());
    recorded_.clear();
    return true;
  }
  recorded_.insert(at, seq);
  return true;
}

// --- Connection ---

Connection::Connection(Endpoint* endpoint, net::NodeId peer,
                       uint64_t conn_id, bool initiator)
    : endpoint_(endpoint),
      peer_(peer),
      conn_id_(conn_id),
      initiator_(initiator),
      state_(initiator ? State::kSynSent : State::kSynReceived),
      window_(endpoint->config().adaptive_window) {}

uint64_t Connection::CurrentGrant() const {
  return recv_highest_seen_ + kWindowPackets;
}

void Connection::StartHandshake() {
  assert(initiator_);
  ++handshake_attempts_;
  endpoint_->SendFrame(peer_, Endpoint::kSyn, conn_id_, 0, CurrentGrant(),
                       {});
  constexpr sim::Duration kHandshakeRetry = 200 * sim::kMillisecond;
  handshake_timer_ = endpoint_->simulator()->After(
      kHandshakeRetry, [this]() { HandshakeTimeout(); });
}

void Connection::HandshakeTimeout() {
  handshake_timer_ = 0;
  if (state_ != State::kSynSent) return;
  if (handshake_attempts_ >= kHandshakeMaxRetries) {
    Close();
    return;
  }
  StartHandshake();
}

void Connection::Send(Bytes payload, uint64_t trace, uint64_t span) {
  if (state_ == State::kClosed) return;
  // Make room for the frame trailer now so framing appends in place
  // without reallocating (and so without copying the payload).
  payload.reserve(payload.size() + kFrameTrailerBytes);
  if (send_queue_.empty() && MaySend(payload.size())) {
    // Nothing waits ahead of it: skip the queue.
    SendData({std::move(payload), trace, span});
  } else {
    send_queue_.push_back({std::move(payload), trace, span});
  }
  TryFlush();
}

void Connection::NoteAllocation(uint64_t alloc) {
  if (alloc <= peer_allocation_) return;
  peer_allocation_ = alloc;
  if (inflight_.empty()) return;
  if (alloc <= kWindowPackets) return;
  // The peer grants `highest seq seen + kWindowPackets`, so this advance
  // acknowledges every injected seq <= alloc - kWindowPackets (including
  // seqs the network lost — they will never be acked any other way and
  // must not pin the adaptive window).
  const uint64_t acked = alloc - kWindowPackets;
  size_t acked_bytes = 0;
  for (auto it = inflight_.begin();
       it != inflight_.end() && it->first <= acked;) {
    acked_bytes += it->second;
    it = inflight_.erase(it);
  }
  if (acked_bytes > 0) {
    bytes_in_flight_ -= acked_bytes;
    window_.OnAck(acked_bytes);
  }
}

void Connection::RecordInflight(uint64_t seq, size_t bytes) {
  if (!window_.enabled()) return;
  inflight_[seq] = bytes;
  bytes_in_flight_ += bytes;
}

void Connection::NoteOverload() {
  window_.OnCongestion(endpoint_->simulator()->Now());
}

bool Connection::MaySend(size_t bytes) const {
  return state_ == State::kEstablished && next_send_seq_ <= peer_allocation_ &&
         window_.Allows(bytes_in_flight_, bytes);
}

void Connection::SendData(Outgoing out) {
  const uint64_t seq = next_send_seq_++;
  RecordInflight(seq, out.payload.size());
  endpoint_->SendFrame(peer_, Endpoint::kData, conn_id_, seq, CurrentGrant(),
                       std::move(out.payload), out.trace, out.span);
  last_advertised_grant_ = CurrentGrant();
}

void Connection::TryFlush() {
  if (state_ != State::kEstablished) return;
  while (!send_queue_.empty() &&
         MaySend(send_queue_.front().payload.size())) {
    Outgoing out = std::move(send_queue_.front());
    send_queue_.pop_front();
    SendData(std::move(out));
  }
  if (!send_queue_.empty()) {
    ArmOverrideTimer();
  } else if (override_timer_ != 0) {
    endpoint_->simulator()->Cancel(override_timer_);
    override_timer_ = 0;
  }
}

void Connection::ArmOverrideTimer() {
  if (override_timer_ != 0) return;
  override_timer_ = endpoint_->simulator()->After(
      kAllocationOverrideDelay, [this]() {
        override_timer_ = 0;
        if (state_ != State::kEstablished || send_queue_.empty()) return;
        // Going a full override delay without allocation progress is this
        // transport's timeout signal: shrink the adaptive window.
        window_.OnCongestion(endpoint_->simulator()->Now());
        // Exceed the allocation with a single packet after the mandated
        // pause; the receiver may drop it if genuinely overrun.
        Outgoing out = std::move(send_queue_.front());
        send_queue_.pop_front();
        SendData(std::move(out));
        if (!send_queue_.empty()) ArmOverrideTimer();
      });
}

void Connection::GrantWindowIfNeeded(bool force) {
  const uint64_t grant = CurrentGrant();
  if (force || grant >= last_advertised_grant_ + kWindowUpdateThreshold) {
    endpoint_->SendFrame(peer_, Endpoint::kWindow, conn_id_, 0, grant, {});
    last_advertised_grant_ = grant;
  }
}

void Connection::OnFrame(uint8_t frame_type, uint64_t seq, uint64_t alloc,
                         const SharedBytes& payload) {
  if (state_ == State::kClosed) return;
  switch (frame_type) {
    case Endpoint::kSynAck:
      if (!initiator_) return;
      NoteAllocation(alloc);
      if (state_ == State::kSynSent) {
        state_ = State::kEstablished;
        if (handshake_timer_ != 0) {
          endpoint_->simulator()->Cancel(handshake_timer_);
          handshake_timer_ = 0;
        }
        // Third leg of the handshake.
        endpoint_->SendFrame(peer_, Endpoint::kAck, conn_id_, 0,
                             CurrentGrant(), {});
        last_advertised_grant_ = CurrentGrant();
      } else {
        // Duplicate SYN_ACK: re-acknowledge.
        endpoint_->SendFrame(peer_, Endpoint::kAck, conn_id_, 0,
                             CurrentGrant(), {});
      }
      TryFlush();
      return;
    case Endpoint::kAck:
      if (initiator_) return;
      NoteAllocation(alloc);
      if (state_ == State::kSynReceived) state_ = State::kEstablished;
      TryFlush();
      return;
    case Endpoint::kWindow:
      NoteAllocation(alloc);
      // Data arriving implies the peer considers us established.
      if (state_ == State::kSynReceived) state_ = State::kEstablished;
      TryFlush();
      return;
    case Endpoint::kData: {
      NoteAllocation(alloc);
      if (state_ == State::kSynReceived) state_ = State::kEstablished;
      // Duplicate detection on permanently unique sequence numbers.
      const bool duplicate = !recv_seqs_.Accept(seq);
      recv_highest_seen_ = std::max(recv_highest_seen_, seq);
      if (duplicate) {
        duplicates_dropped_.Increment();
        GrantWindowIfNeeded(/*force=*/false);
        return;
      }
      GrantWindowIfNeeded(/*force=*/false);
      if (message_handler_) message_handler_(payload);
      TryFlush();
      return;
    }
    default:
      return;
  }
}

void Connection::Close() {
  if (state_ == State::kClosed) return;
  state_ = State::kClosed;
  if (handshake_timer_ != 0) {
    endpoint_->simulator()->Cancel(handshake_timer_);
    handshake_timer_ = 0;
  }
  if (override_timer_ != 0) {
    endpoint_->simulator()->Cancel(override_timer_);
    override_timer_ = 0;
  }
  send_queue_.clear();
  if (close_handler_) close_handler_();
}

// --- ConnectionTable ---

void ConnectionTable::Insert(uint64_t id, Connection* conn) {
  if (2 * (size_ + 1) > slots_.size()) {
    // Rehash into a table twice as large.
    std::vector<Slot> old = std::move(slots_);
    const size_t capacity = std::max<size_t>(8, 2 * old.size());
    slots_.assign(capacity, Slot{});
    shift_ = 64 - std::countr_zero(capacity);
    for (const Slot& slot : old) {
      if (slot.conn != nullptr) Place(slot.id, slot.conn);
    }
  }
  Place(id, conn);
  ++size_;
}

void ConnectionTable::Place(uint64_t id, Connection* conn) {
  const size_t mask = slots_.size() - 1;
  size_t i = Home(id);
  while (slots_[i].conn != nullptr) i = (i + 1) & mask;
  slots_[i] = {id, conn};
}

// --- Endpoint ---

Endpoint::Endpoint(sim::Scheduler* sim, sim::Cpu* cpu, net::NodeId id,
                   const WireConfig& config)
    : sim_(sim),
      cpu_(cpu),
      id_(id),
      config_(config),
      incarnation_(config.initial_incarnation) {}

void Endpoint::AttachNetwork(net::Network* network, net::Nic* nic) {
  networks_.emplace_back(network, nic);
  nic->SetHandler(
      [this, nic](const net::Packet& packet) { OnNicDeliver(packet, nic); });
}

uint64_t Endpoint::NewConnectionId() {
  ++conn_counter_;
  return (static_cast<uint64_t>(id_) << 48) | (incarnation_ << 32) |
         conn_counter_;
}

Connection* Endpoint::AddConnection(net::NodeId peer, uint64_t conn_id,
                                    bool initiator) {
  connections_.push_back(std::unique_ptr<Connection>(
      new Connection(this, peer, conn_id, initiator)));
  Connection* conn = connections_.back().get();
  by_id_.Insert(conn_id, conn);
  return conn;
}

Connection* Endpoint::Connect(net::NodeId peer) {
  Connection* conn = AddConnection(peer, NewConnectionId(),
                                   /*initiator=*/true);
  conn->StartHandshake();
  return conn;
}

void Endpoint::Crash() {
  // Volatile connection state is lost; the incarnation (modeling a tiny
  // stable counter) ensures packets from the previous life are rejected
  // as addressing unknown connections.
  for (const std::unique_ptr<Connection>& conn : connections_) {
    conn->state_ = Connection::State::kClosed;
    if (conn->handshake_timer_ != 0) sim_->Cancel(conn->handshake_timer_);
    if (conn->override_timer_ != 0) sim_->Cancel(conn->override_timer_);
  }
  by_id_.Clear();
  connections_.clear();
  ++incarnation_;
  conn_counter_ = 0;
}

void Endpoint::SendFrame(net::NodeId dst, uint8_t frame_type,
                         uint64_t conn_id, uint64_t seq, uint64_t alloc,
                         Bytes payload, uint64_t trace, uint64_t span) {
  // Frame in place: append the trailer to the payload buffer (reserved
  // headroom makes this a plain append) and hand the buffer itself to
  // the packet.
  const FrameTrailer trailer{frame_type, conn_id, seq, alloc,
                             static_cast<uint32_t>(payload.size())};
  payload.reserve(payload.size() + kFrameTrailerBytes);
  Encoder enc(&payload, kFrameTrailerBytes);
  fields::PutAll(&enc, trailer);
  SharedBytes frame(std::move(payload));

  packets_sent_.Increment();
  // Charge the transmission path CPU cost, then hand to a network.
  cpu_->Execute(kInstructionsPerPacket,
                [this, dst, frame = std::move(frame), trace, span]() mutable {
                  if (networks_.empty()) return;
                  auto& [network, nic] = networks_[next_network_];
                  next_network_ = (next_network_ + 1) % networks_.size();
                  if (!nic->IsUp()) return;  // crashed node sends nothing
                  net::Packet packet;
                  packet.src = id_;
                  packet.dst = dst;
                  packet.payload = std::move(frame);
                  packet.trace = trace;
                  packet.span = span;
                  network->Send(packet);
                });
}

void Endpoint::SendDatagram(net::NodeId dst, Bytes payload, uint64_t trace,
                            uint64_t span) {
  SendFrame(dst, kDatagram, 0, 0, 0, std::move(payload), trace, span);
}

void Endpoint::OnNicDeliver(const net::Packet& packet, net::Nic* nic) {
  // Hold the ring slot until the CPU has processed the packet; this is
  // what makes back-to-back bursts overflow small NICs (Section 4.1).
  cpu_->Execute(kInstructionsPerPacket, [this, packet, nic]() {
    ProcessPacket(packet);
    nic->CompleteReceive();
  });
}

void Endpoint::ProcessPacket(const net::Packet& packet) {
  packets_received_.Increment();
  const SharedBytes& buf = packet.payload;
  if (buf.size() < kFrameTrailerBytes) {
    return;  // malformed packet; the medium is unreliable anyway
  }
  const size_t payload_len = buf.size() - kFrameTrailerBytes;
  Result<FrameTrailer> frame = Decode<FrameTrailer>(buf, payload_len);
  // The stored payload length finds a truncated or corrupt packet before
  // the payload is sliced out.
  if (!frame.ok() || frame->payload_len != payload_len) {
    return;  // malformed packet
  }
  const uint8_t frame_type = frame->frame_type;
  const uint64_t conn_id = frame->conn_id;
  // Zero-copy: the payload is a view into the arriving packet buffer,
  // shared up through envelope and record decoding.
  SharedBytes payload = buf.Slice(0, payload_len);

  if (frame_type == kDatagram) {
    if (datagram_handler_) datagram_handler_(packet.src, payload);
    return;
  }

  Connection* conn = by_id_.Find(conn_id);
  if (conn == nullptr) {
    if (frame_type == kSyn) {
      // Passive open.
      conn = AddConnection(packet.src, conn_id, /*initiator=*/false);
      conn->peer_allocation_ = frame->alloc;
      SendFrame(packet.src, kSynAck, conn_id, 0, conn->CurrentGrant(), {});
      conn->last_advertised_grant_ = conn->CurrentGrant();
      if (accept_handler_) accept_handler_(conn);
    } else if (frame_type != kReset) {
      // Unknown connection (e.g., we crashed): tell the peer.
      SendFrame(packet.src, kReset, conn_id, 0, 0, {});
    }
    return;
  }

  if (frame_type == kReset) {
    conn->Close();
    return;
  }
  if (frame_type == kSyn) {
    // Duplicate SYN for an existing connection: re-answer.
    SendFrame(packet.src, kSynAck, conn_id, 0, conn->CurrentGrant(), {});
    return;
  }
  conn->OnFrame(frame_type, frame->seq, frame->alloc, payload);
}

}  // namespace dlog::wire
