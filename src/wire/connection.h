#ifndef DLOG_WIRE_CONNECTION_H_
#define DLOG_WIRE_CONNECTION_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "common/bytes.h"
#include "common/ring_queue.h"
#include "flow/window.h"
#include "net/network.h"
#include "sim/cpu.h"
#include "sim/scheduler.h"
#include "sim/stats.h"
#include "sim/time.h"

namespace dlog::wire {

/// Parameters of the specialized low-level protocol (Section 4.2). The
/// protocol is connection-oriented a la Watson's tutorial: a three-way
/// handshake (up to 10 SYNs, 200 ms apart) establishes a small amount of
/// state on both sides, packets carry permanently unique sequence numbers
/// (so duplicates are detected even across a crash of the receiving
/// node), and every packet carries an allocation implementing
/// moving-window flow control: each party keeps 16 packets granted to the
/// other, and refreshes the grant with a standalone window-update packet
/// once it lags by 8. A sender whose allocation runs out may exceed it by
/// one packet every 3 s (see Connection::Send).
struct WireConfig {
  /// The incarnation counter models a tiny stable-storage cell that
  /// survives crashes: a node rebuilt after a crash must resume from a
  /// strictly higher incarnation than any previous life, or its
  /// connection ids would collide with connections its peers still hold
  /// from before the crash. Whoever reconstructs the node (the harness
  /// Cluster, for restarted clients) plays the role of that stable cell
  /// by carrying `incarnation() + 1` forward into the new endpoint.
  uint64_t initial_incarnation = 1;
  /// Optional AIMD window over outstanding bytes (src/flow): bounds how
  /// fast a sender injects when the peer sheds load or stops advancing
  /// its allocation. Off by default — the receiver-granted packet window
  /// alone reproduces the paper's transport.
  flow::AimdConfig adaptive_window;
};

class Endpoint;

/// A connection's receive-side duplicate detection over permanently
/// unique DATA sequence numbers. Every seq <= cumulative() counts as
/// seen, and so does every seq recorded above it. Because the transport
/// never retransmits (loss recovery is end-to-end, Section 4.2), a lost
/// seq leaves a gap that never fills: later arrivals come in order past
/// it, so the recorded seqs are held in one sorted vector where such an
/// arrival appends at the back and only an older seq is searched for.
class ReceivedSeqs {
 public:
  /// More recorded seqs than this collapse the mark to the highest one:
  /// seqs the transport lost are never retransmitted (only re-sent as new
  /// payloads under new seqs), so giving up on old gaps is safe.
  static constexpr size_t kMaxRecorded = 1024;

  /// Notes the arrival of `seq`; false if it was seen before (a
  /// duplicate). The seq after the mark advances it through every
  /// consecutive recorded seq; any other new seq is recorded.
  bool Accept(uint64_t seq);

  uint64_t cumulative() const { return cumulative_; }
  size_t recorded() const { return recorded_.size(); }

 private:
  uint64_t cumulative_ = 0;
  /// Ascending; every element exceeds cumulative_ + 1. Never allocated
  /// on a connection that has lost and reordered nothing.
  std::vector<uint64_t> recorded_;
};

/// One direction-agnostic protocol connection between two endpoints.
/// Delivery is unordered and unreliable by design: the transport detects
/// duplicates and flow-controls, while loss recovery is end-to-end in the
/// logging protocol itself (Section 4.2, citing Saltzer et al.).
///
/// Arriving payloads are handed up as SharedBytes views into the packet
/// buffer — no bytes are copied between the NIC and the message handler.
class Connection {
 public:
  using MessageHandler = std::function<void(const SharedBytes&)>;
  using CloseHandler = std::function<void()>;

  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  /// Installs the upcall for arriving (deduplicated) payloads.
  void SetMessageHandler(MessageHandler h) { message_handler_ = std::move(h); }
  /// Installs the upcall for connection failure (reset by peer, handshake
  /// exhaustion, local crash).
  void SetCloseHandler(CloseHandler h) { close_handler_ = std::move(h); }

  /// Sends a payload. Transmission respects the peer's allocation: a
  /// payload goes out at once when nothing waits and the allocation has
  /// room, and otherwise waits behind the others; after 3 s without
  /// progress one waiting packet is sent anyway (the deadlock-prevention
  /// rule). Sending on a closed
  /// connection is a silent no-op (the close handler has already fired).
  /// `trace`/`span` are optional obs span ids stamped on the outgoing
  /// packet so the network's packet probe can attribute its queueing and
  /// transmission time (0 = untraced).
  void Send(Bytes payload, uint64_t trace = 0, uint64_t span = 0);

  bool IsEstablished() const { return state_ == State::kEstablished; }
  bool IsClosed() const { return state_ == State::kClosed; }
  net::NodeId peer() const { return peer_; }
  uint64_t id() const { return conn_id_; }

  /// Packets queued locally waiting for allocation.
  size_t send_queue_depth() const { return send_queue_.size(); }

  /// Congestion feedback from the layer above (e.g. the log client on an
  /// Overloaded reply): shrinks the adaptive window multiplicatively.
  /// No-op when the adaptive window is disabled.
  void NoteOverload();
  /// Current adaptive-window size in bytes (its configured initial value
  /// when disabled) and the bytes currently in flight against it.
  size_t window_bytes() const { return window_.current(); }
  size_t outstanding_bytes() const { return bytes_in_flight_; }

 private:
  friend class Endpoint;

  enum class State { kSynSent, kSynReceived, kEstablished, kClosed };

  // A payload to send. Waiting payloads keep their span identity so
  // attribution still works for packets that waited on allocation.
  struct Outgoing {
    Bytes payload;
    uint64_t trace = 0;
    uint64_t span = 0;
  };

  Connection(Endpoint* endpoint, net::NodeId peer, uint64_t conn_id,
             bool initiator);

  void StartHandshake();
  void HandshakeTimeout();
  void OnFrame(uint8_t frame_type, uint64_t seq, uint64_t alloc,
               const SharedBytes& payload);
  /// Sends waiting payloads while the allocation allows, then arms the
  /// override timer if any still wait and cancels it otherwise.
  void TryFlush();
  /// Whether a payload of `bytes` may go out now: the connection is
  /// established and the peer's allocation and the adaptive window have
  /// room for it.
  bool MaySend(size_t bytes) const;
  /// Frames `out` as the next DATA seq and hands it to the endpoint: the
  /// one send path of Send, TryFlush and the allocation override.
  void SendData(Outgoing out);
  /// Folds a peer allocation into `peer_allocation_` and, when it
  /// advances, credits the adaptive window with the bytes the advance
  /// acknowledges.
  void NoteAllocation(uint64_t alloc);
  /// Remembers an injected payload's size against the adaptive window
  /// (no-op when disabled).
  void RecordInflight(uint64_t seq, size_t bytes);
  void GrantWindowIfNeeded(bool force);
  /// The allocation we are currently willing to grant the peer.
  uint64_t CurrentGrant() const;
  void Close();
  void ArmOverrideTimer();

  Endpoint* endpoint_;
  net::NodeId peer_;
  uint64_t conn_id_;
  bool initiator_;
  State state_;

  // Send side.
  uint64_t next_send_seq_ = 1;
  uint64_t peer_allocation_ = 0;  // highest seq we may send
  RingQueue<Outgoing> send_queue_;
  sim::EventId override_timer_ = 0;

  // Adaptive (AIMD) window over outstanding bytes. The peer's allocation
  // doubles as the acknowledgment signal: its grant is always
  // `highest seq seen + window_packets`, so an allocation advance to A
  // means every seq <= A - window_packets has been seen. `inflight_` maps
  // injected seq -> payload bytes until acknowledged that way; it stays
  // empty when the adaptive window is disabled.
  flow::AimdWindow window_;
  size_t bytes_in_flight_ = 0;
  std::map<uint64_t, size_t> inflight_;

  // Receive side: duplicate detection. Because the transport never
  // retransmits (loss recovery is end-to-end, Section 4.2), a lost DATA
  // sequence number leaves a permanent gap; the allocation therefore
  // follows the highest sequence seen, not the contiguous prefix.
  ReceivedSeqs recv_seqs_;
  uint64_t recv_highest_seen_ = 0;
  uint64_t last_advertised_grant_ = 0;

  // Handshake.
  int handshake_attempts_ = 0;
  sim::EventId handshake_timer_ = 0;

  MessageHandler message_handler_;
  CloseHandler close_handler_;

  sim::Counter duplicates_dropped_;
};

/// An endpoint's connections by id: an open-addressed table of (id,
/// connection) pairs stored inline, probed linearly and kept at most half
/// full, so a lookup reads one or two adjacent slots. An endpoint only
/// adds connections until it crashes, and a crash clears the table, so
/// nothing is ever erased from it.
class ConnectionTable {
 public:
  /// The connection with this id, or nullptr.
  Connection* Find(uint64_t id) const {
    if (slots_.empty()) return nullptr;
    const size_t mask = slots_.size() - 1;
    for (size_t i = Home(id);; i = (i + 1) & mask) {
      const Slot& slot = slots_[i];
      if (slot.conn == nullptr) return nullptr;
      if (slot.id == id) return slot.conn;
    }
  }
  /// Adds `conn` under `id`, which the table must not hold yet.
  void Insert(uint64_t id, Connection* conn);
  /// Forgets every connection and frees the slots.
  void Clear() { *this = ConnectionTable(); }

 private:
  struct Slot {
    uint64_t id = 0;
    Connection* conn = nullptr;  // null: the slot is free
  };
  /// The slot `id` probes first. The multiply mixes the node, incarnation
  /// and counter fields of an id into the top bits, which pick the slot.
  size_t Home(uint64_t id) const {
    return static_cast<size_t>((id * 0x9E3779B97F4A7C15ull) >> shift_);
  }
  /// Puts `conn` in the first free slot from `id`'s home.
  void Place(uint64_t id, Connection* conn);

  std::vector<Slot> slots_;  // empty or a power of two
  int shift_ = 64;           // 64 - log2(slots_.size())
  size_t size_ = 0;
};

/// The per-node protocol endpoint: owns this node's connections,
/// demultiplexes arriving packets, charges the node CPU the per-packet
/// instruction budget, and spreads traffic across the node's (possibly
/// two) attached networks.
class Endpoint {
 public:
  using AcceptHandler = std::function<void(Connection*)>;

  Endpoint(sim::Scheduler* sim, sim::Cpu* cpu, net::NodeId id,
           const WireConfig& config);

  Endpoint(const Endpoint&) = delete;
  Endpoint& operator=(const Endpoint&) = delete;

  /// Attaches a network/NIC pair. Call twice for the paper's dual-network
  /// configuration; outgoing packets round-robin across attached networks.
  void AttachNetwork(net::Network* network, net::Nic* nic);

  /// Initiates a connection to `peer` (three-way handshake). The returned
  /// pointer remains valid until Crash() or endpoint destruction.
  Connection* Connect(net::NodeId peer);

  /// Installs the upcall for inbound connections (server side).
  void SetAcceptHandler(AcceptHandler h) { accept_handler_ = std::move(h); }

  /// Connectionless datagrams — used for multicast record streams
  /// (Section 4.1's multicast option) and their acknowledgments. No
  /// sequence numbers or flow control: the logging protocol's own
  /// LSN-contiguity detection and per-record idempotence provide the
  /// end-to-end reliability.
  using DatagramHandler =
      std::function<void(net::NodeId, const SharedBytes&)>;
  void SetDatagramHandler(DatagramHandler h) {
    datagram_handler_ = std::move(h);
  }
  /// `dst` may be a unicast node id or a multicast group id. The payload
  /// is framed in place (taken by value) and, for multicast, one buffer
  /// is shared by every receiver. `trace`/`span` stamp the packet for the
  /// profiler (0 = untraced).
  void SendDatagram(net::NodeId dst, Bytes payload, uint64_t trace = 0,
                    uint64_t span = 0);

  /// Simulates a node crash: all connection state vanishes (it lives in
  /// volatile memory) and the incarnation number advances so that pre-
  /// crash packets can never be confused with new-connection traffic.
  void Crash();

  net::NodeId id() const { return id_; }
  /// Current incarnation (advanced by Crash()). A reconstructor that
  /// wants packets from this life rejected must seed the replacement
  /// endpoint's `WireConfig::initial_incarnation` past this value.
  uint64_t incarnation() const { return incarnation_; }
  const WireConfig& config() const { return config_; }
  sim::Scheduler* simulator() { return sim_; }

  sim::Counter& packets_sent() { return packets_sent_; }
  sim::Counter& packets_received() { return packets_received_; }

 private:
  friend class Connection;

  // Frame types of the low-level protocol.
  static constexpr uint8_t kSyn = 1;
  static constexpr uint8_t kSynAck = 2;
  static constexpr uint8_t kAck = 3;
  static constexpr uint8_t kData = 4;
  static constexpr uint8_t kWindow = 5;
  static constexpr uint8_t kReset = 6;
  static constexpr uint8_t kDatagram = 7;

  /// Sends a protocol frame, charging the CPU budget first. Takes the
  /// payload by value: the kFrameTrailerBytes trailer (wire/messages.h)
  /// is appended in place and the buffer becomes the packet's refcounted
  /// payload without a copy. `trace` and `span` ride along onto the
  /// Packet for the profiler.
  void SendFrame(net::NodeId dst, uint8_t frame_type, uint64_t conn_id,
                 uint64_t seq, uint64_t alloc, Bytes payload,
                 uint64_t trace = 0, uint64_t span = 0);

  void OnNicDeliver(const net::Packet& packet, net::Nic* nic);
  void ProcessPacket(const net::Packet& packet);
  uint64_t NewConnectionId();
  /// A new connection to `peer` under `conn_id`, owned and indexed here.
  Connection* AddConnection(net::NodeId peer, uint64_t conn_id,
                            bool initiator);

  sim::Scheduler* sim_;
  sim::Cpu* cpu_;
  net::NodeId id_;
  WireConfig config_;
  uint64_t incarnation_;  // survives crash (kept in stable storage)
  uint64_t conn_counter_ = 0;
  size_t next_network_ = 0;
  std::vector<std::pair<net::Network*, net::Nic*>> networks_;
  /// Every connection of this life, in the order they were opened. Only
  /// Crash() walks it; a received packet finds its connection in by_id_.
  std::vector<std::unique_ptr<Connection>> connections_;
  ConnectionTable by_id_;
  AcceptHandler accept_handler_;
  DatagramHandler datagram_handler_;
  sim::Counter packets_sent_;
  sim::Counter packets_received_;
};

}  // namespace dlog::wire

#endif  // DLOG_WIRE_CONNECTION_H_
