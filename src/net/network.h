#ifndef DLOG_NET_NETWORK_H_
#define DLOG_NET_NETWORK_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "net/packet.h"
#include "sim/scheduler.h"
#include "sim/stats.h"
#include "sim/time.h"

namespace dlog::sim {
class TickSequencer;
}  // namespace dlog::sim

namespace dlog::net {

class Nic;

/// Configuration of one simulated local-area network (Section 2: a high
/// speed LAN; Section 4.1 assumes ~10 megabits/second Ethernet-class
/// media, possibly upgraded to ~100 Mbit fiber).
struct NetworkConfig {
  double bandwidth_bits_per_sec = 10e6;   // 10 Mbit/s Ethernet class
  sim::Duration propagation_delay = 50 * sim::kMicrosecond;
  double loss_probability = 0.0;          // per-delivery independent loss
  double duplicate_probability = 0.0;     // per-delivery duplication
  size_t header_bytes = 32;               // link + protocol header overhead
  size_t mtu_bytes = 1500;                // maximum payload size
  uint64_t seed = 1;                      // drives loss/duplication draws

  /// OK iff the configuration describes a usable network (positive
  /// bandwidth, nonzero MTU, probabilities in [0, 1], ...).
  Status Validate() const;
};

/// Degradation applied to one directed src->dst link while a fault is
/// injected (chaos::FaultType::kLinkDegrade): extra independent loss on
/// top of NetworkConfig::loss_probability, and extra one-way latency.
struct LinkFault {
  double extra_loss = 0.0;
  sim::Duration extra_latency = 0;
};

/// A shared-medium local network: one transmission at a time (like an
/// Ethernet segment), so aggregate offered load beyond the bandwidth
/// queues senders. Supports unicast and multicast delivery, independent
/// per-delivery loss, and duplication.
///
/// For the paper's dual-network availability configuration, instantiate
/// two Networks and attach each node's two Nics.
class Network {
 public:
  Network(sim::Scheduler* sim, const NetworkConfig& config);

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  /// Sequencing seam. The Network is the one actor every node touches
  /// (shared-medium arbitration, one loss/duplication Rng, the topology
  /// maps), so its mutations decide tie order whenever two nodes act in
  /// the same simulated tick. With a sequencer set (the cluster always
  /// sets one), Send() and the topology mutators capture their arguments
  /// plus the caller's clock and Post them to it, and it replays them at
  /// the end of the tick, ordered by (src node, post order), through the
  /// arbitration code below. With none (standalone Network unit tests),
  /// everything executes inline in call order.
  void SetSequencer(sim::TickSequencer* sequencer) { sequencer_ = sequencer; }

  /// Attaches a NIC under the given address. The address must be unused
  /// and must not be a multicast id.
  void Attach(NodeId id, Nic* nic);
  /// Detaches a NIC (e.g., permanent node removal).
  void Detach(NodeId id);

  /// Adds/removes `member` to the multicast group `group`
  /// (group >= kMulticastBase).
  void JoinGroup(NodeId group, NodeId member);
  void LeaveGroup(NodeId group, NodeId member);

  /// Transmits a packet. The sender queues behind in-progress
  /// transmissions (shared medium); each receiver independently
  /// experiences loss/duplication. Oversized payloads (> mtu) are a
  /// programming error at the wire layer and are dropped with a count.
  void Send(const Packet& packet);

  /// Splits the network: nodes in different groups cannot exchange
  /// packets (delivery is silently filtered, like a failed bridge
  /// between segments). Nodes named in no group share one implicit
  /// extra group. Replaces any previous partition.
  void SetPartition(const std::vector<std::vector<NodeId>>& groups);
  /// Removes the partition: full connectivity again.
  void HealPartition();
  /// Logical partition state as of the last SetPartition/HealPartition
  /// *call* (with a sequencer the filtering itself applies when the
  /// tick's posts drain; callers sequencing set/heal decisions — the
  /// chaos controller — need call-time semantics).
  bool HasPartition() const { return partition_logical_; }
  /// True when a partition is active and separates `a` from `b`.
  bool Partitioned(NodeId a, NodeId b) const;

  /// Installs (or replaces) a fault on the directed link src->dst.
  /// Delivered packets on that link suffer `extra_loss` on top of the
  /// configured loss probability and arrive `extra_latency` later.
  void SetLinkFault(NodeId src, NodeId dst, const LinkFault& fault);
  void ClearLinkFault(NodeId src, NodeId dst);
  void ClearLinkFaults();

  const NetworkConfig& config() const { return config_; }

  /// Medium busy-interval probe: invoked once per accepted transmission
  /// with the interval [tx_start, tx_end) the shared medium is occupied.
  /// Transmissions serialize, so intervals never overlap and arrive in
  /// non-decreasing start order — an exact utilization timeline feed.
  using BusyProbe = std::function<void(sim::Time start, sim::Time end)>;
  void SetBusyProbe(BusyProbe probe) { busy_probe_ = std::move(probe); }

  /// Per-delivery timing record for latency attribution: when the packet
  /// was offered to the medium (enqueue), when its transmission started
  /// and ended on the shared medium, and when this copy reached `dst`
  /// (including propagation and any link-fault latency). `delivered` is
  /// false for copies dropped by loss, partition, or a missing NIC.
  struct PacketTiming {
    uint64_t trace = 0;  // Packet::trace (0 = untraced)
    uint64_t span = 0;   // Packet::span
    NodeId src = 0;
    NodeId dst = 0;
    size_t wire_bytes = 0;
    sim::Time enqueue = 0;
    sim::Time tx_start = 0;
    sim::Time tx_end = 0;
    sim::Time arrival = 0;
    bool delivered = false;
  };
  using PacketProbe = std::function<void(const PacketTiming&)>;
  void SetPacketProbe(PacketProbe probe) {
    packet_probe_ = std::move(probe);
  }

  /// Total payload+header bits accepted for transmission.
  uint64_t bits_sent() const { return bits_sent_; }
  /// Offered-load utilization of the medium since construction.
  double Utilization() const;

  sim::Counter& packets_sent() { return packets_sent_; }
  sim::Counter& packets_delivered() { return packets_delivered_; }
  sim::Counter& packets_lost() { return packets_lost_; }
  sim::Counter& packets_oversized() { return packets_oversized_; }
  sim::Counter& packets_partition_dropped() {
    return packets_partition_dropped_;
  }

 private:
  /// The Send body: shared-medium arbitration at `enqueue` plus fan-out.
  /// Called inline, or replayed by the sequencer.
  void SendNow(const Packet& packet, sim::Time enqueue);
  void DeliverTo(NodeId dst, const Packet& packet, sim::Time arrival,
                 PacketTiming timing);
  /// Runs a shared-state mutation now, or Posts it to the sequencer with
  /// control key 0.
  void Sequenced(sim::Callback fn);

  sim::Scheduler* sim_;
  NetworkConfig config_;
  sim::TickSequencer* sequencer_ = nullptr;
  Rng rng_;
  /// Unicast routing, dense-indexed by NodeId (node ids are small and
  /// contiguous in practice; nullptr = no NIC attached): O(1) lookup on
  /// the per-delivery hot path.
  std::vector<Nic*> node_table_;
  /// Multicast membership as sorted member vectors: group fan-out walks
  /// a contiguous array in the same ascending order as the std::set it
  /// replaces, with no per-send allocation.
  std::map<NodeId, std::vector<NodeId>> groups_;
  /// Partition state: group index per named node; unnamed nodes share
  /// the implicit group -1. `partition_logical_` tracks the call-time
  /// view (see HasPartition); `partition_active_` the applied one.
  bool partition_logical_ = false;
  bool partition_active_ = false;
  std::map<NodeId, int> partition_group_;
  /// Directed-link degradations, keyed src->dst.
  std::map<std::pair<NodeId, NodeId>, LinkFault> link_faults_;
  sim::Time medium_free_at_ = 0;
  uint64_t bits_sent_ = 0;
  sim::Time start_time_ = 0;
  sim::Counter packets_sent_;
  sim::Counter packets_delivered_;
  sim::Counter packets_lost_;
  sim::Counter packets_oversized_;
  sim::Counter packets_partition_dropped_;
  BusyProbe busy_probe_;
  PacketProbe packet_probe_;
};

/// A network interface with a finite receive ring. Section 4.1: "Log
/// servers will frequently encounter back to back requests, and so must
/// have sophisticated network interfaces that can buffer multiple
/// packets." Packets arriving while the ring is full are dropped and
/// counted. The endpoint must call CompleteReceive() when it has finished
/// processing a delivered packet, freeing the ring slot.
class Nic {
 public:
  using Handler = std::function<void(const Packet&)>;

  /// `ring_slots` is the number of packets the interface can buffer.
  Nic(sim::Scheduler* sim, size_t ring_slots);

  Nic(const Nic&) = delete;
  Nic& operator=(const Nic&) = delete;

  /// Installs the receive callback. The callback is responsible for
  /// eventually calling CompleteReceive() exactly once per invocation.
  void SetHandler(Handler handler) { handler_ = std::move(handler); }

  /// Powers the interface on/off. A down NIC drops all traffic; used for
  /// node crash injection.
  void SetUp(bool up);
  bool IsUp() const { return up_; }

  /// Called by Network to hand over an arriving packet.
  void Deliver(const Packet& packet);

  /// Frees one receive-ring slot.
  void CompleteReceive();

  size_t ring_in_use() const { return ring_in_use_; }
  sim::Counter& overflow_drops() { return overflow_drops_; }
  sim::Counter& down_drops() { return down_drops_; }
  sim::Counter& packets_received() { return packets_received_; }

 private:
  sim::Scheduler* sim_;
  size_t ring_slots_;
  size_t ring_in_use_ = 0;
  bool up_ = true;
  Handler handler_;
  sim::Counter overflow_drops_;
  sim::Counter down_drops_;
  sim::Counter packets_received_;
};

}  // namespace dlog::net

#endif  // DLOG_NET_NETWORK_H_
