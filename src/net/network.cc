#include "net/network.h"

#include <algorithm>
#include <cassert>

#include "sim/simulator.h"

namespace dlog::net {

Status NetworkConfig::Validate() const {
  if (bandwidth_bits_per_sec <= 0) {
    return Status::InvalidArgument("bandwidth_bits_per_sec must be > 0");
  }
  if (loss_probability < 0 || loss_probability > 1) {
    return Status::InvalidArgument("loss_probability must be in [0, 1]");
  }
  if (duplicate_probability < 0 || duplicate_probability > 1) {
    return Status::InvalidArgument(
        "duplicate_probability must be in [0, 1]");
  }
  if (mtu_bytes == 0) {
    return Status::InvalidArgument("mtu_bytes must be > 0");
  }
  return Status::OK();
}

Network::Network(sim::Scheduler* sim, const NetworkConfig& config)
    : sim_(sim), config_(config), rng_(config.seed) {
  DLOG_CHECK_OK(config.Validate());
}

void Network::Sequenced(sim::Callback fn) {
  if (sequencer_ != nullptr) {
    sequencer_->Post(/*key=*/0, std::move(fn));
    return;
  }
  fn();
}

void Network::Attach(NodeId id, Nic* nic) {
  assert(!IsMulticast(id));
  Sequenced([this, id, nic] {
    if (id >= node_table_.size()) node_table_.resize(id + 1, nullptr);
    assert(node_table_[id] == nullptr);
    node_table_[id] = nic;
  });
}

void Network::Detach(NodeId id) {
  Sequenced([this, id] {
    if (id < node_table_.size()) node_table_[id] = nullptr;
  });
}

void Network::JoinGroup(NodeId group, NodeId member) {
  assert(IsMulticast(group));
  Sequenced([this, group, member] {
    std::vector<NodeId>& members = groups_[group];
    auto it = std::lower_bound(members.begin(), members.end(), member);
    if (it == members.end() || *it != member) members.insert(it, member);
  });
}

void Network::LeaveGroup(NodeId group, NodeId member) {
  Sequenced([this, group, member] {
    auto it = groups_.find(group);
    if (it == groups_.end()) return;
    std::vector<NodeId>& members = it->second;
    auto pos = std::lower_bound(members.begin(), members.end(), member);
    if (pos != members.end() && *pos == member) members.erase(pos);
  });
}

void Network::Send(const Packet& packet) {
  if (sequencer_ != nullptr) {
    // Keyed by the source node: equal-time sends replay in ascending
    // node order, so shared-medium tie arbitration is a pure function of
    // simulated state.
    const sim::Time enqueue = sim_->Now();
    sequencer_->Post(static_cast<uint64_t>(packet.src),
                     [this, packet, enqueue] { SendNow(packet, enqueue); });
    return;
  }
  SendNow(packet, sim_->Now());
}

void Network::SendNow(const Packet& packet, sim::Time enqueue) {
  if (packet.payload.size() > config_.mtu_bytes) {
    packets_oversized_.Increment();
    return;
  }
  packets_sent_.Increment();

  const uint64_t bits =
      static_cast<uint64_t>(packet.WireSize(config_.header_bytes)) * 8;
  bits_sent_ += bits;

  // Serialize transmissions on the shared medium.
  const sim::Duration tx_time = sim::SecondsToDuration(
      static_cast<double>(bits) / config_.bandwidth_bits_per_sec);
  const sim::Time tx_start = std::max(enqueue, medium_free_at_);
  medium_free_at_ = tx_start + tx_time;
  const sim::Time arrival = medium_free_at_ + config_.propagation_delay;
  if (busy_probe_) busy_probe_(tx_start, medium_free_at_);

  PacketTiming timing;
  timing.trace = packet.trace;
  timing.span = packet.span;
  timing.src = packet.src;
  timing.wire_bytes = packet.WireSize(config_.header_bytes);
  timing.enqueue = enqueue;
  timing.tx_start = tx_start;
  timing.tx_end = medium_free_at_;

  if (IsMulticast(packet.dst)) {
    auto it = groups_.find(packet.dst);
    if (it == groups_.end()) return;
    for (NodeId member : it->second) {
      if (member == packet.src) continue;
      DeliverTo(member, packet, arrival, timing);
    }
  } else {
    DeliverTo(packet.dst, packet, arrival, timing);
  }
}

void Network::SetPartition(const std::vector<std::vector<NodeId>>& groups) {
  partition_logical_ = true;
  Sequenced([this, groups] {
    partition_group_.clear();
    for (size_t g = 0; g < groups.size(); ++g) {
      for (NodeId node : groups[g]) {
        partition_group_[node] = static_cast<int>(g);
      }
    }
    partition_active_ = true;
  });
}

void Network::HealPartition() {
  partition_logical_ = false;
  Sequenced([this] {
    partition_active_ = false;
    partition_group_.clear();
  });
}

bool Network::Partitioned(NodeId a, NodeId b) const {
  if (!partition_active_) return false;
  auto group_of = [this](NodeId node) {
    auto it = partition_group_.find(node);
    return it == partition_group_.end() ? -1 : it->second;
  };
  return group_of(a) != group_of(b);
}

void Network::SetLinkFault(NodeId src, NodeId dst, const LinkFault& fault) {
  Sequenced([this, src, dst, fault] { link_faults_[{src, dst}] = fault; });
}

void Network::ClearLinkFault(NodeId src, NodeId dst) {
  Sequenced([this, src, dst] { link_faults_.erase({src, dst}); });
}

void Network::ClearLinkFaults() {
  Sequenced([this] { link_faults_.clear(); });
}

void Network::DeliverTo(NodeId dst, const Packet& packet,
                        sim::Time arrival, PacketTiming timing) {
  timing.dst = dst;
  timing.arrival = arrival;
  if (Partitioned(packet.src, dst)) {
    packets_partition_dropped_.Increment();
    if (packet_probe_) packet_probe_(timing);
    return;
  }
  Nic* nic = dst < node_table_.size() ? node_table_[dst] : nullptr;
  if (nic == nullptr) {
    packets_lost_.Increment();
    if (packet_probe_) packet_probe_(timing);
    return;
  }
  if (!link_faults_.empty()) {
    auto fault = link_faults_.find({packet.src, dst});
    if (fault != link_faults_.end()) {
      if (fault->second.extra_loss > 0 &&
          rng_.Bernoulli(fault->second.extra_loss)) {
        packets_lost_.Increment();
        if (packet_probe_) packet_probe_(timing);
        return;
      }
      arrival += fault->second.extra_latency;
      timing.arrival = arrival;
    }
  }
  int copies = 1;
  if (config_.loss_probability > 0 &&
      rng_.Bernoulli(config_.loss_probability)) {
    packets_lost_.Increment();
    copies = 0;
  } else if (config_.duplicate_probability > 0 &&
             rng_.Bernoulli(config_.duplicate_probability)) {
    copies = 2;
  }
  timing.delivered = copies > 0;
  if (packet_probe_) packet_probe_(timing);
  for (int i = 0; i < copies; ++i) {
    // Packet carries a refcounted payload: this capture shares the
    // sender's buffer with every receiver instead of duplicating it.
    packets_delivered_.Increment();
    sim_->At(arrival + static_cast<sim::Duration>(i) * sim::kMicrosecond,
             [nic, packet]() { nic->Deliver(packet); });
  }
}

double Network::Utilization() const {
  const sim::Duration elapsed = sim_->Now() - start_time_;
  if (elapsed == 0) return 0.0;
  const double capacity_bits =
      config_.bandwidth_bits_per_sec * sim::DurationToSeconds(elapsed);
  if (capacity_bits <= 0) return 0.0;
  return static_cast<double>(bits_sent_) / capacity_bits;
}

Nic::Nic(sim::Scheduler* sim, size_t ring_slots)
    : sim_(sim), ring_slots_(ring_slots) {
  assert(ring_slots > 0);
}

void Nic::SetUp(bool up) {
  up_ = up;
  if (!up) ring_in_use_ = 0;  // power cycle clears the ring
}

void Nic::Deliver(const Packet& packet) {
  if (!up_) {
    down_drops_.Increment();
    return;
  }
  if (ring_in_use_ >= ring_slots_) {
    overflow_drops_.Increment();
    return;
  }
  ++ring_in_use_;
  packets_received_.Increment();
  if (handler_) {
    handler_(packet);
  } else {
    CompleteReceive();
  }
}

void Nic::CompleteReceive() {
  if (ring_in_use_ > 0) --ring_in_use_;
}

}  // namespace dlog::net
