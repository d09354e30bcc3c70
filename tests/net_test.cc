#include <gtest/gtest.h>

#include <vector>

#include "net/network.h"
#include "net/packet.h"
#include "sim/simulator.h"

namespace dlog::net {
namespace {

Packet MakePacket(NodeId src, NodeId dst, size_t payload_size) {
  Packet p;
  p.src = src;
  p.dst = dst;
  p.payload = Bytes(payload_size, 0x42);
  return p;
}

struct TestNode {
  explicit TestNode(sim::Simulator* sim, size_t slots = 8)
      : nic(sim, slots) {
    nic.SetHandler([this](const Packet& p) {
      received.push_back(p);
      nic.CompleteReceive();
    });
  }
  Nic nic;
  std::vector<Packet> received;
};

TEST(NetworkTest, UnicastDelivery) {
  sim::Simulator sim;
  NetworkConfig cfg;
  Network net(&sim, cfg);
  TestNode a(&sim), b(&sim);
  net.Attach(1, &a.nic);
  net.Attach(2, &b.nic);

  net.Send(MakePacket(1, 2, 100));
  sim.Run();
  ASSERT_EQ(b.received.size(), 1u);
  EXPECT_EQ(b.received[0].src, 1u);
  EXPECT_EQ(b.received[0].payload.size(), 100u);
  EXPECT_TRUE(a.received.empty());
}

TEST(NetworkTest, DeliveryLatencyIsTransmitPlusPropagation) {
  sim::Simulator sim;
  NetworkConfig cfg;
  cfg.bandwidth_bits_per_sec = 10e6;
  cfg.propagation_delay = 50 * sim::kMicrosecond;
  cfg.header_bytes = 0;
  Network net(&sim, cfg);
  TestNode a(&sim), b(&sim);
  net.Attach(1, &a.nic);
  net.Attach(2, &b.nic);

  sim::Time arrival = 0;
  b.nic.SetHandler([&](const Packet&) {
    arrival = sim.Now();
    b.nic.CompleteReceive();
  });
  // 1250 bytes = 10000 bits at 10 Mbit/s = 1 ms transmit.
  net.Send(MakePacket(1, 2, 1250));
  sim.Run();
  EXPECT_EQ(arrival, sim::kMillisecond + 50 * sim::kMicrosecond);
}

TEST(NetworkTest, SharedMediumSerializesTransmissions) {
  sim::Simulator sim;
  NetworkConfig cfg;
  cfg.bandwidth_bits_per_sec = 10e6;
  cfg.propagation_delay = 0;
  cfg.header_bytes = 0;
  Network net(&sim, cfg);
  TestNode a(&sim), b(&sim);
  net.Attach(1, &a.nic);
  net.Attach(2, &b.nic);

  std::vector<sim::Time> arrivals;
  b.nic.SetHandler([&](const Packet&) {
    arrivals.push_back(sim.Now());
    b.nic.CompleteReceive();
  });
  net.Send(MakePacket(1, 2, 1250));  // 1 ms each
  net.Send(MakePacket(1, 2, 1250));
  sim.Run();
  ASSERT_EQ(arrivals.size(), 2u);
  EXPECT_EQ(arrivals[0], sim::kMillisecond);
  EXPECT_EQ(arrivals[1], 2 * sim::kMillisecond);  // queued on the medium
}

TEST(NetworkTest, LossIsDeterministicPerSeed) {
  auto run = [](uint64_t seed) {
    sim::Simulator sim;
    NetworkConfig cfg;
    cfg.loss_probability = 0.5;
    cfg.seed = seed;
    Network net(&sim, cfg);
    TestNode a(&sim), b(&sim, 1000);
    net.Attach(1, &a.nic);
    net.Attach(2, &b.nic);
    for (int i = 0; i < 100; ++i) net.Send(MakePacket(1, 2, 10));
    sim.Run();
    return b.received.size();
  };
  const size_t first = run(7);
  EXPECT_EQ(first, run(7));
  EXPECT_GT(first, 20u);
  EXPECT_LT(first, 80u);
}

TEST(NetworkTest, DuplicationDeliversTwice) {
  sim::Simulator sim;
  NetworkConfig cfg;
  cfg.duplicate_probability = 1.0;
  Network net(&sim, cfg);
  TestNode a(&sim), b(&sim);
  net.Attach(1, &a.nic);
  net.Attach(2, &b.nic);
  net.Send(MakePacket(1, 2, 10));
  sim.Run();
  EXPECT_EQ(b.received.size(), 2u);
}

TEST(NetworkTest, MulticastReachesAllMembersExceptSender) {
  sim::Simulator sim;
  Network net(&sim, NetworkConfig{});
  TestNode a(&sim), b(&sim), c(&sim);
  net.Attach(1, &a.nic);
  net.Attach(2, &b.nic);
  net.Attach(3, &c.nic);
  const NodeId group = kMulticastBase + 1;
  net.JoinGroup(group, 1);
  net.JoinGroup(group, 2);
  net.JoinGroup(group, 3);

  net.Send(MakePacket(1, group, 64));
  sim.Run();
  EXPECT_TRUE(a.received.empty());
  EXPECT_EQ(b.received.size(), 1u);
  EXPECT_EQ(c.received.size(), 1u);
  // One transmission on the medium regardless of group size.
  EXPECT_EQ(net.packets_sent().value(), 1u);
  EXPECT_EQ(net.packets_delivered().value(), 2u);
}

TEST(NetworkTest, UnknownDestinationCountsAsLost) {
  sim::Simulator sim;
  Network net(&sim, NetworkConfig{});
  TestNode a(&sim);
  net.Attach(1, &a.nic);
  net.Send(MakePacket(1, 99, 10));
  sim.Run();
  EXPECT_EQ(net.packets_lost().value(), 1u);
}

TEST(NetworkTest, OversizedPayloadDropped) {
  sim::Simulator sim;
  NetworkConfig cfg;
  cfg.mtu_bytes = 100;
  Network net(&sim, cfg);
  TestNode a(&sim), b(&sim);
  net.Attach(1, &a.nic);
  net.Attach(2, &b.nic);
  net.Send(MakePacket(1, 2, 101));
  sim.Run();
  EXPECT_TRUE(b.received.empty());
  EXPECT_EQ(net.packets_oversized().value(), 1u);
}

TEST(NetworkTest, UtilizationAccounting) {
  sim::Simulator sim;
  NetworkConfig cfg;
  cfg.bandwidth_bits_per_sec = 10e6;
  cfg.propagation_delay = 0;
  cfg.header_bytes = 0;
  Network net(&sim, cfg);
  TestNode a(&sim), b(&sim);
  net.Attach(1, &a.nic);
  net.Attach(2, &b.nic);
  net.Send(MakePacket(1, 2, 1250));  // 1 ms of a 10 Mbit medium
  net.Send(MakePacket(1, 2, 1250));  // queued behind it: [1, 2) ms
  EXPECT_EQ(net.bits_sent(), 2u * 1250 * 8);
  EXPECT_EQ(net.busy_time(), 2 * sim::kMillisecond);
  EXPECT_EQ(net.busy_until(), 2 * sim::kMillisecond);
  sim.RunUntil(1 * sim::kMillisecond);
  EXPECT_EQ(sim::BusyElapsed(net.busy_time(), net.busy_until(), sim.Now()),
            1 * sim::kMillisecond);
  sim.RunUntil(10 * sim::kMillisecond);
  const sim::Duration busy =
      sim::BusyElapsed(net.busy_time(), net.busy_until(), sim.Now());
  EXPECT_EQ(busy, 2 * sim::kMillisecond);
  EXPECT_DOUBLE_EQ(static_cast<double>(busy) / static_cast<double>(sim.Now()),
                   0.2);
}

// --- Nic ---

TEST(NicTest, RingOverflowDropsBackToBackPackets) {
  sim::Simulator sim;
  Network net(&sim, NetworkConfig{});
  TestNode a(&sim);
  net.Attach(1, &a.nic);

  // A slow endpoint that never frees its two ring slots.
  Nic slow(&sim, 2);
  int handled = 0;
  slow.SetHandler([&](const Packet&) { ++handled; /* never completes */ });
  net.Attach(2, &slow);

  for (int i = 0; i < 5; ++i) net.Send(MakePacket(1, 2, 10));
  sim.Run();
  EXPECT_EQ(handled, 2);
  EXPECT_EQ(slow.overflow_drops().value(), 3u);
  EXPECT_EQ(slow.ring_in_use(), 2u);
}

TEST(NicTest, CompleteReceiveFreesSlot) {
  sim::Simulator sim;
  Nic nic(&sim, 1);
  int handled = 0;
  nic.SetHandler([&](const Packet&) {
    ++handled;
    nic.CompleteReceive();
  });
  Packet p = MakePacket(1, 2, 10);
  nic.Deliver(p);
  nic.Deliver(p);
  EXPECT_EQ(handled, 2);
  EXPECT_EQ(nic.overflow_drops().value(), 0u);
}

TEST(NicTest, DownNicDropsEverything) {
  sim::Simulator sim;
  Nic nic(&sim, 4);
  int handled = 0;
  nic.SetHandler([&](const Packet&) {
    ++handled;
    nic.CompleteReceive();
  });
  nic.SetUp(false);
  nic.Deliver(MakePacket(1, 2, 10));
  EXPECT_EQ(handled, 0);
  EXPECT_EQ(nic.down_drops().value(), 1u);
  nic.SetUp(true);
  nic.Deliver(MakePacket(1, 2, 10));
  EXPECT_EQ(handled, 1);
}

// --- Zero-copy payload lifetime ---

TEST(NetworkTest, MulticastFanOutSharesOnePayloadBuffer) {
  sim::Simulator sim;
  NetworkConfig cfg;
  Network net(&sim, cfg);
  TestNode a(&sim), b(&sim), c(&sim);
  net.Attach(1, &a.nic);
  net.Attach(2, &b.nic);
  net.Attach(3, &c.nic);
  const NodeId group = kMulticastBase + 1;
  net.JoinGroup(group, 2);
  net.JoinGroup(group, 3);

  Packet p = MakePacket(1, group, 64);
  net.Send(p);
  sim.Run();
  ASSERT_EQ(b.received.size(), 1u);
  ASSERT_EQ(c.received.size(), 1u);
  // Every receiver's packet aliases the sender's buffer: fan-out to N
  // receivers costs zero payload copies, not N.
  EXPECT_EQ(b.received[0].payload.data(), p.payload.data());
  EXPECT_EQ(c.received[0].payload.data(), p.payload.data());
}

TEST(NetworkTest, ReceivedPayloadOutlivesSenderAndNetwork) {
  SharedBytes survivor;
  {
    sim::Simulator sim;
    NetworkConfig cfg;
    Network net(&sim, cfg);
    TestNode a(&sim), b(&sim);
    net.Attach(1, &a.nic);
    net.Attach(2, &b.nic);
    Packet p;
    p.src = 1;
    p.dst = 2;
    p.payload = ToBytes("keepalive payload");
    net.Send(p);
    p = Packet{};  // sender drops its handle before delivery completes
    sim.Run();
    ASSERT_EQ(b.received.size(), 1u);
    survivor = b.received[0].payload;
  }
  // The refcounted buffer keeps the bytes valid after the network, NICs,
  // and simulator are all destroyed (ASan verifies no use-after-free).
  EXPECT_EQ(survivor.view(), "keepalive payload");
}

}  // namespace
}  // namespace dlog::net
