// Parameterized sweep of the transport under adverse network conditions:
// across loss/duplication rates and burst sizes, every payload that the
// (non-retransmitting) transport delivers arrives exactly once and in
// recognizable form, and RPCs with enough retries always complete.

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <tuple>

#include "net/network.h"
#include "sim/cpu.h"
#include "sim/simulator.h"
#include "wire/connection.h"
#include "wire/messages.h"
#include "wire/rpc.h"

namespace dlog::wire {
namespace {

// The third axis divides the burst: 3,200 / divisor payloads (1,600, 400
// or 100), 100, 25 or 6.25 times the transport's 16-packet window.
class WireSweep
    : public ::testing::TestWithParam<
          std::tuple<double /*loss*/, double /*dup*/, int /*divisor*/>> {};

TEST_P(WireSweep, AtMostOnceDeliveryAndNoDuplicates) {
  const auto [loss, dup, divisor] = GetParam();

  sim::Simulator sim;
  net::NetworkConfig net_cfg;
  net_cfg.loss_probability = loss;
  net_cfg.duplicate_probability = dup;
  net_cfg.seed = 42 + static_cast<uint64_t>(loss * 100) +
                 static_cast<uint64_t>(dup * 10) + divisor;
  net::Network network(&sim, net_cfg);

  sim::Cpu cpu_a(&sim, 100.0), cpu_b(&sim, 100.0);
  net::Nic nic_a(&sim, 64), nic_b(&sim, 64);
  network.Attach(1, &nic_a);
  network.Attach(2, &nic_b);
  Endpoint a(&sim, &cpu_a, 1, WireConfig{});
  Endpoint b(&sim, &cpu_b, 2, WireConfig{});
  a.AttachNetwork(&network, &nic_a);
  b.AttachNetwork(&network, &nic_b);

  std::multiset<std::string> received;
  b.SetAcceptHandler([&](Connection* conn) {
    conn->SetMessageHandler([&](const SharedBytes& payload) {
      received.insert(ToString(payload));
    });
  });

  Connection* conn = a.Connect(2);
  sim.RunFor(10 * sim::kSecond);  // handshake may retry through loss
  if (!conn->IsEstablished()) GTEST_SKIP() << "handshake lost repeatedly";

  const int burst = 3200 / divisor;
  for (int i = 0; i < burst; ++i) {
    conn->Send(ToBytes("msg-" + std::to_string(i)));
  }
  sim.RunFor(120 * sim::kSecond);

  // Exactly-once for everything that survived: no duplicates, and each
  // received payload is one of ours.
  std::set<std::string> unique(received.begin(), received.end());
  EXPECT_EQ(unique.size(), received.size()) << "duplicate delivery";
  for (const std::string& payload : unique) {
    EXPECT_EQ(payload.rfind("msg-", 0), 0u);
  }
  if (loss == 0.0) {
    EXPECT_EQ(received.size(), static_cast<size_t>(burst));
  } else {
    EXPECT_GT(received.size(), static_cast<size_t>(burst) / 4);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, WireSweep,
    ::testing::Combine(::testing::Values(0.0, 0.05, 0.2),  // loss
                       ::testing::Values(0.0, 0.1, 0.5),   // duplication
                       ::testing::Values(2, 8, 32)));      // divisor

class RpcSweep : public ::testing::TestWithParam<double> {};

TEST_P(RpcSweep, CallsCompleteWithEnoughRetries) {
  const double loss = GetParam();
  sim::Simulator sim;
  net::NetworkConfig net_cfg;
  net_cfg.loss_probability = loss;
  net_cfg.seed = 7 + static_cast<uint64_t>(loss * 1000);
  net::Network network(&sim, net_cfg);
  sim::Cpu cpu_a(&sim, 100.0), cpu_b(&sim, 100.0);
  net::Nic nic_a(&sim, 64), nic_b(&sim, 64);
  network.Attach(1, &nic_a);
  network.Attach(2, &nic_b);
  Endpoint a(&sim, &cpu_a, 1, WireConfig{});
  Endpoint b(&sim, &cpu_b, 2, WireConfig{});
  a.AttachNetwork(&network, &nic_a);
  b.AttachNetwork(&network, &nic_b);

  Connection* accepted = nullptr;
  b.SetAcceptHandler([&](Connection* conn) {
    accepted = conn;
    conn->SetMessageHandler([&](const SharedBytes& payload) {
      auto env = DecodeEnvelope(payload);
      if (env.ok() && env->type == MessageType::kIntervalListReq) {
        accepted->Send(Encode(IntervalListResp{}, env->rpc_id));
      }
    });
  });
  Connection* conn = a.Connect(2);
  sim.RunFor(10 * sim::kSecond);
  ASSERT_TRUE(conn->IsEstablished());

  RpcClient rpc(&sim, conn);
  conn->SetMessageHandler([&](const SharedBytes& payload) {
    auto env = DecodeEnvelope(payload);
    if (env.ok()) rpc.HandleResponse(*env);
  });
  RpcClient::CallOptions opts;
  opts.timeout = 200 * sim::kMillisecond;
  opts.max_attempts = 60;
  int completed = 0;
  for (int i = 0; i < 25; ++i) {
    rpc.Call(IntervalListReq{1}, opts, [&](Result<Envelope> env) {
      if (env.ok()) ++completed;
    });
  }
  sim.RunFor(300 * sim::kSecond);
  EXPECT_EQ(completed, 25);
}

INSTANTIATE_TEST_SUITE_P(LossRates, RpcSweep,
                         ::testing::Values(0.0, 0.1, 0.3));

}  // namespace
}  // namespace dlog::wire
