#include "harness/cluster.h"

#include <string>
#include <utility>

#include "common/bytes.h"

namespace dlog::harness {

Status ClusterConfig::Validate() const {
  if (num_servers < 1) {
    return Status::InvalidArgument("num_servers must be >= 1");
  }
  if (num_networks < 1) {
    return Status::InvalidArgument("num_networks must be >= 1");
  }
  DLOG_RETURN_IF_ERROR(telemetry.Validate());
  DLOG_RETURN_IF_ERROR(health.Validate());
  if (health.enabled && !telemetry.enabled) {
    return Status::InvalidArgument(
        "health monitoring reads telemetry windows: set telemetry.enabled");
  }
  DLOG_RETURN_IF_ERROR(network.Validate());
  // The per-server template is validated with its node_id already
  // overwritten, so a zero id in the template is fine.
  DLOG_RETURN_IF_ERROR(server.Validate());
  return Status::OK();
}

Cluster::Cluster(const ClusterConfig& config)
    : config_(config), tracer_(&sim_) {
  DLOG_CHECK_OK(config.Validate());
  tracer_.set_enabled(config.tracing);
  for (int i = 0; i < config.num_networks; ++i) {
    net::NetworkConfig net_cfg = config.network;
    net_cfg.seed = config.seed * 1000 + i;
    networks_.push_back(std::make_unique<net::Network>(&sim_, net_cfg));
    // Same-tick sends arbitrate in (src node, post order), not in
    // heap-insertion order.
    networks_.back()->SetSequencer(&tick_seq_);
    if (config.profiling) {
      net::Network* network = networks_.back().get();
      const std::string name = "net-" + std::to_string(i);
      network->SetBusyProbe([this, name](sim::Time s, sim::Time e) {
        profiler_.RecordBusy(name, s, e);
      });
      network->SetPacketProbe([this](const net::Network::PacketTiming& t) {
        profiler_.RecordPacket({t.trace, t.span, t.src, t.dst,
                                t.wire_bytes, t.enqueue, t.tx_start,
                                t.tx_end, t.arrival, t.delivered});
      });
    }
  }
  for (int i = 0; i < config.num_servers; ++i) {
    server::LogServerConfig server_cfg = config.server;
    server_cfg.node_id = static_cast<net::NodeId>(i + 1);
    auto server = std::make_unique<server::LogServer>(&sim_, server_cfg);
    for (auto& network : networks_) server->AttachNetwork(network.get());
    server->SetTracer(&tracer_);
    server->RegisterMetrics(&metrics_);
    if (config.profiling) {
      // A server's CPU/disk/NVRAM objects survive Crash()/Restart(), so
      // attaching once here covers the node's whole lifetime.
      const std::string name = "server-" + std::to_string(i + 1);
      profiler_.SetNodeName(server_cfg.node_id, name);
      server->cpu().SetBusyProbe([this, name](sim::Time s, sim::Time e) {
        profiler_.RecordBusy(name + "/cpu", s, e);
      });
      server->disk().SetRequestProbe(
          [this, name](const storage::SimDisk::RequestTiming& t) {
            profiler_.RecordDisk(name + "/disk",
                                 {t.track, t.is_write, t.submitted,
                                  t.start, t.seek, t.rotation, t.transfer,
                                  t.end});
          });
      server->nvram_buffer().SetOccupancyProbe([this, name](size_t used) {
        profiler_.RecordLevel(name + "/nvram", sim_.Now(),
                              static_cast<double>(used));
      });
    }
    servers_.push_back(std::move(server));
  }
  chaos_ = std::make_unique<chaos::ChaosController>(&sim_, this);
  chaos_->SetTracer(&tracer_);
  chaos_->RegisterMetrics(&metrics_);
  // The process-wide copy counter, visible in every snapshot/diff instead
  // of needing bespoke plumbing in each bench. Reported relative to
  // cluster construction so identical runs in one process (determinism
  // tests re-running a config) snapshot identical values.
  const uint64_t bytes_copied_base = dlog::BytesCopied();
  metrics_.RegisterCallback("process/bytes_copied", [bytes_copied_base]() {
    return static_cast<double>(dlog::BytesCopied() - bytes_copied_base);
  });
  if (config.flight_recorder) {
    obs::FlightRecorderConfig flight_cfg;
    flight_cfg.ring_spans = config.flight_ring_spans;
    flight_ = std::make_unique<obs::FlightRecorder>(flight_cfg);
    // Ring mode: with tracing off the tracer still routes every
    // completed span into the recorder's bounded rings; with tracing on
    // it feeds both the full span log and the rings.
    tracer_.SetFlightRecorder(flight_.get());
    chaos_->SetFlightRecorder(flight_.get());
  }
  if (config.telemetry.enabled) {
    collector_ =
        std::make_unique<obs::TimeSeriesCollector>(config.telemetry,
                                                   &metrics_);
    if (config.profiling) collector_->AttachProfiler(&profiler_);
    next_sample_ = config.telemetry.interval;
    if (config.health.enabled) {
      health_ = std::make_unique<obs::HealthMonitor>(config.health,
                                                     collector_.get());
      health_->SetTracer(&tracer_);
      for (int i = 1; i <= config.num_servers; ++i) {
        health_->AddServerNode("server-" + std::to_string(i));
      }
      health_->RegisterMetrics(&metrics_);
    }
  }
}

std::vector<net::NodeId> Cluster::server_ids() const {
  std::vector<net::NodeId> ids;
  for (int i = 0; i < static_cast<int>(servers_.size()); ++i) {
    ids.push_back(static_cast<net::NodeId>(i + 1));
  }
  return ids;
}

std::unique_ptr<client::LogClient> Cluster::BuildClient(
    const client::LogClientConfig& config) {
  auto node = std::make_unique<client::LogClient>(&sim_, config);
  for (auto& network : networks_) node->AttachNetwork(network.get());
  node->SetTracer(&tracer_);
  node->RegisterMetrics(&metrics_);
  if (config_.profiling) {
    // Re-attached on every (re)build: a restarted client is a new object
    // with a new CPU, feeding the same per-identity timeline.
    const std::string name =
        "client-" + std::to_string(config.client_id);
    profiler_.SetNodeName(config.node_id, name);
    node->cpu().SetBusyProbe([this, name](sim::Time s, sim::Time e) {
      profiler_.RecordBusy(name + "/cpu", s, e);
    });
  }
  return node;
}

ClientHandle Cluster::AddClient(client::LogClientConfig config) {
  if (config.servers.empty()) config.servers = server_ids();
  if (config.node_id == 1000 || config.node_id == 0) {
    config.node_id = next_client_node_;
  }
  ++next_client_node_;
  DLOG_CHECK_OK(config.Validate());
  ClientSlot slot;
  slot.config = config;
  slot.node = BuildClient(config);
  clients_.push_back(std::move(slot));
  if (health_ != nullptr) {
    health_->AddClientNode("client-" + std::to_string(config.client_id));
  }
  return ClientHandle(this, static_cast<int>(clients_.size()) - 1);
}

void Cluster::CrashClient(int index) {
  clients_[index].node->Crash();
}

void Cluster::RestartClient(int index) {
  ClientSlot& slot = clients_[index];
  // Crash() detaches the NICs; without it the node_id would still be
  // claimed on every network when the replacement attaches.
  if (slot.node->IsUp()) slot.node->Crash();
  // The cluster plays the role of the client's stable-storage incarnation
  // cell (Section 2's per-node stable counter): the replacement must run
  // as a strictly higher incarnation, or its connection ids would collide
  // with connections the servers still hold from the previous life and
  // its handshakes would be answered with stale state.
  slot.config.wire.initial_incarnation = slot.node->wire_incarnation() + 1;
  // The registry holds pointers into the old incarnation's counters;
  // drop them before the node retires, then let the replacement
  // re-register under the same names (its identity is unchanged).
  metrics_.UnregisterPrefix(
      "client-" + std::to_string(slot.config.client_id) + "/log/");
  retired_clients_.push_back(std::move(slot.node));
  slot.node = BuildClient(slot.config);
}

void Cluster::SampleWindow() {
  collector_->Sample(next_sample_);
  if (health_ != nullptr) health_->Evaluate(next_sample_);
  next_sample_ += config_.telemetry.interval;
}

void Cluster::EngineRunUntil(sim::Time t) {
  if (collector_ != nullptr) {
    // Stop at every window edge on the way: RunUntil(edge) runs all
    // events <= edge and leaves the engine quiescent exactly there, so
    // the sampled values are a pure function of the simulated schedule.
    while (next_sample_ <= t) {
      sim_.RunUntil(next_sample_);
      SampleWindow();
    }
  }
  sim_.RunUntil(t);
}

void Cluster::SampleWindowsBeforeStep() {
  if (collector_ == nullptr) return;
  // Keep the per-event Step() loops window-consistent with RunUntil: a
  // window ending at W closes after every event at time <= W has run,
  // so sample only once the next pending event is strictly past W.
  const sim::Time next = sim_.PeekNextTime();
  if (next == sim::Simulator::kNoEvent) return;
  while (next_sample_ < next) {
    sim_.RunUntil(next_sample_);
    SampleWindow();
  }
}

void Cluster::RunFor(sim::Duration d) { EngineRunUntil(Now() + d); }

void Cluster::Run() {
  if (collector_ == nullptr) {
    sim_.Run();
    return;
  }
  // Run to exhaustion, window by window. Sampling stops with the last
  // event: trailing empty windows carry nothing.
  for (;;) {
    const sim::Time next = sim_.PeekNextTime();
    if (next == sim::Simulator::kNoEvent) return;
    EngineRunUntil(std::max(next, next_sample_));
  }
}

bool Cluster::RunUntil(std::function<bool()> fn, sim::Duration timeout) {
  const sim::Time deadline = Now() + timeout;
  if (config_.run_until_quantum <= 0) {
    while (!fn()) {
      if (sim_.Now() >= deadline) return false;
      SampleWindowsBeforeStep();
      if (!sim_.Step()) {
        // Queue drained: the predicate can no longer change.
        return fn();
      }
    }
    return true;
  }
  // Quantized: the predicate is checked on the grid (or at the next
  // event after an idle stretch), so the stop point is a pure function
  // of the simulated schedule and the quantum.
  while (!fn()) {
    if (Now() >= deadline) return false;
    const sim::Time next = sim_.PeekNextTime();
    if (next == sim::Simulator::kNoEvent) return fn();
    EngineRunUntil(std::max(Now() + config_.run_until_quantum, next));
  }
  return true;
}

}  // namespace dlog::harness
