#ifndef DLOG_HARNESS_CLUSTER_H_
#define DLOG_HARNESS_CLUSTER_H_

#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "chaos/controller.h"
#include "chaos/targets.h"
#include "client/log_client.h"
#include "common/status.h"
#include "net/network.h"
#include "obs/flight.h"
#include "obs/health.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "obs/timeseries.h"
#include "obs/trace.h"
#include "server/log_server.h"
#include "sim/scheduler.h"
#include "sim/simulator.h"

namespace dlog::harness {

class Cluster;

/// A stable reference to a Cluster-owned client. Copyable and cheap; it
/// resolves through the Cluster on every use, so it stays valid across
/// CrashClient/RestartClient (which replace the underlying LogClient
/// object while preserving its identity). Dereferencing a handle whose
/// client is crashed returns the dead node: calls on it fail the way
/// calls into a powered-off machine do.
class ClientHandle {
 public:
  ClientHandle() = default;

  client::LogClient& operator*() const;
  client::LogClient* operator->() const;
  client::LogClient* get() const;
  explicit operator bool() const { return cluster_ != nullptr; }

  /// AddClient order, 0-based: the id chaos::FaultPlan client events use.
  int index() const { return index_; }

 private:
  friend class Cluster;
  ClientHandle(Cluster* cluster, int index)
      : cluster_(cluster), index_(index) {}

  Cluster* cluster_ = nullptr;
  int index_ = 0;
};

/// Configuration for a simulated deployment: M log servers on one or two
/// local networks, plus any number of client nodes created afterwards.
struct ClusterConfig {
  int num_servers = 3;
  /// Two networks reproduce the paper's dual-LAN availability setup.
  int num_networks = 1;
  net::NetworkConfig network;
  /// Template applied to every server (node_id is overwritten).
  server::LogServerConfig server;
  /// When true the cluster-wide tracer records causal spans (txn →
  /// wal.group → wire.send → nvram.buffer/track.write/force.ack) for
  /// every traced operation; export with obs::ChromeTraceJson. Off by
  /// default: bulk experiments should not accumulate span memory.
  bool tracing = false;
  /// When true the cluster wires every resource's probe hooks (CPUs,
  /// LANs, disk arms, NVRAM buffers, per-packet timing) into an owned
  /// obs::Profiler: exact utilization timelines plus — combined with
  /// `tracing` — per-component ForceLog latency attribution and
  /// critical-path extraction. Off by default for the same reason as
  /// tracing.
  bool profiling = false;
  uint64_t seed = 1;
  /// RunUntil(predicate) polling grid. 0 (default) checks the predicate
  /// after every event. > 0 checks it only every this much simulated
  /// time (or at the next event after an idle stretch), which is
  /// cheaper for predicates that walk a whole fleet. A run's stop points
  /// depend on the grid: E10 polls every 50 us and E17/E18 every 1 ms,
  /// and their committed outputs were recorded on those grids.
  sim::Duration run_until_quantum = 0;
  /// Live windowed telemetry (obs::TimeSeriesCollector). When enabled
  /// the cluster samples every registered metric on the telemetry
  /// interval grid, at quiescent points, so the series are a pure
  /// function of the simulated schedule — byte-identical across reruns.
  obs::TimeSeriesConfig telemetry;
  /// Online health rules evaluated over the telemetry windows (requires
  /// `telemetry.enabled`).
  obs::HealthConfig health;
  /// Crash flight recorder: the tracer routes every completed span into
  /// bounded per-node rings (even with `tracing` off — ring mode keeps
  /// no unbounded state), and chaos crash faults dump the victim's ring
  /// for post-mortem.
  bool flight_recorder = false;
  /// Spans retained per node ring when `flight_recorder` is set.
  size_t flight_ring_spans = 256;

  /// OK iff the deployment is constructible (at least one server and
  /// network, valid server/network templates, consistent telemetry and
  /// health options).
  Status Validate() const;
};

/// Owns a Simulator, the networks, the log server nodes, the client
/// nodes, and a chaos::ChaosController for one experiment. Server node
/// ids are 1..M; client node ids start at 1000.
///
/// Clients are owned by the cluster: AddClient returns a ClientHandle,
/// and CrashClient/RestartClient cycle the node while preserving its
/// client_id, node_id, and metric registrations — the lifecycle
/// chaos::FaultPlan client events drive.
class Cluster : public chaos::FaultTargets {
 public:
  explicit Cluster(const ClusterConfig& config);

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  /// The simulator every node of the cluster schedules on.
  sim::Simulator& sim() { return sim_; }

  /// Clock and run controls. With telemetry enabled, RunFor/Run/RunUntil
  /// all stop at every telemetry window edge to sample, so series and
  /// alerts accumulate live however the experiment drives the clock.
  sim::Time Now() const { return sim_.Now(); }
  void RunFor(sim::Duration d);
  void Run();

  /// The scheduler the client at AddClient index `index` runs on (the
  /// cluster's simulator): where components built outside the cluster
  /// for that node (drivers, probes) schedule their events.
  sim::Scheduler& client_scheduler(int /*index*/) { return sim_; }

  net::Network& network(int i = 0) override { return *networks_[i]; }
  int num_networks() const override {
    return static_cast<int>(networks_.size());
  }

  /// The cluster-wide causal tracer (recording only when
  /// ClusterConfig::tracing is set) and the unified metrics registry.
  /// Servers, clients, and the chaos controller register their metrics
  /// here for their whole lifetime.
  obs::Tracer& tracer() { return tracer_; }
  obs::MetricsRegistry& metrics() { return metrics_; }
  /// The resource profiler (collecting only when ClusterConfig::profiling
  /// is set; empty otherwise).
  obs::Profiler& profiler() { return profiler_; }

  /// The live telemetry collector, health monitor, and flight recorder.
  /// Null unless the matching ClusterConfig knob is enabled.
  obs::TimeSeriesCollector* telemetry() { return collector_.get(); }
  obs::HealthMonitor* health() { return health_.get(); }
  obs::FlightRecorder* flight_recorder() { return flight_.get(); }

  /// Injects scheduled or Markov-sampled faults into this cluster.
  chaos::ChaosController& chaos() { return *chaos_; }

  /// 1-based server access matching the paper's figures.
  server::LogServer& server(int id) { return *servers_[id - 1]; }
  int num_servers() const override {
    return static_cast<int>(servers_.size());
  }
  std::vector<net::NodeId> server_ids() const;

  /// Creates a cluster-owned client attached to every network.
  /// `config.servers` and `config.node_id` are filled in automatically
  /// (node ids 1000, 1001, ... in creation order) unless already set.
  ClientHandle AddClient(client::LogClientConfig config = {});

  /// The client behind a handle / at an AddClient index.
  client::LogClient& client(const ClientHandle& handle) {
    return client(handle.index());
  }
  client::LogClient& client(int index) { return *clients_[index].node; }
  int num_clients() const override {
    return static_cast<int>(clients_.size());
  }

  /// Crashes the client: volatile state is lost, its NICs detach. The
  /// handle stays valid but the node is dead until RestartClient.
  void CrashClient(int index) override;
  void CrashClient(const ClientHandle& handle) {
    CrashClient(handle.index());
  }

  /// Reconstructs a crashed client with its original configuration
  /// (same client_id, node_id, seed) and re-registers its metrics.
  /// Callers run Init() on it to re-enter the log (Section 3.1.2).
  void RestartClient(int index) override;
  void RestartClient(const ClientHandle& handle) {
    RestartClient(handle.index());
  }

  // --- chaos::FaultTargets (server/client state for the controller) ---
  bool ServerUp(int server) const override {
    return servers_[server - 1]->IsUp();
  }
  void CrashServer(int server) override { servers_[server - 1]->Crash(); }
  void RestartServer(int server) override {
    servers_[server - 1]->Restart();
  }
  void FailServerDisk(int server) override {
    servers_[server - 1]->FailDisk();
  }
  void LoseServerNvram(int server) override {
    servers_[server - 1]->LoseNvram();
  }
  bool ClientUp(int index) const override {
    return clients_[index].node != nullptr && clients_[index].node->IsUp();
  }
  std::string ClientNodeName(int index) const override {
    return "client-" + std::to_string(clients_[index].config.client_id);
  }

  /// Runs the simulation until `fn` returns true or `timeout` elapses;
  /// returns whether the predicate held. With run_until_quantum == 0 the
  /// predicate is checked after every event; with a quantum, on that
  /// simulated-time grid.
  bool RunUntil(std::function<bool()> fn,
                sim::Duration timeout = 30 * sim::kSecond);

 private:
  struct ClientSlot {
    /// The fully resolved configuration (servers + node_id filled), kept
    /// so RestartClient reconstructs an identical node.
    client::LogClientConfig config;
    std::unique_ptr<client::LogClient> node;
  };

  /// Builds, wires, and registers a LogClient from a resolved config.
  std::unique_ptr<client::LogClient> BuildClient(
      const client::LogClientConfig& config);
  /// Advances the simulation to `t`, sampling every telemetry window
  /// whose edge is <= t at its exact edge (quiescent) on the way.
  void EngineRunUntil(sim::Time t);
  /// Samples the telemetry window ending at next_sample_ and evaluates
  /// the health rules over it. Pre: the engine is quiescent at
  /// Now() == next_sample_.
  void SampleWindow();
  /// Per-event Step() loops (run_until_quantum == 0): closes every
  /// window strictly before the next pending event.
  void SampleWindowsBeforeStep();

  ClusterConfig config_;
  /// Declared before everything that schedules on it.
  sim::Simulator sim_;
  /// Sequencer for shared-actor mutations (the networks): drains
  /// same-tick posts in (src node, post order), so tie arbitration is a
  /// pure function of simulated state.
  sim::TickSequencer tick_seq_{&sim_};
  /// Declared before the nodes that hold pointers into them.
  obs::Tracer tracer_;
  obs::MetricsRegistry metrics_;
  obs::Profiler profiler_;
  std::vector<std::unique_ptr<net::Network>> networks_;
  std::vector<std::unique_ptr<server::LogServer>> servers_;
  std::vector<ClientSlot> clients_;
  /// Crashed incarnations replaced by RestartClient. Events already in
  /// flight to a dead node (a packet on its CPU, a delivery to its NIC)
  /// still run after the restart; keeping the node until the cluster
  /// dies lets them land on a powered-off machine, not on freed memory.
  std::vector<std::unique_ptr<client::LogClient>> retired_clients_;
  std::unique_ptr<chaos::ChaosController> chaos_;
  /// Telemetry stack (see the matching ClusterConfig knobs). The
  /// recorder is declared before the collector/monitor: spans flow into
  /// it from the tracer for the cluster's whole lifetime.
  std::unique_ptr<obs::FlightRecorder> flight_;
  std::unique_ptr<obs::TimeSeriesCollector> collector_;
  std::unique_ptr<obs::HealthMonitor> health_;
  /// End of the next unsampled telemetry window.
  sim::Time next_sample_ = 0;
  net::NodeId next_client_node_ = 1000;
};

inline client::LogClient& ClientHandle::operator*() const {
  return cluster_->client(index_);
}
inline client::LogClient* ClientHandle::operator->() const {
  return &cluster_->client(index_);
}
inline client::LogClient* ClientHandle::get() const {
  return &cluster_->client(index_);
}

}  // namespace dlog::harness

#endif  // DLOG_HARNESS_CLUSTER_H_
