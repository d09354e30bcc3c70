#ifndef DLOG_OBS_PROFILER_H_
#define DLOG_OBS_PROFILER_H_

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/stats.h"
#include "sim/time.h"

namespace dlog::obs {

/// Per-delivery packet timing, as reported by the network's packet probe
/// (mirrors net::Network::PacketTiming without the net dependency —
/// obs stays a leaf layer over sim).
struct PacketEvent {
  uint64_t trace = 0;
  uint64_t span = 0;
  uint32_t src = 0;
  uint32_t dst = 0;
  size_t wire_bytes = 0;
  sim::Time enqueue = 0;
  sim::Time tx_start = 0;
  sim::Time tx_end = 0;
  sim::Time arrival = 0;
  bool delivered = false;
};

/// Per-request disk timing, as reported by the disk's request probe
/// (mirrors storage::SimDisk::RequestTiming).
struct DiskEvent {
  uint64_t track = 0;
  bool is_write = false;
  sim::Time submitted = 0;
  sim::Time start = 0;
  sim::Duration seek = 0;
  sim::Duration rotation = 0;
  sim::Duration transfer = 0;
  sim::Time end = 0;
};

/// The named latency components a ForceLog decomposes into, in causal
/// order. Components always sum exactly to the end-to-end duration.
inline const std::vector<std::string>& AttributionComponents() {
  static const std::vector<std::string> kComponents = {
      "client.cpu",  "net.queue",     "net.transmit", "server.cpu",
      "buffer.wait", "rotation.wait", "media.write",  "ack.return"};
  return kComponents;
}

/// The force-latency attribution layer: collects the network's
/// per-delivery packet timings and the disks' request timings during a
/// run, then — against the causal span forest — decomposes each traced
/// ForceLog into named latency components. All inputs arrive in
/// deterministic simulator order, so every derived artifact is
/// byte-identical per (config, seed). Resource utilizations are not kept
/// here: each Cpu, SimDisk and Network keeps its own busy account.
///
/// Wiring (done by harness::Cluster when `tracing` is on):
///   network.SetPacketProbe -> RecordPacket(...)
///   disk.SetRequestProbe   -> RecordDisk("server-2/disk", ...)
class Profiler {
 public:
  Profiler() = default;

  Profiler(const Profiler&) = delete;
  Profiler& operator=(const Profiler&) = delete;

  // --- probe feeds ---
  void RecordPacket(const PacketEvent& event) {
    packets_.push_back(event);
  }
  /// Records one request of `resource`'s disk arm.
  void RecordDisk(const std::string& resource, const DiskEvent& event) {
    disk_events_[resource].push_back(event);
  }

  /// Maps a network node id to its span-node name ("server-2"), so packet
  /// deliveries can be matched to the force.ack instants they produced.
  void SetNodeName(uint32_t id, const std::string& name) {
    node_names_[id] = name;
  }

  // --- latency attribution ---
  struct Attribution {
    TraceId trace = kNoTrace;
    SpanId span = kNoSpan;  // the decomposed ForceLog span
    std::string node;       // issuing client
    sim::Time start = 0;
    sim::Time end = 0;
    /// One entry per AttributionComponents() name, in that order; values
    /// sum exactly to end - start.
    std::vector<std::pair<std::string, sim::Duration>> components;
  };

  /// Decomposes every closed "ForceLog" span in the trace into the named
  /// components by walking its subtree: the critical force.ack instant
  /// identifies the wire.send span and packet delivery that carried the
  /// deciding copy, whose checkpoints (enqueue, tx start, arrival,
  /// processing end, ack) cut [start, end] into ordered segments; the
  /// buffered segment is further split against the server's disk request
  /// timeline (rotation wait / media write) when the ack waited for the
  /// disk. Checkpoints are clamped monotonically, so the pieces always
  /// sum exactly to the span duration.
  std::vector<Attribution> AttributeForces(const Tracer& tracer) const;

  /// Runs AttributeForces and fills per-component latency histograms
  /// (milliseconds), retrievable below or via RegisterMetrics.
  void UpdateAttributionMetrics(const Tracer& tracer);

  /// Per-component histogram ("client.cpu", ...); created on first use.
  sim::Histogram& ComponentHistogram(const std::string& component) {
    return attr_ms_[component];
  }

  /// Registers the per-component histograms under
  /// "profiler/attr/<component>" (ms, filled by UpdateAttributionMetrics).
  void RegisterMetrics(MetricsRegistry* registry);

 private:
  std::map<std::string, std::vector<DiskEvent>> disk_events_;
  std::vector<PacketEvent> packets_;
  std::map<uint32_t, std::string> node_names_;
  std::map<std::string, sim::Histogram> attr_ms_;
};

}  // namespace dlog::obs

#endif  // DLOG_OBS_PROFILER_H_
