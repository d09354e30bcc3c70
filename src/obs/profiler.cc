#include "obs/profiler.h"

#include <algorithm>
#include <deque>

namespace dlog::obs {

std::vector<Profiler::Attribution> Profiler::AttributeForces(
    const Tracer& tracer) const {
  const std::vector<Span>& spans = tracer.spans();
  std::map<SpanId, std::vector<const Span*>> children;
  for (const Span& s : spans) {
    if (s.parent != kNoSpan) children[s.parent].push_back(&s);
  }
  std::map<uint64_t, std::vector<const PacketEvent*>> packets_by_span;
  for (const PacketEvent& p : packets_) {
    if (p.span != 0) packets_by_span[p.span].push_back(&p);
  }

  std::vector<Attribution> out;
  for (const Span& force : spans) {
    if (force.name != "ForceLog" || force.open) continue;
    const sim::Time t0 = force.start;
    const sim::Time t1 = force.end;

    // Collect the force's subtree and find the critical (latest) ack
    // that had arrived by the time the force completed.
    const Span* ack = nullptr;
    std::deque<SpanId> frontier = {force.id};
    while (!frontier.empty()) {
      const SpanId id = frontier.front();
      frontier.pop_front();
      auto kids = children.find(id);
      if (kids == children.end()) continue;
      for (const Span* child : kids->second) {
        frontier.push_back(child->id);
        if (child->name != "force.ack" || child->start > t1) continue;
        if (ack == nullptr || child->start > ack->start ||
            (child->start == ack->start && child->id > ack->id)) {
          ack = child;
        }
      }
    }

    // The wire.send span that carried the deciding copy, and its packet
    // delivery to the acking server.
    const Span* send = ack != nullptr ? tracer.Find(ack->parent) : nullptr;
    const PacketEvent* packet = nullptr;
    if (send != nullptr) {
      auto it = packets_by_span.find(send->id);
      if (it != packets_by_span.end()) {
        for (const PacketEvent* p : it->second) {
          if (!p->delivered) continue;
          auto name = node_names_.find(p->dst);
          if (name == node_names_.end() || name->second != ack->node) {
            continue;
          }
          packet = p;  // earliest matching delivery (feed order)
          break;
        }
      }
    }

    // Ordered checkpoints, each clamped into [previous, t1]: the cuts are
    // monotone by construction, so the component durations are
    // non-negative and sum exactly to t1 - t0.
    sim::Time cursor = t0;
    auto clamp = [&cursor, t1](sim::Time t) {
      return std::min(std::max(t, cursor), t1);
    };

    Attribution attr;
    attr.trace = force.trace;
    attr.span = force.id;
    attr.node = force.node;
    attr.start = t0;
    attr.end = t1;
    auto cut = [&attr, &cursor](const std::string& name, sim::Time upto) {
      attr.components.emplace_back(name, upto - cursor);
      cursor = upto;
    };

    const sim::Time c_enqueue = packet ? clamp(packet->enqueue) : cursor;
    cut("client.cpu", c_enqueue);
    const sim::Time c_tx = packet ? clamp(packet->tx_start) : cursor;
    cut("net.queue", c_tx);
    const sim::Time c_arrival = packet ? clamp(packet->arrival) : cursor;
    cut("net.transmit", c_arrival);
    // wire.send closes once the server CPU has processed the batch; an
    // open send span (packet lost) contributes nothing here.
    const sim::Time c_cpu =
        (send != nullptr && !send->open) ? clamp(send->end) : cursor;
    cut("server.cpu", c_cpu);

    const sim::Time c_ack = ack != nullptr ? clamp(ack->start) : cursor;
    // The buffered segment [c_cpu, c_ack] is nonzero when the ack waited
    // for the disk (ack_after_disk ablation or shed/retry paths): split
    // it against the acking server's disk-request timeline.
    sim::Time c_rot = c_ack;   // start of mechanical positioning
    sim::Time c_media = c_ack; // start of the media transfer
    if (ack != nullptr && c_ack > cursor) {
      auto events = disk_events_.find(ack->node + "/disk");
      if (events != disk_events_.end()) {
        const DiskEvent* write = nullptr;
        for (const DiskEvent& ev : events->second) {
          if (!ev.is_write || ev.end > c_ack) continue;
          if (ev.end <= cursor) continue;
          if (write == nullptr || ev.end > write->end) write = &ev;
        }
        if (write != nullptr) {
          c_rot = clamp(write->start);
          c_media = std::min(std::max(write->end - write->transfer, c_rot),
                             c_ack);
        }
      }
    }
    cut("buffer.wait", c_rot);
    cut("rotation.wait", c_media);
    cut("media.write", c_ack);
    cut("ack.return", t1);

    out.push_back(std::move(attr));
  }
  return out;
}

void Profiler::UpdateAttributionMetrics(const Tracer& tracer) {
  for (const std::string& name : AttributionComponents()) {
    attr_ms_[name].Clear();
  }
  attr_ms_["total"].Clear();
  for (const Attribution& attr : AttributeForces(tracer)) {
    for (const auto& [name, duration] : attr.components) {
      attr_ms_[name].Add(static_cast<double>(duration) / 1e6);
    }
    attr_ms_["total"].Add(static_cast<double>(attr.end - attr.start) / 1e6);
  }
}

void Profiler::RegisterMetrics(MetricsRegistry* registry) {
  for (const std::string& name : AttributionComponents()) {
    registry->RegisterHistogram("profiler/attr/" + name, &attr_ms_[name]);
  }
  registry->RegisterHistogram("profiler/attr/total", &attr_ms_["total"]);
}

}  // namespace dlog::obs
