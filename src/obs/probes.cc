#include "obs/probes.h"

#include <cinttypes>
#include <map>
#include <tuple>

#include "obs/text.h"

namespace dlog::obs {
namespace {

bool GetArg(const Span& span, const std::string& key, uint64_t* out) {
  for (const auto& [k, v] : span.args) {
    if (k == key) {
      *out = v;
      return true;
    }
  }
  return false;
}

}  // namespace

std::vector<std::string> CheckForceAckQuorum(const Tracer& tracer,
                                             int quorum) {
  std::vector<std::string> violations;
  // Per trace: force.ack instants from distinct server nodes, in time
  // order (creation order == time order in a DES).
  std::map<TraceId, std::vector<const Span*>> acks;
  for (const Span& span : tracer.spans()) {
    if (span.name == "force.ack") acks[span.trace].push_back(&span);
  }
  for (const Span& span : tracer.spans()) {
    if (span.name != "ForceLog" || span.open) continue;
    int acked = 0;
    std::map<std::string, bool> seen_node;
    auto it = acks.find(span.trace);
    if (it != acks.end()) {
      for (const Span* ack : it->second) {
        if (ack->start <= span.end && !seen_node[ack->node]) {
          seen_node[ack->node] = true;
          ++acked;
        }
      }
    }
    if (acked < quorum) {
      violations.push_back(Format(
          "trace %" PRIu64 ": ForceLog (span %" PRIu64
          ") completed at %" PRIu64 "ns with %d/%d server force acks",
          span.trace, span.id, span.end, acked, quorum));
    }
  }
  return violations;
}

std::vector<std::string> CheckLsnMonotonic(const Tracer& tracer) {
  std::vector<std::string> violations;
  struct Last {
    uint64_t epoch;
    uint64_t lsn;
  };
  std::map<std::pair<std::string, uint64_t>, Last> last;
  for (const Span& span : tracer.spans()) {
    if (span.name != "nvram.buffer") continue;
    uint64_t client = 0, lsn = 0, epoch = 0;
    if (!GetArg(span, "client", &client) || !GetArg(span, "lsn", &lsn) ||
        !GetArg(span, "epoch", &epoch)) {
      violations.push_back(Format("span %" PRIu64
                                  ": nvram.buffer missing "
                                  "client/lsn/epoch args",
                                  span.id));
      continue;
    }
    auto key = std::make_pair(span.node, client);
    auto it = last.find(key);
    if (it != last.end()) {
      const Last& prev = it->second;
      const bool ok = epoch > prev.epoch ||
                      (epoch == prev.epoch && lsn > prev.lsn);
      if (!ok) {
        violations.push_back(Format(
            "%s client %" PRIu64 ": lsn %" PRIu64 " (epoch %" PRIu64
            ") buffered after lsn %" PRIu64 " (epoch %" PRIu64 ")",
            span.node.c_str(), client, lsn, epoch, prev.lsn, prev.epoch));
      }
    }
    last[key] = {epoch, lsn};
  }
  return violations;
}

std::vector<std::string> CheckSpanTreeConnected(const Tracer& tracer) {
  std::vector<std::string> violations;
  for (const Span& span : tracer.spans()) {
    if (span.parent == kNoSpan) continue;
    // Ids are dense creation-order sequence numbers, so an earlier id is
    // a recorded span.
    if (span.parent >= span.id) {
      violations.push_back(Format("span %" PRIu64 " (%s) parent %" PRIu64
                                  " not recorded earlier",
                                  span.id, span.name.c_str(), span.parent));
      continue;
    }
    const Span& parent = *tracer.Find(span.parent);
    if (parent.trace != span.trace) {
      violations.push_back(Format(
          "span %" PRIu64 " (%s, trace %" PRIu64 ") has parent %" PRIu64
          " from trace %" PRIu64,
          span.id, span.name.c_str(), span.trace, span.parent, parent.trace));
    }
  }
  return violations;
}

std::vector<std::string> RunAllProbes(const Tracer& tracer, int quorum) {
  std::vector<std::string> violations = CheckForceAckQuorum(tracer, quorum);
  for (auto& v : CheckLsnMonotonic(tracer)) violations.push_back(std::move(v));
  for (auto& v : CheckSpanTreeConnected(tracer)) {
    violations.push_back(std::move(v));
  }
  return violations;
}

}  // namespace dlog::obs
