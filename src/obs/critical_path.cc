#include "obs/critical_path.h"

#include <cinttypes>
#include <map>
#include <set>

#include "obs/text.h"

namespace dlog::obs {
namespace {

/// Children of each span, in id (creation) order — spans() is already
/// id-ordered, so a single pass builds ordered child lists.
using ChildIndex = std::map<SpanId, std::vector<const Span*>>;

/// The child that determined `parent`'s completion: latest-ending closed
/// child with end <= parent.end (a child that outlived its parent did not
/// gate it). Ties break toward the earlier-created span. Null when no
/// child qualifies (the parent itself is the frontier).
const Span* CriticalChild(const Span& parent, const ChildIndex& children) {
  auto it = children.find(parent.id);
  if (it == children.end()) return nullptr;
  const Span* best = nullptr;
  for (const Span* child : it->second) {
    if (child->open || child->end > parent.end) continue;
    if (best == nullptr || child->end > best->end) best = child;
  }
  return best;
}

}  // namespace

std::vector<CriticalPath> ExtractCriticalPaths(const Tracer& tracer) {
  // Group spans per trace; build child lists.
  std::map<TraceId, std::vector<const Span*>> by_trace;
  ChildIndex children;
  for (const Span& span : tracer.spans()) {
    by_trace[span.trace].push_back(&span);
    if (span.parent != kNoSpan) children[span.parent].push_back(&span);
  }

  std::vector<CriticalPath> paths;
  for (const auto& [trace, spans] : by_trace) {
    for (const Span* root : spans) {
      if (root->parent != kNoSpan || root->open) continue;
      CriticalPath path;
      path.trace = trace;
      path.start = root->start;
      path.end = root->end;

      // Descend along latest-finishing closed children.
      std::set<SpanId> on_path;
      const Span* cur = root;
      while (cur != nullptr) {
        on_path.insert(cur->id);
        const Span* next = CriticalChild(*cur, children);
        PathStep step;
        step.span = cur->id;
        step.name = cur->name;
        step.node = cur->node;
        step.start = cur->start;
        step.end = cur->end;
        step.self = next != nullptr ? cur->end - next->end
                                    : cur->end - cur->start;
        path.steps.push_back(step);
        cur = next;
      }

      // Every other span under this root, with slack against the sibling
      // that carried the path through its parent.
      for (const Span* span : spans) {
        if (span == root || on_path.count(span->id) > 0) continue;
        // Walk up to check membership in this root's subtree.
        const Span* p = span;
        bool under_root = false;
        while (p != nullptr && p->trace == trace && p->parent != kNoSpan) {
          if (p->parent == root->id || on_path.count(p->parent) > 0) {
            under_root = true;
            break;
          }
          p = tracer.Find(p->parent);
        }
        if (!under_root) continue;
        SlackEntry entry;
        entry.span = span->id;
        entry.name = span->name;
        entry.node = span->node;
        if (!span->open) {
          // The walk above found this span's parent in the trace; the
          // end that gated the parent bounds this span's slack.
          const Span& parent = *tracer.Find(span->parent);
          const Span* gate = CriticalChild(parent, children);
          const sim::Time gate_end = gate != nullptr ? gate->end : parent.end;
          entry.slack = gate_end > span->end ? gate_end - span->end : 0;
        }
        path.off_path.push_back(entry);
      }
      paths.push_back(std::move(path));
    }
  }
  return paths;
}

std::string CriticalPathText(const std::vector<CriticalPath>& paths) {
  std::string out;
  for (const CriticalPath& path : paths) {
    AppendF(&out, "trace=%" PRIu64 " [", path.trace);
    AppendMicros(&out, path.start);
    out += "..";
    AppendMicros(&out, path.end);
    out += "]us total=";
    AppendMicros(&out, path.end - path.start);
    out += "us\n";
    for (const PathStep& step : path.steps) {
      AppendF(&out, "  > %-10s %-12s self=", step.node.c_str(),
              step.name.c_str());
      AppendMicros(&out, step.self);
      out += "us [";
      AppendMicros(&out, step.start);
      out += "..";
      AppendMicros(&out, step.end);
      out += "]\n";
    }
    for (const SlackEntry& entry : path.off_path) {
      AppendF(&out, "  ~ %-10s %-12s slack=+", entry.node.c_str(),
              entry.name.c_str());
      AppendMicros(&out, entry.slack);
      out += "us\n";
    }
  }
  return out;
}

}  // namespace dlog::obs
