#include "obs/export.h"

#include <cinttypes>
#include <cstdio>
#include <map>

#include "obs/text.h"

namespace dlog::obs {
namespace {

/// Stable span-name -> Chrome reserved color-name mapping. Unknown names
/// share a neutral color; the mapping is what gives each attribution
/// component its own lane color in the viewer.
const char* ColorFor(const std::string& name) {
  if (name == "txn") return "good";
  if (name == "commit") return "rail_response";
  if (name == "ForceLog") return "thread_state_running";
  if (name == "wal.group") return "rail_animation";
  if (name == "wire.send") return "thread_state_iowait";
  if (name == "track.write") return "rail_load";
  if (name == "nvram.buffer") return "thread_state_runnable";
  if (name == "force.ack") return "cq_build_passed";
  return "generic_work";
}

}  // namespace

std::string ChromeTraceJson(const Tracer& tracer,
                            const std::vector<CriticalPath>& paths) {
  // Stable node -> tid assignment in first-appearance order; tid 0 is
  // the critical-path lane.
  std::map<std::string, int> tids;
  for (const Span& span : tracer.spans()) {
    tids.try_emplace(span.node, static_cast<int>(tids.size()) + 1);
  }

  std::string out =
      "{\"displayTimeUnit\":\"ms\",\"traceEvents\":["
      "{\"ph\":\"M\",\"pid\":1,\"tid\":0,\"name\":\"thread_name\","
      "\"args\":{\"name\":\"critical-path\"}}";
  for (const auto& [node, tid] : tids) {
    AppendF(&out,
            ",{\"ph\":\"M\",\"pid\":1,\"tid\":%d,\"name\":\"thread_name\","
            "\"args\":{\"name\":",
            tid);
    JsonQuote(&out, node);
    out += "}}";
  }
  for (const Span& span : tracer.spans()) {
    const sim::Time end = span.open ? span.start : span.end;
    AppendF(&out, ",{\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"name\":",
            tids[span.node]);
    JsonQuote(&out, span.name);
    AppendF(&out, ",\"cname\":\"%s\",\"ts\":", ColorFor(span.name));
    AppendMicros(&out, span.start);
    out += ",\"dur\":";
    AppendMicros(&out, end - span.start);
    AppendF(&out,
            ",\"cat\":\"dlog\",\"args\":{\"trace\":%" PRIu64
            ",\"span\":%" PRIu64 ",\"parent\":%" PRIu64,
            span.trace, span.id, span.parent);
    if (span.open) out += ",\"open\":1";
    for (const auto& [key, value] : span.args) {
      out += ',';
      JsonQuote(&out, key);
      AppendF(&out, ":%" PRIu64, value);
    }
    out += "}}";
  }
  // The gating chain, re-emitted contiguously in its own lane.
  for (const CriticalPath& path : paths) {
    for (const PathStep& step : path.steps) {
      out += ",{\"ph\":\"X\",\"pid\":1,\"tid\":0,\"name\":";
      JsonQuote(&out, step.name);
      AppendF(&out, ",\"cname\":\"%s\",\"ts\":", ColorFor(step.name));
      AppendMicros(&out, step.start);
      out += ",\"dur\":";
      AppendMicros(&out, step.end - step.start);
      AppendF(&out,
              ",\"cat\":\"dlog.critical\",\"args\":{\"trace\":%" PRIu64
              ",\"span\":%" PRIu64 ",\"self_ns\":%" PRIu64 "}}",
              path.trace, step.span, step.self);
    }
  }
  out += "]}\n";
  return out;
}

Status WriteFile(const std::string& path, const std::string& content) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return Status::Unavailable("cannot open " + path);
  const size_t written = std::fwrite(content.data(), 1, content.size(), f);
  const int close_rc = std::fclose(f);
  if (written != content.size() || close_rc != 0) {
    return Status::Unavailable("short write to " + path);
  }
  return Status::OK();
}

}  // namespace dlog::obs
