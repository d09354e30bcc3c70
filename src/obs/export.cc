#include "obs/export.h"

#include <cinttypes>
#include <cstdarg>
#include <cstdio>
#include <map>

namespace dlog::obs {
namespace {

void AppendF(std::string* out, const char* fmt, ...)
    __attribute__((format(printf, 2, 3)));

void AppendF(std::string* out, const char* fmt, ...) {
  char buf[256];
  va_list ap;
  va_start(ap, fmt);
  std::vsnprintf(buf, sizeof(buf), fmt, ap);
  va_end(ap);
  *out += buf;
}

/// Microsecond timestamps with three decimals keep the full nanosecond
/// resolution of the simulator while matching the trace-event convention
/// (ts/dur are in microseconds).
void AppendMicros(std::string* out, sim::Time t) {
  AppendF(out, "%" PRIu64 ".%03u", t / 1000,
          static_cast<unsigned>(t % 1000));
}

/// Span names/nodes contain no JSON-special characters by construction,
/// but escape defensively so a future name cannot corrupt the export.
std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}

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

  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  AppendF(&out,
          "{\"ph\":\"M\",\"pid\":1,\"tid\":0,\"name\":\"thread_name\","
          "\"args\":{\"name\":\"critical-path\"}}");
  for (const auto& [node, tid] : tids) {
    out += ",";
    AppendF(&out,
            "{\"ph\":\"M\",\"pid\":1,\"tid\":%d,\"name\":\"thread_name\","
            "\"args\":{\"name\":\"%s\"}}",
            tid, JsonEscape(node).c_str());
  }
  for (const Span& span : tracer.spans()) {
    const sim::Time end = span.open ? span.start : span.end;
    out += ",";
    AppendF(&out,
            "{\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"name\":\"%s\","
            "\"cname\":\"%s\",\"ts\":",
            tids[span.node], JsonEscape(span.name).c_str(),
            ColorFor(span.name));
    AppendMicros(&out, span.start);
    out += ",\"dur\":";
    AppendMicros(&out, end - span.start);
    AppendF(&out,
            ",\"cat\":\"dlog\",\"args\":{\"trace\":%" PRIu64
            ",\"span\":%" PRIu64 ",\"parent\":%" PRIu64,
            span.trace, span.id, span.parent);
    if (span.open) out += ",\"open\":1";
    for (const auto& [key, value] : span.args) {
      AppendF(&out, ",\"%s\":%" PRIu64, JsonEscape(key).c_str(), value);
    }
    out += "}}";
  }
  // The gating chain, re-emitted contiguously in its own lane.
  for (const CriticalPath& path : paths) {
    for (const PathStep& step : path.steps) {
      out += ",";
      AppendF(&out,
              "{\"ph\":\"X\",\"pid\":1,\"tid\":0,\"name\":\"%s\","
              "\"cname\":\"%s\",\"ts\":",
              JsonEscape(step.name).c_str(), ColorFor(step.name));
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
