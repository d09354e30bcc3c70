#ifndef DLOG_OBS_EXPORT_H_
#define DLOG_OBS_EXPORT_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "obs/critical_path.h"
#include "obs/trace.h"

namespace dlog::obs {

/// Renders the recorded span stream as Chrome trace-event JSON
/// (load in chrome://tracing or https://ui.perfetto.dev). Each simulated
/// node becomes a named thread; spans are complete ("X") events with
/// trace/span/parent ids in args and a stable per-component color
/// ("cname") keyed by the span name. Each critical path in `paths`
/// (obs::ExtractCriticalPaths) is re-emitted as a synthetic
/// "critical-path" lane (tid 0), so the gating chain reads as one
/// contiguous colored row in the viewer; the lane is named even when
/// `paths` is empty. The output is a pure function of its inputs, so a
/// (config, seed) pair exports byte-identical JSON. Spans still open at
/// export time are emitted with zero duration and "open":1 (e.g. a
/// wire.send whose packet the network dropped).
std::string ChromeTraceJson(const Tracer& tracer,
                            const std::vector<CriticalPath>& paths = {});

/// Writes `content` to `path` (0644), overwriting.
Status WriteFile(const std::string& path, const std::string& content);

}  // namespace dlog::obs

#endif  // DLOG_OBS_EXPORT_H_
