#ifndef DLOG_OBS_TEXT_H_
#define DLOG_OBS_TEXT_H_

#include <string>
#include <string_view>

#include "sim/time.h"

namespace dlog::obs {

// The text helpers every obs writer shares: the Chrome trace, the
// critical-path table, probe messages, flight dumps, series, alerts and
// bench reports. Each number format stays at its call site.

/// printf into a new string, of any length.
std::string Format(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

/// printf appended to `*out`, of any length.
void AppendF(std::string* out, const char* fmt, ...)
    __attribute__((format(printf, 2, 3)));

/// A simulated time in microseconds with three decimals ("1.500" for
/// 1,500 ns): the trace-event unit, at the simulator's full nanosecond
/// resolution.
void AppendMicros(std::string* out, sim::Time t);

/// Appends `s` as a quoted JSON string: `"` and `\` backslash-escaped,
/// control characters written as \u00XX.
void JsonQuote(std::string* out, std::string_view s);

}  // namespace dlog::obs

#endif  // DLOG_OBS_TEXT_H_
