#include "obs/text.h"

#include <cinttypes>
#include <cstdarg>
#include <cstdio>

namespace dlog::obs {
namespace {

// Measures, then writes in place: no length limit.
void AppendV(std::string* out, const char* fmt, va_list ap) {
  va_list measure;
  va_copy(measure, ap);
  const int n = std::vsnprintf(nullptr, 0, fmt, measure);
  va_end(measure);
  if (n <= 0) return;
  const size_t at = out->size();
  out->resize(at + static_cast<size_t>(n));
  // The terminator lands on the one std::string keeps past size().
  std::vsnprintf(out->data() + at, static_cast<size_t>(n) + 1, fmt, ap);
}

}  // namespace

std::string Format(const char* fmt, ...) {
  std::string out;
  va_list ap;
  va_start(ap, fmt);
  AppendV(&out, fmt, ap);
  va_end(ap);
  return out;
}

void AppendF(std::string* out, const char* fmt, ...) {
  va_list ap;
  va_start(ap, fmt);
  AppendV(out, fmt, ap);
  va_end(ap);
}

void AppendMicros(std::string* out, sim::Time t) {
  AppendF(out, "%" PRIu64 ".%03u", t / 1000,
          static_cast<unsigned>(t % 1000));
}

void JsonQuote(std::string* out, std::string_view s) {
  out->push_back('"');
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out->push_back('\\');
      out->push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      AppendF(out, "\\u%04x", static_cast<unsigned>(c));
    } else {
      out->push_back(c);
    }
  }
  out->push_back('"');
}

}  // namespace dlog::obs
