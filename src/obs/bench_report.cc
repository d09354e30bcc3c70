#include "obs/bench_report.h"

#include "obs/export.h"
#include "obs/text.h"

namespace dlog::obs {

void BenchReport::BeginRow() { rows_.emplace_back(); }

void BenchReport::SetConfig(const std::string& key, double value) {
  if (rows_.empty()) BeginRow();
  rows_.back().config_num[key] = value;
}

void BenchReport::SetConfig(const std::string& key, const std::string& value) {
  if (rows_.empty()) BeginRow();
  rows_.back().config_text[key] = value;
}

void BenchReport::SetMetric(const std::string& key, double value) {
  if (rows_.empty()) BeginRow();
  rows_.back().metrics[key] = value;
}

void BenchReport::AddSnapshot(const std::string& prefix,
                              const MetricsSnapshot& snap) {
  for (const auto& [name, value] : snap.values) {
    SetMetric(prefix + name, value);
  }
}

std::string BenchReport::ToJson() const {
  std::string out = "{\"experiment\":";
  JsonQuote(&out, experiment_);
  out += ",\"rows\":[";
  bool first_row = true;
  for (const Row& row : rows_) {
    if (!first_row) out += ",";
    first_row = false;
    out += "{\"config\":{";
    bool first = true;
    // Text and numeric config keys merged in one sorted object; the two
    // maps are disjoint by convention (a key is either a label or a knob).
    auto text_it = row.config_text.begin();
    auto num_it = row.config_num.begin();
    while (text_it != row.config_text.end() || num_it != row.config_num.end()) {
      const bool take_text =
          num_it == row.config_num.end() ||
          (text_it != row.config_text.end() && text_it->first < num_it->first);
      if (!first) out += ",";
      first = false;
      if (take_text) {
        JsonQuote(&out, text_it->first);
        out += ":";
        JsonQuote(&out, text_it->second);
        ++text_it;
      } else {
        JsonQuote(&out, num_it->first);
        AppendF(&out, ":%.6g", num_it->second);
        ++num_it;
      }
    }
    out += "},\"metrics\":{";
    first = true;
    for (const auto& [key, value] : row.metrics) {
      if (!first) out += ",";
      first = false;
      JsonQuote(&out, key);
      AppendF(&out, ":%.6g", value);
    }
    out += "}}";
  }
  out += "]}\n";
  return out;
}

Status BenchReport::WriteJson(const std::string& path) const {
  return WriteFile(path, ToJson());
}

}  // namespace dlog::obs
