#ifndef DLOG_OBS_BENCH_REPORT_H_
#define DLOG_OBS_BENCH_REPORT_H_

#include <map>
#include <string>
#include <vector>

#include "common/status.h"
#include "obs/metrics.h"

namespace dlog::obs {

/// Machine-readable experiment output. One report per experiment
/// (e.g. "E4"); each row is one configuration point with its measured
/// metrics. Serialises to deterministic JSON (sorted keys, numbers as
/// %.6g, valid JSON for every finite double) so the driver can diff
/// reruns and plot without scraping stdout tables.
class BenchReport {
 public:
  explicit BenchReport(std::string experiment) : experiment_(std::move(experiment)) {}

  /// Starts a new row. Subsequent SetConfig/SetMetric calls apply to it.
  void BeginRow();

  /// Configuration coordinates of the current row (e.g. servers=3).
  void SetConfig(const std::string& key, double value);
  void SetConfig(const std::string& key, const std::string& value);

  /// Measured outputs of the current row.
  void SetMetric(const std::string& key, double value);

  /// Copies every value from a snapshot into the current row's metrics,
  /// prefixed (e.g. prefix "final/").
  void AddSnapshot(const std::string& prefix, const MetricsSnapshot& snap);

  size_t rows() const { return rows_.size(); }

  /// Deterministic JSON:
  ///   {"experiment":"E4","rows":[{"config":{...},"metrics":{...}},...]}
  std::string ToJson() const;

  /// Writes ToJson() to `path` (conventionally BENCH_<experiment>.json).
  Status WriteJson(const std::string& path) const;

 private:
  struct Row {
    std::map<std::string, std::string> config_text;
    std::map<std::string, double> config_num;
    std::map<std::string, double> metrics;
  };

  std::string experiment_;
  std::vector<Row> rows_;
};

}  // namespace dlog::obs

#endif  // DLOG_OBS_BENCH_REPORT_H_
