#ifndef DLOG_FLOW_ADMISSION_H_
#define DLOG_FLOW_ADMISSION_H_

#include <string>

#include "common/status.h"
#include "obs/metrics.h"
#include "sim/stats.h"
#include "sim/time.h"

namespace dlog::flow {

/// Admission-control policy for one log server. Section 4.2 of the paper
/// licenses servers to "ignore ForceLog and WriteLog messages if they
/// become too heavily loaded"; with `enabled` the refusal is explicit (an
/// Overloaded wire reply carrying an advisory retry-after hint) so clients
/// back off instead of resending into the collapse. With `enabled` false
/// the controller reproduces the legacy vestigial behavior: shed silently
/// on the NVRAM-occupancy threshold alone. Either way, new WriteLog /
/// ForceLog batches are rejected while the NVRAM group buffer is more
/// than 95% full.
struct AdmissionConfig {
  bool enabled = true;
  /// Bounds for the advisory retry-after hint. The hint scales linearly
  /// with how far past the 95% threshold the NVRAM occupancy sits, so
  /// deeper overload pushes clients further away. Deterministic: any
  /// jitter is the client's job (per-client Rng streams).
  sim::Duration min_retry_after = 20 * sim::kMillisecond;
  sim::Duration max_retry_after = 1 * sim::kSecond;

  Status Validate() const;
};

class AdmissionController {
 public:
  struct Decision {
    bool admit = true;
    /// Advisory backoff hint carried in the Overloaded reply; zero when
    /// the batch is admitted.
    sim::Duration retry_after = 0;
  };

  explicit AdmissionController(const AdmissionConfig& config)
      : config_(config) {}

  /// Decides one arriving record batch given the current NVRAM occupancy
  /// in [0, 1]. Counts the outcome.
  Decision Admit(double nvram_fraction);

  /// Registers admitted/shed/overload-reply counters under `prefix`
  /// (e.g. "server-3/flow/").
  void RegisterMetrics(obs::MetricsRegistry* registry,
                       const std::string& prefix) const;

  sim::Counter& admitted() { return admitted_; }
  sim::Counter& shed() { return shed_; }
  /// Incremented by the owner when an Overloaded reply is actually sent
  /// (sheds with admission disabled stay silent).
  sim::Counter& overload_replies() { return overload_replies_; }

 private:
  AdmissionConfig config_;
  sim::Counter admitted_;
  sim::Counter shed_;
  sim::Counter overload_replies_;
};

}  // namespace dlog::flow

#endif  // DLOG_FLOW_ADMISSION_H_
