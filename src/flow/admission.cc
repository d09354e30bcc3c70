#include "flow/admission.h"

#include <algorithm>

namespace dlog::flow {

Status AdmissionConfig::Validate() const {
  if (nvram_shed_fraction <= 0.0 || nvram_shed_fraction > 1.0) {
    return Status::InvalidArgument("nvram_shed_fraction must be in (0, 1]");
  }
  if (min_retry_after > max_retry_after) {
    return Status::InvalidArgument("min_retry_after > max_retry_after");
  }
  return Status::OK();
}

namespace {

// How far past `threshold` the signal sits, normalized to [0, 1].
double Severity(double value, double threshold, double full_scale) {
  if (value <= threshold) return 0.0;
  if (full_scale <= threshold) return 1.0;
  return std::min(1.0, (value - threshold) / (full_scale - threshold));
}

}  // namespace

AdmissionController::Decision AdmissionController::Admit(
    double nvram_fraction) {
  Decision decision;
  if (nvram_fraction <= config_.nvram_shed_fraction) {
    decision.admit = true;
    admitted_.Increment();
    return decision;
  }
  const double severity =
      Severity(nvram_fraction, config_.nvram_shed_fraction, 1.0);
  decision.admit = false;
  decision.retry_after =
      config_.min_retry_after +
      static_cast<sim::Duration>(
          severity * static_cast<double>(config_.max_retry_after -
                                         config_.min_retry_after));
  shed_.Increment();
  return decision;
}

void AdmissionController::RegisterMetrics(obs::MetricsRegistry* registry,
                                          const std::string& prefix) const {
  registry->RegisterCounter(prefix + "admitted", &admitted_);
  registry->RegisterCounter(prefix + "shed", &shed_);
  registry->RegisterCounter(prefix + "overload_replies", &overload_replies_);
}

}  // namespace dlog::flow
