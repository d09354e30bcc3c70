#include "flow/admission.h"

#include <algorithm>

namespace dlog::flow {

Status AdmissionConfig::Validate() const {
  if (min_retry_after > max_retry_after) {
    return Status::InvalidArgument("min_retry_after > max_retry_after");
  }
  return Status::OK();
}

namespace {

/// NVRAM group-buffer occupancy fraction above which new batches are
/// rejected.
constexpr double kNvramShedFraction = 0.95;

}  // namespace

AdmissionController::Decision AdmissionController::Admit(
    double nvram_fraction) {
  Decision decision;
  if (nvram_fraction <= kNvramShedFraction) {
    decision.admit = true;
    admitted_.Increment();
    return decision;
  }
  // How far past the threshold the occupancy sits, normalized to [0, 1].
  const double severity =
      std::min(1.0, (nvram_fraction - kNvramShedFraction) /
                        (1.0 - kNvramShedFraction));
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
