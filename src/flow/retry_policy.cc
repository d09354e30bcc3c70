#include "flow/retry_policy.h"

#include <algorithm>
#include <cmath>

namespace dlog::flow {

namespace {

/// Growth of the backoff per consecutive shed.
constexpr double kMultiplier = 2.0;
/// Fraction of the backoff randomized: the wait is drawn uniformly from
/// [b * (1 - kJitter), b].
constexpr double kJitter = 0.5;
/// Token-bucket retry budget: a retry spends one token; the bucket holds
/// at most kBudgetTokens and refills at kBudgetRefillPerSec tokens per
/// simulated second.
constexpr double kBudgetTokens = 10.0;
constexpr double kBudgetRefillPerSec = 2.0;

}  // namespace

Status RetryPolicyConfig::Validate() const {
  if (initial_backoff == 0) {
    return Status::InvalidArgument("initial_backoff must be positive");
  }
  if (max_backoff < initial_backoff) {
    return Status::InvalidArgument("max_backoff < initial_backoff");
  }
  return Status::OK();
}

RetryPolicy::RetryPolicy(const RetryPolicyConfig& config)
    : config_(config), tokens_(kBudgetTokens) {}

sim::Duration RetryPolicy::BackoffFor(int attempt, Rng* rng) const {
  // Compute in double so large attempt counts saturate at the cap
  // instead of overflowing.
  const double cap = static_cast<double>(config_.max_backoff);
  double b = static_cast<double>(config_.initial_backoff) *
             std::pow(kMultiplier, std::max(0, attempt));
  b = std::min(b, cap);
  b *= 1.0 - kJitter * rng->NextDouble();
  return std::max<sim::Duration>(1, static_cast<sim::Duration>(b));
}

void RetryPolicy::Refill(sim::Time now) {
  if (now <= last_refill_) return;
  const double elapsed = sim::DurationToSeconds(now - last_refill_);
  tokens_ = std::min(kBudgetTokens, tokens_ + elapsed * kBudgetRefillPerSec);
  last_refill_ = now;
}

bool RetryPolicy::TryAcquireRetryToken(sim::Time now) {
  Refill(now);
  if (tokens_ < 1.0) return false;
  tokens_ -= 1.0;
  return true;
}

}  // namespace dlog::flow
