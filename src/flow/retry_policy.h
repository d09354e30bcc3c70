#ifndef DLOG_FLOW_RETRY_POLICY_H_
#define DLOG_FLOW_RETRY_POLICY_H_

#include "common/rng.h"
#include "common/status.h"
#include "sim/time.h"

namespace dlog::flow {

/// Client-side backoff-and-budget policy applied when a server sheds a
/// request (explicit Overloaded reply) or a retry is about to be resent.
/// Backoff is capped jittered exponential, doubling per consecutive shed;
/// the jitter is drawn from the caller's deterministic per-client Rng
/// stream so simulation runs stay byte-identical. A token bucket of 10
/// tokens, refilled at 2 per simulated second, bounds the *rate* of
/// retries so that retries cannot amplify an overload into congestion
/// collapse.
struct RetryPolicyConfig {
  bool enabled = true;
  /// Backoff after the first shed; doubles per consecutive shed up to
  /// `max_backoff`.
  sim::Duration initial_backoff = 50 * sim::kMillisecond;
  sim::Duration max_backoff = 2 * sim::kSecond;

  Status Validate() const;
};

class RetryPolicy {
 public:
  explicit RetryPolicy(const RetryPolicyConfig& config);

  /// Backoff before retry number `attempt` (0-based: attempt 0 is the
  /// first backoff). Jitter comes from `rng`, the owner's deterministic
  /// stream; the result is in [b/2, b] for the capped exponential b.
  sim::Duration BackoffFor(int attempt, Rng* rng) const;

  /// Spends one retry token if the bucket (lazily refilled from sim
  /// time) has one; returns false when the budget is exhausted and the
  /// retry should be suppressed this round.
  bool TryAcquireRetryToken(sim::Time now);

  /// Current token balance (for metrics).
  double tokens() const { return tokens_; }

 private:
  void Refill(sim::Time now);

  RetryPolicyConfig config_;
  double tokens_;
  sim::Time last_refill_ = 0;
};

}  // namespace dlog::flow

#endif  // DLOG_FLOW_RETRY_POLICY_H_
