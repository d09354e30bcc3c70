#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "common/rng.h"
#include "flow/admission.h"
#include "flow/retry_policy.h"
#include "flow/window.h"
#include "sim/time.h"

namespace dlog::flow {
namespace {

// --- AdmissionController ---

TEST(AdmissionTest, AdmitsBelowThreshold) {
  AdmissionController ctrl(AdmissionConfig{});
  const auto d = ctrl.Admit(/*nvram_fraction=*/0.3);
  EXPECT_TRUE(d.admit);
  EXPECT_EQ(d.retry_after, 0u);
  EXPECT_EQ(ctrl.admitted().value(), 1u);
  EXPECT_EQ(ctrl.shed().value(), 0u);
}

TEST(AdmissionTest, ShedsAboveNvramThreshold) {
  AdmissionConfig cfg;
  AdmissionController ctrl(cfg);
  // The threshold is 95% occupancy: at it a batch is admitted, past it
  // the batch is shed.
  EXPECT_TRUE(ctrl.Admit(0.95).admit);
  const auto d = ctrl.Admit(0.96);
  EXPECT_FALSE(d.admit);
  EXPECT_GE(d.retry_after, cfg.min_retry_after);
  EXPECT_LE(d.retry_after, cfg.max_retry_after);
  EXPECT_EQ(ctrl.shed().value(), 1u);
}

TEST(AdmissionTest, RetryAfterGrowsWithSeverity) {
  AdmissionConfig cfg;
  AdmissionController ctrl(cfg);
  const auto mild = ctrl.Admit(0.955);
  const auto deep = ctrl.Admit(0.99);
  const auto full = ctrl.Admit(1.0);
  ASSERT_FALSE(mild.admit);
  ASSERT_FALSE(deep.admit);
  EXPECT_GT(deep.retry_after, mild.retry_after);
  // A full buffer asks for the longest wait.
  EXPECT_EQ(full.retry_after, cfg.max_retry_after);
}

TEST(AdmissionTest, DisabledModeUsesLegacyNvramDecisionOnly) {
  AdmissionConfig cfg;
  cfg.enabled = false;
  AdmissionController ctrl(cfg);
  // Disabled: the NVRAM threshold still sheds (silently, at the server).
  EXPECT_TRUE(ctrl.Admit(0.9).admit);
  EXPECT_FALSE(ctrl.Admit(0.96).admit);
}

TEST(AdmissionTest, ValidateRejectsBadConfig) {
  AdmissionConfig cfg;
  EXPECT_TRUE(cfg.Validate().ok());
  cfg.min_retry_after = 2 * sim::kSecond;
  cfg.max_retry_after = 1 * sim::kSecond;
  EXPECT_FALSE(cfg.Validate().ok());
}

// --- RetryPolicy ---

TEST(RetryPolicyTest, BackoffGrowsExponentiallyAndCaps) {
  RetryPolicyConfig cfg;
  cfg.initial_backoff = 10 * sim::kMillisecond;
  cfg.max_backoff = 100 * sim::kMillisecond;
  RetryPolicy policy(cfg);
  Rng rng(3);
  // The backoff b doubles per attempt up to the cap (and is safe for huge
  // attempt counts — no overflow); jitter draws each wait from [b/2, b].
  const std::vector<std::pair<int, sim::Duration>> ladder = {
      {0, 10 * sim::kMillisecond},  {1, 20 * sim::kMillisecond},
      {2, 40 * sim::kMillisecond},  {3, 80 * sim::kMillisecond},
      {4, 100 * sim::kMillisecond}, {10, 100 * sim::kMillisecond},
      {1000, 100 * sim::kMillisecond}};
  for (const auto& [attempt, b] : ladder) {
    for (int i = 0; i < 64; ++i) {
      const sim::Duration wait = policy.BackoffFor(attempt, &rng);
      EXPECT_GE(wait, b / 2) << attempt;
      EXPECT_LE(wait, b) << attempt;
    }
  }
}

TEST(RetryPolicyTest, JitterStaysInBoundsAndIsDeterministic) {
  RetryPolicyConfig cfg;
  cfg.initial_backoff = 100 * sim::kMillisecond;
  RetryPolicy policy(cfg);
  Rng a(42), b(42), c(7);
  for (int i = 0; i < 64; ++i) {
    const sim::Duration wa = policy.BackoffFor(0, &a);
    const sim::Duration wb = policy.BackoffFor(0, &b);
    // Same-seeded streams draw the same jitter: byte-identical runs.
    EXPECT_EQ(wa, wb);
    // Bounds: [b/2, b].
    EXPECT_GE(wa, 50 * sim::kMillisecond);
    EXPECT_LE(wa, 100 * sim::kMillisecond);
  }
  // A different stream draws a different sequence (overwhelmingly).
  bool any_diff = false;
  Rng a2(42);
  for (int i = 0; i < 64; ++i) {
    if (policy.BackoffFor(0, &a2) != policy.BackoffFor(0, &c)) {
      any_diff = true;
    }
  }
  EXPECT_TRUE(any_diff);
}

TEST(RetryPolicyTest, TokenBucketBoundsAndRefills) {
  RetryPolicy policy(RetryPolicyConfig{});
  sim::Time now = 0;
  // The bucket starts full: 10 tokens.
  for (int i = 0; i < 10; ++i) EXPECT_TRUE(policy.TryAcquireRetryToken(now));
  EXPECT_FALSE(policy.TryAcquireRetryToken(now));  // budget exhausted
  now += 500 * sim::kMillisecond;                  // refills one token
  EXPECT_TRUE(policy.TryAcquireRetryToken(now));
  EXPECT_FALSE(policy.TryAcquireRetryToken(now));
  now += 1 * sim::kSecond;  // refills two
  EXPECT_TRUE(policy.TryAcquireRetryToken(now));
  EXPECT_TRUE(policy.TryAcquireRetryToken(now));
  EXPECT_FALSE(policy.TryAcquireRetryToken(now));
  // The bucket never exceeds its cap.
  now += 100 * sim::kSecond;
  for (int i = 0; i < 10; ++i) EXPECT_TRUE(policy.TryAcquireRetryToken(now));
  EXPECT_FALSE(policy.TryAcquireRetryToken(now));
}

TEST(RetryPolicyTest, ValidateRejectsBadConfig) {
  RetryPolicyConfig cfg;
  EXPECT_TRUE(cfg.Validate().ok());
  cfg.max_backoff = cfg.initial_backoff / 2;
  EXPECT_FALSE(cfg.Validate().ok());
}

// --- AimdWindow ---

AimdConfig SmallWindow() {
  AimdConfig cfg;
  cfg.enabled = true;
  cfg.min_window_bytes = 1000;
  cfg.initial_window_bytes = 4000;
  cfg.max_window_bytes = 8000;
  cfg.increase_bytes = 500;
  cfg.decrease_factor = 0.5;
  cfg.congestion_guard = 50 * sim::kMillisecond;
  return cfg;
}

TEST(AimdWindowTest, DisabledAlwaysAllows) {
  AimdWindow w{AimdConfig{}};
  EXPECT_TRUE(w.Allows(1u << 30, 1u << 20));
}

TEST(AimdWindowTest, AdditiveIncreaseMultiplicativeDecrease) {
  AimdWindow w(SmallWindow());
  EXPECT_EQ(w.current(), 4000u);
  w.OnAck(1400);
  EXPECT_EQ(w.current(), 4500u);  // additive
  w.OnCongestion(0);
  EXPECT_EQ(w.current(), 2250u);  // multiplicative
  // Growth is clamped at the max.
  for (int i = 0; i < 100; ++i) w.OnAck(1400);
  EXPECT_EQ(w.current(), 8000u);
  // Shrink is clamped at the min.
  sim::Time now = sim::kSecond;
  for (int i = 0; i < 100; ++i) {
    w.OnCongestion(now);
    now += sim::kSecond;
  }
  EXPECT_EQ(w.current(), 1000u);
}

TEST(AimdWindowTest, CongestionGuardCoalescesBursts) {
  AimdWindow w(SmallWindow());
  w.OnCongestion(0);
  EXPECT_EQ(w.current(), 2000u);
  // A burst of congestion signals within the guard counts once.
  w.OnCongestion(10 * sim::kMillisecond);
  w.OnCongestion(20 * sim::kMillisecond);
  EXPECT_EQ(w.current(), 2000u);
  // Past the guard, a fresh signal shrinks again.
  w.OnCongestion(60 * sim::kMillisecond);
  EXPECT_EQ(w.current(), 1000u);
}

TEST(AimdWindowTest, ZeroOutstandingAlwaysAllowed) {
  AimdConfig cfg = SmallWindow();
  AimdWindow w(cfg);
  // Even a payload larger than the whole window may go when nothing is
  // in flight — the window can slow a sender but never deadlock it.
  EXPECT_TRUE(w.Allows(0, 100000));
  EXPECT_FALSE(w.Allows(3900, 200));
  EXPECT_TRUE(w.Allows(3700, 200));
}

TEST(AimdWindowTest, ValidateRejectsBadConfig) {
  AimdConfig cfg = SmallWindow();
  cfg.initial_window_bytes = cfg.max_window_bytes + 1;
  EXPECT_FALSE(cfg.Validate().ok());
  cfg = SmallWindow();
  cfg.decrease_factor = 1.0;
  EXPECT_FALSE(cfg.Validate().ok());
}

}  // namespace
}  // namespace dlog::flow
