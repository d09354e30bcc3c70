#ifndef DLOG_SIM_STATS_H_
#define DLOG_SIM_STATS_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "sim/time.h"

namespace dlog::sim {

/// Accumulates scalar samples (latencies, sizes, queue depths) and reports
/// mean / min / max / percentiles. Stores all samples; experiment scales
/// in this repo are small enough that this is simplest and exact.
class Histogram {
 public:
  void Add(double sample) {
    samples_.push_back(sample);
    sorted_ = false;
  }

  size_t count() const { return samples_.size(); }
  double sum() const;
  double Mean() const;
  double Min() const;
  double Max() const;
  /// q in [0,1]; e.g. Percentile(0.5) is the median. Linearly
  /// interpolates between adjacent ranks (so the p50 of {1, 2} is 1.5,
  /// not a nearest-rank pick). Returns 0 when empty.
  double Percentile(double q) const;

  /// Folds `other`'s samples into this histogram (per-node -> cluster
  /// aggregation). Merging a histogram into itself doubles every sample.
  void Merge(const Histogram& other);

  /// "n=… mean=… p50=… p95=… max=…" one-line summary.
  std::string Summary() const;

  void Clear() {
    samples_.clear();
    sorted_ = false;
  }

 private:
  void Sort() const;

  mutable std::vector<double> samples_;
  mutable bool sorted_ = false;
};

/// A log-linear bucketed histogram (HDR style): each power-of-two major
/// bucket is split into 2^kSubBits linear sub-buckets, bounding relative
/// quantile error at 1/2^kSubBits (6.25%) while storing counts only —
/// no samples are retained, so a long run's latency distribution costs a
/// few KB however many values it records. This is what lets windowed
/// telemetry carry per-window quantiles: a window's distribution is the
/// bucket-count delta between two readings, something the exact
/// (sample-retaining) Histogram cannot provide without unbounded memory.
///
/// Values are non-negative integers (callers pick the unit, e.g.
/// microseconds); values above kMaxValue saturate into the top bucket
/// (the exact min/max are tracked separately and quantile readouts clamp
/// to them). Deterministic: bucket counts and quantiles are pure
/// functions of the recorded multiset.
class StreamingHistogram {
 public:
  static constexpr int kSubBits = 4;
  static constexpr uint64_t kSubBuckets = uint64_t{1} << kSubBits;  // 16
  /// ~18 minutes in nanoseconds / ~13 days in microseconds: anything
  /// larger is "off the chart" and saturates.
  static constexpr uint64_t kMaxValue = uint64_t{1} << 40;
  static constexpr size_t kNumBuckets = 593;  // BucketIndex(kMaxValue) + 1

  void Record(uint64_t value, uint64_t count = 1);

  uint64_t count() const { return count_; }
  /// Exact extremes of everything recorded (0 when empty). max() is the
  /// unclamped value even when it saturated the top bucket.
  uint64_t min() const { return count_ == 0 ? 0 : min_; }
  uint64_t max() const { return max_; }

  /// q in [0,1]. Linearly interpolates inside the landing bucket and
  /// clamps to the exact [min, max], so single-sample and saturated-top
  /// readouts are exact. Returns 0 when empty.
  double Percentile(double q) const;

  /// Adds `other`'s counts into this histogram. Self-merge doubles every
  /// count.
  void Merge(const StreamingHistogram& other);

  void Clear();

  /// Bucket counts, dense-indexed; empty until the first Record. The
  /// telemetry collector snapshots these and diffs snapshots to get
  /// per-window distributions.
  const std::vector<uint32_t>& buckets() const { return buckets_; }

  /// Dense-index bounds of the occupied buckets, [bucket_lo, bucket_hi]
  /// inclusive; bucket_lo > bucket_hi when empty. Latency streams occupy
  /// a few dozen of the 593 buckets, so per-window consumers (the
  /// telemetry collector diffs every stream every window) iterate this
  /// range instead of the whole array.
  size_t bucket_lo() const { return bucket_lo_; }
  size_t bucket_hi() const { return bucket_hi_; }

  static size_t BucketIndex(uint64_t value);
  /// Smallest / largest (inclusive) value mapping to bucket `index`.
  static uint64_t BucketLow(size_t index);
  static uint64_t BucketHigh(size_t index);
  /// Quantile over a raw bucket-count vector (e.g. a window delta the
  /// collector computed); `total` must be the sum of counts[0..n).
  /// `start` is a scan hint: counts[0..start) must be all zero.
  static double PercentileFromCounts(const uint32_t* counts, size_t n,
                                     uint64_t total, double q,
                                     size_t start = 0);

 private:
  std::vector<uint32_t> buckets_;  // lazily sized to kNumBuckets
  uint64_t count_ = 0;
  uint64_t min_ = 0;
  uint64_t max_ = 0;
  size_t bucket_lo_ = kNumBuckets;  // empty: lo > hi
  size_t bucket_hi_ = 0;
};

/// A monotonically increasing event counter with a named meaning
/// (messages sent, records written, ...). Increments are relaxed
/// atomics. Reads are meaningful while the engine is quiescent.
class Counter {
 public:
  void Increment(uint64_t by = 1) {
    value_.fetch_add(by, std::memory_order_relaxed);
  }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

/// An instantaneous level that moves both ways (queue depth, buffered
/// bytes, ring slots in use). Unlike Counter it is signed and settable,
/// and it tracks the high-water mark.
class Gauge {
 public:
  void Set(int64_t value) {
    value_ = value;
    max_ = std::max(max_, value);
  }
  void Add(int64_t delta) { Set(value_ + delta); }
  int64_t value() const { return value_; }
  int64_t max() const { return max_; }
  void Reset() {
    value_ = 0;
    max_ = 0;
  }

 private:
  int64_t value_ = 0;
  int64_t max_ = 0;
};

/// A gauge whose mean is weighted by how long each level was held —
/// the right average for occupancies and utilizations (a buffer that sat
/// 99% full for 9 s and empty for 1 s averages 0.891, not the 0.495 a
/// plain sample mean of the two levels would report). Callers pass the
/// simulated clock explicitly so the stats layer stays time-source
/// agnostic.
class TimeWeightedGauge {
 public:
  /// Records a level change at time `now` (must be >= the previous call's
  /// time; equal times simply replace the level).
  void Set(Time now, double value) {
    if (started_) {
      weighted_sum_ += value_ * static_cast<double>(now - last_change_);
    } else {
      started_ = true;
      start_ = now;
    }
    last_change_ = now;
    value_ = value;
    max_ = std::max(max_, value);
  }

  double value() const { return value_; }
  double max() const { return max_; }

  /// Time-weighted mean level over [first Set, now]. Returns the current
  /// level when no time has elapsed, 0 before any Set.
  double Average(Time now) const {
    if (!started_) return 0.0;
    const double elapsed = static_cast<double>(now - start_);
    if (elapsed <= 0) return value_;
    const double sum =
        weighted_sum_ + value_ * static_cast<double>(now - last_change_);
    return sum / elapsed;
  }

  void Reset(Time now) {
    started_ = true;
    start_ = now;
    last_change_ = now;
    weighted_sum_ = 0;
    max_ = value_;
  }

 private:
  bool started_ = false;
  Time start_ = 0;
  Time last_change_ = 0;
  double value_ = 0;
  double max_ = 0;
  double weighted_sum_ = 0;
};

}  // namespace dlog::sim

#endif  // DLOG_SIM_STATS_H_
