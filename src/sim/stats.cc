#include "sim/stats.h"

#include <cmath>
#include <numeric>

namespace dlog::sim {

void Histogram::Sort() const {
  if (!sorted_) {
    std::sort(samples_.begin(), samples_.end());
    sorted_ = true;
  }
}

double Histogram::sum() const {
  return std::accumulate(samples_.begin(), samples_.end(), 0.0);
}

double Histogram::Mean() const {
  if (samples_.empty()) return 0.0;
  return sum() / static_cast<double>(samples_.size());
}

double Histogram::Min() const {
  if (samples_.empty()) return 0.0;
  Sort();
  return samples_.front();
}

double Histogram::Max() const {
  if (samples_.empty()) return 0.0;
  Sort();
  return samples_.back();
}

double Histogram::Percentile(double q) const {
  if (samples_.empty()) return 0.0;
  Sort();
  if (q <= 0) return samples_.front();
  if (q >= 1) return samples_.back();
  const double pos = q * static_cast<double>(samples_.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const double frac = pos - static_cast<double>(lo);
  if (lo + 1 >= samples_.size()) return samples_.back();
  return samples_[lo] * (1.0 - frac) + samples_[lo + 1] * frac;
}

void Histogram::Merge(const Histogram& other) {
  if (&other == this) {
    // Appending a vector's own range can reallocate out from under the
    // source iterators; copy first so self-merge is well-defined.
    std::vector<double> copy = samples_;
    samples_.insert(samples_.end(), copy.begin(), copy.end());
    sorted_ = false;
    return;
  }
  samples_.insert(samples_.end(), other.samples_.begin(),
                  other.samples_.end());
  sorted_ = false;
}

size_t StreamingHistogram::BucketIndex(uint64_t value) {
  if (value >= kMaxValue) return kNumBuckets - 1;
  if (value < kSubBuckets) return static_cast<size_t>(value);
  // Highest set bit picks the major (power-of-two) bucket; the next
  // kSubBits bits pick the linear sub-bucket inside it.
  int msb = 63;
  while ((value >> msb) == 0) --msb;
  const int shift = msb - kSubBits;
  return (static_cast<size_t>(msb - kSubBits + 1) << kSubBits) +
         static_cast<size_t>((value >> shift) - kSubBuckets);
}

uint64_t StreamingHistogram::BucketLow(size_t index) {
  if (index < kSubBuckets) return index;
  const int msb = static_cast<int>(index >> kSubBits) + kSubBits - 1;
  const int shift = msb - kSubBits;
  const uint64_t sub = index & (kSubBuckets - 1);
  return (kSubBuckets + sub) << shift;
}

uint64_t StreamingHistogram::BucketHigh(size_t index) {
  if (index < kSubBuckets) return index;
  const int msb = static_cast<int>(index >> kSubBits) + kSubBits - 1;
  const int shift = msb - kSubBits;
  return BucketLow(index) + (uint64_t{1} << shift) - 1;
}

void StreamingHistogram::Record(uint64_t value, uint64_t count) {
  if (count == 0) return;
  if (buckets_.empty()) buckets_.resize(kNumBuckets, 0);
  const size_t index = BucketIndex(value);
  if (index < bucket_lo_) bucket_lo_ = index;
  if (index > bucket_hi_) bucket_hi_ = index;
  uint32_t& slot = buckets_[index];
  const uint64_t room = UINT32_MAX - slot;
  slot += static_cast<uint32_t>(count < room ? count : room);
  if (count_ == 0 || value < min_) min_ = value;
  if (value > max_) max_ = value;
  count_ += count;
}

double StreamingHistogram::PercentileFromCounts(const uint32_t* counts,
                                                size_t n, uint64_t total,
                                                double q, size_t start) {
  if (total == 0 || n == 0) return 0.0;
  if (q < 0) q = 0;
  if (q > 1) q = 1;
  // Nearest-rank target, then linear interpolation inside the bucket.
  uint64_t target = static_cast<uint64_t>(q * static_cast<double>(total));
  if (target < 1) target = 1;
  if (target > total) target = total;
  uint64_t cum = 0;
  for (size_t i = start; i < n; ++i) {
    if (counts[i] == 0) continue;
    if (cum + counts[i] >= target) {
      const double low = static_cast<double>(BucketLow(i));
      const double width = static_cast<double>(BucketHigh(i)) - low;
      const double frac = static_cast<double>(target - cum) /
                          static_cast<double>(counts[i]);
      return low + width * frac;
    }
    cum += counts[i];
  }
  return static_cast<double>(BucketHigh(n - 1));
}

double StreamingHistogram::Percentile(double q) const {
  if (count_ == 0) return 0.0;
  const double raw = PercentileFromCounts(buckets_.data(), buckets_.size(),
                                          count_, q, bucket_lo_);
  // The exact extremes are known; interpolation never needs to report
  // outside them (this makes single-sample and saturated-top readouts
  // exact).
  const double lo = static_cast<double>(min_);
  const double hi = static_cast<double>(max_);
  return raw < lo ? lo : (raw > hi ? hi : raw);
}

void StreamingHistogram::Merge(const StreamingHistogram& other) {
  if (other.count_ == 0) return;
  if (buckets_.empty()) buckets_.resize(kNumBuckets, 0);
  for (size_t i = 0; i < other.buckets_.size(); ++i) {
    const uint64_t sum =
        static_cast<uint64_t>(buckets_[i]) + other.buckets_[i];
    buckets_[i] = sum > UINT32_MAX ? UINT32_MAX
                                   : static_cast<uint32_t>(sum);
  }
  if (count_ == 0 || other.min_ < min_) min_ = other.min_;
  if (other.max_ > max_) max_ = other.max_;
  if (other.bucket_lo_ < bucket_lo_) bucket_lo_ = other.bucket_lo_;
  if (other.bucket_hi_ > bucket_hi_) bucket_hi_ = other.bucket_hi_;
  count_ += other.count_;
}

}  // namespace dlog::sim
