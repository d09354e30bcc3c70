#ifndef DLOG_COMMON_RNG_H_
#define DLOG_COMMON_RNG_H_

#include <cassert>
#include <cstdint>

namespace dlog {

/// Deterministic 64-bit PRNG (splitmix64-seeded xorshift128+). Every
/// stochastic component in dlog owns one of these, seeded from the
/// experiment seed, so that runs are exactly reproducible.
class Rng {
 public:
  explicit Rng(uint64_t seed) {
    // splitmix64 to spread the seed into two non-zero words.
    uint64_t x = seed + 0x9E3779B97F4A7C15ull;
    s0_ = Mix(&x);
    s1_ = Mix(&x);
    if (s0_ == 0 && s1_ == 0) s0_ = 1;
  }

  /// Uniform 64-bit value.
  uint64_t NextU64() {
    uint64_t x = s0_;
    const uint64_t y = s1_;
    s0_ = y;
    x ^= x << 23;
    s1_ = x ^ y ^ (x >> 17) ^ (y >> 26);
    return s1_ + y;
  }

  /// Uniform in [0, n). Requires n > 0.
  uint64_t NextBelow(uint64_t n) {
    assert(n > 0);
    return NextU64() % n;
  }

  /// Uniform double in [0, 1).
  double NextDouble() {
    return static_cast<double>(NextU64() >> 11) * (1.0 / 9007199254740992.0);
  }

  /// True with probability p.
  bool Bernoulli(double p) { return NextDouble() < p; }

  /// Exponentially distributed value with the given mean (> 0).
  double NextExponential(double mean);

 private:
  static uint64_t Mix(uint64_t* x) {
    uint64_t z = (*x += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }

  uint64_t s0_;
  uint64_t s1_;
};

}  // namespace dlog

#endif  // DLOG_COMMON_RNG_H_
