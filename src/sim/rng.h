// Deterministic random numbers for the simulator.
//
// We implement xoshiro256** seeded through SplitMix64 rather than using
// std::mt19937 so streams are identical across standard libraries and the
// benchmark output is bit-reproducible anywhere. Each node/component should
// derive its own stream with `fork(tag)` so adding a consumer does not
// perturb the draws seen by others.
#pragma once

#include <cstdint>
#include <string_view>

namespace enviromic::sim {

class Rng {
 public:
  explicit Rng(std::uint64_t seed);

  /// Raw 64 random bits. Inline: the channel's loss models draw per
  /// (delivery, receiver), and the out-of-line call was measurable there.
  std::uint64_t next_u64() {
    // xoshiro256**
    const std::uint64_t result = rotl_(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl_(s_[3], 45);
    return result;
  }

  /// Uniform double in [0, 1).
  double uniform() {
    // 53 high bits -> [0, 1)
    return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) { return lo + uniform() * (hi - lo); }

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);

  /// Exponential with the given mean (inverse-CDF method).
  double exponential(double mean);

  /// Bernoulli trial.
  bool chance(double p) {
    if (p <= 0.0) return false;
    if (p >= 1.0) return true;
    return uniform() < p;
  }

  /// Derive an independent deterministic stream for a sub-component.
  /// The tag is hashed (FNV-1a) into the child seed so call order of other
  /// forks does not matter.
  Rng fork(std::string_view tag) const;

  /// Derive a stream keyed by an integer id (e.g. node id).
  Rng fork(std::uint64_t id) const;

 private:
  static std::uint64_t rotl_(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  std::uint64_t s_[4];
  std::uint64_t seed_;
};

}  // namespace enviromic::sim
