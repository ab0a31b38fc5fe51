// High-frequency acoustic sampling.
//
// Two concerns live here:
//
//  1. `capture()` — synthesize the actual 8-bit samples a recorder stores
//     over an interval (used by the Fig 8 voice-stitching study and by chunk
//     content checks). For long bulk runs the byte *count* is what matters,
//     so `bytes_for()` converts a duration to a sample count without
//     materializing data.
//
//  2. `JitterSampler` — the Fig 3 measurement: sampling at a nominal
//     interval (10 jiffies) is disturbed by radio activity because the CPU
//     services the radio stack. Following the paper's measurements, a
//     contended interval jumps roughly uniformly within [9, 16] jiffies,
//     while an uncontended one is exact. Radio activity windows extend by a
//     configurable processing tail, modelling the stack's post-packet work.
#pragma once

#include <cstdint>
#include <vector>

#include "acoustic/microphone.h"
#include "sim/rng.h"
#include "sim/time.h"

namespace enviromic::acoustic {

/// Recording sample rate, one byte per sample (paper §IV: 2.730 kHz).
inline constexpr double kSampleRateHz = 2730.0;

/// Number of stored bytes an interval of recording produces.
std::uint64_t bytes_for(sim::Time duration);

/// Materialize the ADC samples of [start, end) from `mic`.
std::vector<std::uint8_t> capture(const Microphone& mic, sim::Time start,
                                  sim::Time end);

/// Fig 3 jitter model parameters.
struct JitterSamplerConfig {
  /// The radio stack occupies the CPU this long past each TX/RX window.
  sim::Time processing_tail = sim::Time::millis(30);
};

/// Fig 3's measurement harness: produces the observed interval (in jiffies)
/// between consecutive samples under CPU contention from the radio.
class JitterSampler {
 public:
  using Config = JitterSamplerConfig;

  JitterSampler(sim::Rng rng, Config cfg = {}) : rng_(rng), cfg_(cfg) {}

  /// Register a radio activity window (start/end on the air).
  void note_radio_activity(sim::Time start, sim::Time end);

  /// Produce the observed intervals for `n` consecutive samples starting at
  /// `t0`. Interval i is contended iff any registered activity window
  /// (+tail) overlaps it.
  std::vector<std::int64_t> observe_intervals(sim::Time t0, int n);

 private:
  bool contended(sim::Time a, sim::Time b) const;

  sim::Rng rng_;
  Config cfg_;
  std::vector<std::pair<sim::Time, sim::Time>> busy_;
};

}  // namespace enviromic::acoustic
