// Acoustic point sources.
//
// A source is active over [start, end), follows a trajectory, and radiates
// its waveform with a loudness that decays with distance. Rather than model
// dB propagation, the source exposes an `audible_range`: the distance at
// which its amplitude falls to zero (quadratic fade). This makes "which
// nodes can hear event X" a crisp geometric predicate — exactly the knob the
// paper turns when it adjusts speaker volume so that the sensing range is
// one grid length (Fig 6) or four nodes hear each event (Fig 10).
#pragma once

#include <cstdint>
#include <memory>

#include "acoustic/mobility.h"
#include "acoustic/waveform.h"
#include "sim/geometry.h"
#include "sim/time.h"

namespace enviromic::acoustic {

using SourceId = std::uint32_t;

class Source {
 public:
  Source(SourceId id, std::shared_ptr<const Trajectory> trajectory,
         std::shared_ptr<const Waveform> waveform, sim::Time start,
         sim::Time end, double loudness, double audible_range);

  SourceId id() const { return id_; }
  sim::Time start() const { return start_; }
  sim::Time end() const { return end_; }
  double audible_range() const { return range_; }
  double loudness() const { return loudness_; }

  bool active_at(sim::Time t) const { return t >= start_ && t < end_; }

  sim::Position position_at(sim::Time t) const;

  /// Amplitude perceived at `where` at absolute time `t`; zero when the
  /// source is inactive or out of range.
  double amplitude_at(const sim::Position& where, sim::Time t) const;

 private:
  SourceId id_;
  std::shared_ptr<const Trajectory> trajectory_;
  std::shared_ptr<const Waveform> waveform_;
  sim::Time start_;
  sim::Time end_;
  double loudness_;
  double range_;
};

}  // namespace enviromic::acoustic
