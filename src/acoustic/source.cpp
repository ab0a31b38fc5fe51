#include "acoustic/source.h"

#include <cassert>

namespace enviromic::acoustic {

Source::Source(SourceId id, std::shared_ptr<const Trajectory> trajectory,
               std::shared_ptr<const Waveform> waveform, sim::Time start,
               sim::Time end, double loudness, double audible_range)
    : id_(id),
      trajectory_(std::move(trajectory)),
      waveform_(std::move(waveform)),
      start_(start),
      end_(end),
      loudness_(loudness),
      range_(audible_range) {
  assert(trajectory_ && waveform_);
  assert(end_ >= start_);
  assert(range_ > 0.0);
}

sim::Position Source::position_at(sim::Time t) const {
  const double rel = (t - start_).to_seconds();
  return trajectory_->position(rel < 0.0 ? 0.0 : rel);
}

double Source::amplitude_at(const sim::Position& where, sim::Time t) const {
  if (!active_at(t)) return 0.0;
  const double d = sim::distance(where, position_at(t));
  if (d >= range_) return 0.0;
  const double fade = 1.0 - (d / range_) * (d / range_);
  const double rel = (t - start_).to_seconds();
  return loudness_ * fade * waveform_->amplitude(rel);
}

}  // namespace enviromic::acoustic
