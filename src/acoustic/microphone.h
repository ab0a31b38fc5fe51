// The microphone + ADC model (MTS300-like: 8-bit samples centered at 128).
//
// Two views of the sound at the mote:
//  * `level(t)`  — signal plus ambient background, what the energy
//    detector thresholds;
//  * `sample(t)` — an 8-bit ADC reading, that level (clipped at 1)
//    modulated on a carrier, which is what recorded traces contain (Fig 8's
//    y-axis is 0..256 sensor readings).
#pragma once

#include <cstdint>

#include "acoustic/field.h"
#include "sim/geometry.h"
#include "sim/time.h"

namespace enviromic::acoustic {

/// Carrier used to synthesize oscillating ADC samples from the envelope.
inline constexpr double kCarrierHz = 420.0;

/// The 8-bit ADC: `level` clipped at 1, modulated on the carrier at
/// absolute time `t` around the midpoint 128, rounded to the nearest step.
/// Every mote's microphone and Fig 8's held reference read through it.
std::uint8_t adc_sample(double level, sim::Time t);

class Microphone {
 public:
  Microphone(const SoundField& field, sim::Position pos)
      : field_(&field), pos_(pos) {}

  void set_position(const sim::Position& p) { pos_ = p; }
  const sim::Position& position() const { return pos_; }

  /// Signal + ambient background; what an energy detector sees.
  double level(sim::Time t) const { return field_->level_at(pos_, t); }

  /// One 8-bit ADC sample at absolute time t.
  std::uint8_t sample(sim::Time t) const { return adc_sample(level(t), t); }

  const SoundField& field() const { return *field_; }

 private:
  const SoundField* field_;
  sim::Position pos_;
};

}  // namespace enviromic::acoustic
