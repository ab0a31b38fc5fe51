#include "acoustic/microphone.h"

#include <algorithm>
#include <cmath>
#include <numbers>

namespace enviromic::acoustic {

namespace {
/// ADC midpoint and full-scale, 8-bit.
constexpr int kAdcCenter = 128;
constexpr int kAdcMax = 255;
static_assert(0 < kAdcCenter && kAdcCenter < kAdcMax);
}  // namespace

std::uint8_t adc_sample(double level, sim::Time t) {
  const double env = std::min(1.0, level);
  const double carrier =
      std::sin(2.0 * std::numbers::pi * kCarrierHz * t.to_seconds());
  const double v = kAdcCenter + (kAdcMax - kAdcCenter) * env * carrier;
  const int clipped = std::clamp(static_cast<int>(std::lround(v)), 0, kAdcMax);
  return static_cast<std::uint8_t>(clipped);
}

}  // namespace enviromic::acoustic
