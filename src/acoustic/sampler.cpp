#include "acoustic/sampler.h"

#include <cassert>
#include <cmath>

namespace enviromic::acoustic {

namespace {
/// One stored byte per 8-bit ADC sample.
constexpr std::uint32_t kBytesPerSample = 1;
/// Fig 3: an uncontended sample interval is exactly the nominal one; a
/// contended one jumps uniformly within [min, max] around it.
constexpr std::int64_t kNominalJiffies = 10;
constexpr std::int64_t kContendedMinJiffies = 9;
constexpr std::int64_t kContendedMaxJiffies = 16;
static_assert(kContendedMinJiffies <= kNominalJiffies &&
              kNominalJiffies <= kContendedMaxJiffies);
}  // namespace

std::uint64_t bytes_for(sim::Time duration) {
  assert(!duration.is_negative());
  const double samples = duration.to_seconds() * kSampleRateHz;
  return static_cast<std::uint64_t>(std::llround(samples)) * kBytesPerSample;
}

std::vector<std::uint8_t> capture(const Microphone& mic, sim::Time start,
                                  sim::Time end) {
  std::vector<std::uint8_t> out;
  if (end <= start) return out;
  const auto n = bytes_for(end - start) / kBytesPerSample;
  out.reserve(n);
  const double dt = 1.0 / kSampleRateHz;
  for (std::uint64_t i = 0; i < n; ++i) {
    const sim::Time t = start + sim::Time::seconds(static_cast<double>(i) * dt);
    out.push_back(mic.sample(t));
  }
  return out;
}

void JitterSampler::note_radio_activity(sim::Time start, sim::Time end) {
  busy_.emplace_back(start, end + cfg_.processing_tail);
}

bool JitterSampler::contended(sim::Time a, sim::Time b) const {
  for (const auto& [s, e] : busy_) {
    if (e > a && s < b) return true;
  }
  return false;
}

std::vector<std::int64_t> JitterSampler::observe_intervals(sim::Time t0, int n) {
  std::vector<std::int64_t> out;
  out.reserve(static_cast<std::size_t>(n));
  sim::Time prev = t0;
  for (int i = 0; i < n; ++i) {
    const sim::Time nominal_next = prev + sim::Time::jiffies(kNominalJiffies);
    std::int64_t interval = kNominalJiffies;
    if (contended(prev, nominal_next)) {
      interval = rng_.uniform_int(kContendedMinJiffies, kContendedMaxJiffies);
    }
    out.push_back(interval);
    prev += sim::Time::jiffies(interval);
  }
  return out;
}

}  // namespace enviromic::acoustic
