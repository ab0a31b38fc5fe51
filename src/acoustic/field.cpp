#include "acoustic/field.h"

#include <algorithm>

namespace enviromic::acoustic {

const Source& SoundField::add_source(Source s) {
  sources_.push_back(std::move(s));
  index_.built = false;
  return sources_.back();
}

void SoundField::ensure_index() const {
  if (index_.built) return;
  index_.built = true;
  index_.buckets.clear();
  index_.width_ticks = 0;
  sim::Time max_end = sim::Time::zero();
  for (const auto& s : sources_) max_end = std::max(max_end, s.end());
  if (max_end <= sim::Time::zero()) return;
  // Aim for ~1024 buckets but never finer than one second: short chirps
  // land in one bucket, long runs stay bounded in memory.
  index_.width_ticks = std::max<std::int64_t>(
      sim::Time::kTicksPerSecond, max_end.raw_ticks() / 1024);
  const std::size_t nbuckets = static_cast<std::size_t>(
      (max_end.raw_ticks() - 1) / index_.width_ticks + 1);
  index_.buckets.assign(nbuckets, {});
  for (std::uint32_t i = 0; i < sources_.size(); ++i) {
    const auto& s = sources_[i];
    if (s.end() <= s.start()) continue;
    const std::int64_t b0 =
        std::max<std::int64_t>(0, s.start().raw_ticks() / index_.width_ticks);
    const std::int64_t b1 = (s.end().raw_ticks() - 1) / index_.width_ticks;
    for (std::int64_t b = b0; b <= b1; ++b) {
      index_.buckets[static_cast<std::size_t>(b)].push_back(i);
    }
  }
}

const std::vector<std::uint32_t>* SoundField::candidates(sim::Time t) const {
  ensure_index();
  if (index_.width_ticks == 0 || t.is_negative()) return nullptr;
  const std::size_t b =
      static_cast<std::size_t>(t.raw_ticks() / index_.width_ticks);
  if (b >= index_.buckets.size()) return nullptr;
  return &index_.buckets[b];
}

double SoundField::signal_at(const sim::Position& where, sim::Time t) const {
  double sum = 0.0;
  const auto* cand = candidates(t);
  if (!cand) return 0.0;
  for (const auto i : *cand) sum += sources_[i].amplitude_at(where, t);
  return sum;
}

double SoundField::level_at(const sim::Position& where, sim::Time t) const {
  return background_ + signal_at(where, t);
}

}  // namespace enviromic::acoustic
