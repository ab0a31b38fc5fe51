// The sound field: all sources plus ambient background noise.
//
// Microphones sample the field; the ground-truth tracker also consults it to
// know which nodes *could* hear each event (the denominator of the paper's
// miss/redundancy metrics).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "acoustic/source.h"
#include "sim/geometry.h"
#include "sim/time.h"

namespace enviromic::acoustic {

class SoundField {
 public:
  explicit SoundField(double background_level = 0.02)
      : background_(background_level) {}

  /// Register a source; returns its id for ground-truth bookkeeping.
  /// Sources start at or after time zero; the field is silent before it.
  const Source& add_source(Source s);

  const std::vector<Source>& sources() const { return sources_; }
  double background_level() const { return background_; }

  /// Total signal amplitude at a position (sum of active sources; no
  /// background). Sound superposition is approximated additively.
  double signal_at(const sim::Position& where, sim::Time t) const;

  /// Signal plus ambient background.
  double level_at(const sim::Position& where, sim::Time t) const;

 private:
  /// Lazy time-bucketed index over source activity windows. Detector polls
  /// query the field millions of times per run, and most sources are long
  /// finished (or not yet started) at any given instant; bucketing by time
  /// lets a query touch only the sources whose [start, end) overlaps its
  /// bucket. It answers every query, bit-identical to a scan over every
  /// source: an inactive source contributes exactly 0.0, and candidates
  /// keep ascending source order so floating-point sums associate
  /// identically.
  struct TimeIndex {
    bool built = false;
    std::int64_t width_ticks = 0;
    std::vector<std::vector<std::uint32_t>> buckets;
  };
  void ensure_index() const;
  /// Sources possibly active at `t` (nullptr = none).
  const std::vector<std::uint32_t>* candidates(sim::Time t) const;

  double background_;
  std::vector<Source> sources_;
  mutable TimeIndex index_;
};

}  // namespace enviromic::acoustic
