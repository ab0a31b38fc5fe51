#include "acoustic/detector.h"

#include <cassert>

namespace enviromic::acoustic {

namespace {
/// Slow EWMA weight for the ambient level.
constexpr double kBackgroundAlpha = 0.02;
/// Offset hysteresis: the level must stay below threshold this long.
constexpr sim::Time kSilenceHold = sim::Time::millis(400);
}  // namespace

Detector::Detector(sim::Scheduler& sched, const Microphone& mic, sim::Rng rng,
                   DetectorConfig cfg)
    : sched_(sched),
      mic_(mic),
      rng_(rng),
      cfg_(cfg),
      background_(kBackgroundAlpha, mic.field().background_level()) {}

void Detector::start() {
  assert(!started_);
  started_ = true;
  poll_once();
}

void Detector::poll_once() {
  if (!enabled_) return;

  const sim::Time now = sched_.now();
  const double level = mic_.level(now);
  const double threshold = background_.value() + cfg_.margin;

  bool heard = level > threshold;
  if (heard && !rng_.chance(cfg_.detect_probability)) heard = false;

  if (heard) {
    last_heard_ = now;
    last_signal_ = level - background_.value();
    if (!event_present_) {
      event_present_ = true;
      if (on_onset_) on_onset_();
    }
  } else {
    // Track ambient only while quiet so loud events do not poison the
    // background estimate.
    if (level <= threshold) background_.update(level);
    last_signal_ = 0.0;
    if (event_present_ && now - last_heard_ >= kSilenceHold) {
      event_present_ = false;
      if (on_offset_) on_offset_();
    }
  }
}

}  // namespace enviromic::acoustic
