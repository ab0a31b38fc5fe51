// Sound-activated event detection (paper §II: "nothing is recorded unless it
// exceeds the long-term running average of background noise by a sufficient
// margin").
//
// The detector is polled on a coarse period by its owner (the World's one
// detector pump calls poll_once() every kPollInterval), maintains an EWMA of
// the ambient level while no event is present, and declares onset when the
// level exceeds background + margin. Offset is declared after the level has
// stayed below threshold for a silence hold (hysteresis, so syllable gaps do
// not fragment one vocalization into many events). A per-poll detection
// probability models the imperfect real-world detection the paper observes
// (its baseline redundancy is ~0.5 instead of the ideal 0.75 because
// "individual nodes may not detect the event reliably").
#pragma once

#include <functional>

#include "acoustic/microphone.h"
#include "sim/rng.h"
#include "sim/scheduler.h"
#include "util/stats.h"

namespace enviromic::acoustic {

/// Every detector is polled this often, by the World's one detector pump.
inline constexpr sim::Time kPollInterval = sim::Time::millis(100);

struct DetectorConfig {
  double margin = 0.08;           //!< required excess over background EWMA
  double detect_probability = 0.92;  //!< per-poll chance of perceiving signal
};

class Detector {
 public:
  using OnsetHandler = std::function<void()>;
  using OffsetHandler = std::function<void()>;

  Detector(sim::Scheduler& sched, const Microphone& mic, sim::Rng rng,
           DetectorConfig cfg = {});

  /// Perform the first poll inline. Must be called once; the owner then
  /// calls poll_once() every kPollInterval for the whole sim.
  void start();

  /// One detector poll. The detector schedules nothing itself.
  void poll_once();

  /// Pause/resume polling (recording nodes keep sensing in EnviroMic, so the
  /// protocol never pauses this; exposed for failure injection and tests).
  /// Disabling clears any in-progress event state silently.
  void set_enabled(bool enabled) {
    enabled_ = enabled;
    if (!enabled_) event_present_ = false;
  }

  bool event_present() const { return event_present_; }
  double background() const { return background_.value(); }
  /// Last polled signal level (envelope above background).
  double last_signal() const { return last_signal_; }

  void set_onset_handler(OnsetHandler h) { on_onset_ = std::move(h); }
  void set_offset_handler(OffsetHandler h) { on_offset_ = std::move(h); }

 private:
  sim::Scheduler& sched_;
  const Microphone& mic_;
  sim::Rng rng_;
  DetectorConfig cfg_;
  util::Ewma background_;
  bool enabled_ = true;
  bool started_ = false;
  bool event_present_ = false;
  double last_signal_ = 0.0;
  sim::Time last_heard_ = sim::Time::zero();
  OnsetHandler on_onset_;
  OffsetHandler on_offset_;
};

}  // namespace enviromic::acoustic
