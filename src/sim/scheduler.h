// The simulation clock + event loop. All protocol components schedule work
// through a Scheduler and read the current simulated time from it.
#pragma once

#include <cassert>
#include <cstdint>
#include <utility>

#include "sim/event_queue.h"
#include "sim/profiler.h"
#include "sim/time.h"

namespace enviromic::sim {

class Trace;

class Scheduler {
 public:
  /// Current simulated time.
  Time now() const { return now_; }

  /// Schedule the callable `f` at an absolute time (>= now()). `f` is built
  /// directly in its event record.
  template <class F>
  EventHandle at(Time t, F&& f) {
    assert(t >= now_ && "cannot schedule into the past");
    ProfileScope ps(profiler_, ProfTag::kEventQueue);
    return queue_.schedule(t, std::forward<F>(f));
  }

  /// Schedule `f` a delay `d` after now(). Negative delays clamp to now().
  template <class F>
  EventHandle after(Time d, F&& f) {
    if (d.is_negative()) d = Time::zero();
    ProfileScope ps(profiler_, ProfTag::kEventQueue);
    return queue_.schedule(now_ + d, std::forward<F>(f));
  }

  /// Run events until the queue is exhausted or `limit` events have fired.
  /// Returns the number of events executed.
  std::uint64_t run(std::uint64_t limit = UINT64_MAX);

  /// Run all events with time <= t, then advance the clock to exactly t.
  /// Returns the number of events executed.
  std::uint64_t run_until(Time t);

  /// Number of events executed so far.
  std::uint64_t executed() const { return executed_; }

  /// Number of live scheduled events (cancelled timers excluded).
  std::size_t pending() const { return queue_.live_count(); }

  /// Wall-time attribution across scheduler callbacks. Components open
  /// ProfileScopes against this; run()/run_until() account total loop time.
  Profiler& profiler() { return profiler_; }
  const Profiler& profiler() const { return profiler_; }

  /// The run's trace ring, or null when the run is dark. Record sites pass
  /// it to the sim::trace_* helpers. The scheduler does not own the ring:
  /// whoever attaches one detaches it (set_trace(nullptr)) before the ring
  /// goes away.
  Trace* trace() const { return trace_; }
  void set_trace(Trace* ring) { trace_ = ring; }

 private:
  /// The one event loop behind run() and run_until(): fire events due at or
  /// before `until`, at most `limit` of them, and return how many fired.
  std::uint64_t loop(Time until, std::uint64_t limit);

  EventQueue queue_;
  Time now_ = Time::zero();
  std::uint64_t executed_ = 0;
  Profiler profiler_;
  Trace* trace_ = nullptr;
};

}  // namespace enviromic::sim
