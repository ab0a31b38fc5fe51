// Deadline-coalesced timer multiplexer.
//
// A protocol stack owns a handful of periodic duties (beacon tick, heartbeat,
// watchdog) that historically each kept a live event in the scheduler heap at
// all times — ~N_nodes * N_timers standing events whether or not a node had
// anything to do. A CoalescedTimer folds all of a node's deadlines into ONE
// underlying scheduler event, kept at the earliest armed deadline; when no
// slot is armed it schedules nothing at all, so an idle node costs the event
// queue zero entries.
//
// Slots are registered once (at component construction) with a fixed
// callback; arming/disarming later never allocates. When the underlying event
// fires, every due slot fires in slot-registration order — a fixed, explicit
// order, so execution stays deterministic no matter how the deadlines were
// interleaved. Callbacks may re-arm their own (or any other) slot; the timer
// refreshes the underlying event once after the batch.
#pragma once

#include <cstddef>
#include <functional>
#include <vector>

#include "sim/scheduler.h"
#include "sim/time.h"

namespace enviromic::sim {

class CoalescedTimer {
 public:
  using Slot = std::size_t;

  explicit CoalescedTimer(Scheduler& sched) : sched_(sched) {}

  CoalescedTimer(const CoalescedTimer&) = delete;
  CoalescedTimer& operator=(const CoalescedTimer&) = delete;

  /// Register a slot with a fixed callback. Slots live for the lifetime of
  /// the timer; there is no remove.
  Slot add_slot(std::function<void()> cb) {
    slots_.push_back(SlotState{std::move(cb), Time::max(), false});
    return slots_.size() - 1;
  }

  /// Arm (or re-arm) `s` to fire at absolute time `deadline`.
  void arm(Slot s, Time deadline) {
    slots_[s].deadline = deadline;
    slots_[s].armed = true;
    refresh();
  }

  void arm_after(Slot s, Time delay) {
    if (delay.is_negative()) delay = Time::zero();
    arm(s, sched_.now() + delay);
  }

  void disarm(Slot s) {
    if (!slots_[s].armed) return;
    slots_[s].armed = false;
    refresh();
  }

  void disarm_all() {
    for (auto& s : slots_) s.armed = false;
    refresh();
  }

  bool armed(Slot s) const { return slots_[s].armed; }
  /// Deadline of an armed slot (meaningless while disarmed).
  Time deadline(Slot s) const { return slots_[s].deadline; }

 private:
  struct SlotState {
    std::function<void()> cb;
    Time deadline;
    bool armed;
  };

  void fire() {
    ProfileScope ps(sched_.profiler(), ProfTag::kCoalescedTimer);
    firing_ = true;
    const Time now = sched_.now();
    for (auto& s : slots_) {
      if (s.armed && s.deadline <= now) {
        s.armed = false;
        s.cb();
      }
    }
    firing_ = false;
    event_deadline_ = Time::max();  // the underlying event just fired
    refresh();
  }

  void refresh() {
    if (firing_) return;  // fire() refreshes once after the whole batch
    Time earliest = Time::max();
    for (const auto& s : slots_) {
      if (s.armed && s.deadline < earliest) earliest = s.deadline;
    }
    if (earliest == Time::max()) {
      event_.cancel();
      event_deadline_ = Time::max();
      return;
    }
    if (event_.pending() && event_deadline_ == earliest) return;
    event_.cancel();
    const Time at = earliest < sched_.now() ? sched_.now() : earliest;
    event_ = sched_.at(at, [this] { fire(); });
    event_deadline_ = earliest;
  }

  Scheduler& sched_;
  std::vector<SlotState> slots_;
  EventHandle event_;
  Time event_deadline_ = Time::max();
  bool firing_ = false;
};

}  // namespace enviromic::sim
