#include "sim/scheduler.h"

#include <chrono>

namespace enviromic::sim {

namespace {

std::int64_t prof_now_ns(bool enabled) {
  if (!enabled) return 0;
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

std::uint64_t Scheduler::run(std::uint64_t limit) {
  return loop(Time::max(), limit);
}

std::uint64_t Scheduler::run_until(Time t) {
  const std::uint64_t n = loop(t, UINT64_MAX);
  if (t > now_) now_ = t;
  return n;
}

std::uint64_t Scheduler::loop(Time until, std::uint64_t limit) {
  const bool prof = profiler_.enabled();
  const std::int64_t t0 = prof_now_ns(prof);
  std::uint64_t n = 0;
  Time t;
  EventQueue::Popped ev;
  for (;;) {
    {
      ProfileScope ps(profiler_, ProfTag::kEventQueue);
      if (n >= limit || !queue_.pop_next(until, &t, &ev)) break;
    }
    now_ = t;
    ev();
    ++n;
    ++executed_;
  }
  if (prof) profiler_.add_run_time(prof_now_ns(true) - t0, n);
  return n;
}

}  // namespace enviromic::sim
