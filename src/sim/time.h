// Simulation time.
//
// The MicaZ clock the paper measures against ticks in "jiffies"
// (1 jiffy = 1/32768 s, Fig 3). To keep jiffies, milliseconds, and seconds
// all exactly representable we count integer ticks at 32.768 MHz:
//   1 jiffy = 1000 ticks, 1 ms = 32768 ticks, 1 s = 32'768'000 ticks.
// An int64 tick count covers ~8900 simulated years, far beyond any run.
#pragma once

#include <compare>
#include <cstdint>
#include <limits>
#include <ostream>
#include <string>

namespace enviromic::sim {

/// A point in simulated time or a duration; both use the same representation
/// and arithmetic, matching common discrete-event-simulator practice.
class Time {
 public:
  static constexpr std::int64_t kTicksPerJiffy = 1000;
  static constexpr std::int64_t kTicksPerMilli = 32768;
  static constexpr std::int64_t kTicksPerSecond = 32768000;

  constexpr Time() : ticks_(0) {}

  static constexpr Time ticks(std::int64_t t) { return Time(t); }
  static constexpr Time jiffies(std::int64_t j) { return Time(j * kTicksPerJiffy); }
  static constexpr Time millis(std::int64_t ms) { return Time(ms * kTicksPerMilli); }
  static constexpr Time seconds_i(std::int64_t s) { return Time(s * kTicksPerSecond); }

  /// Fractional seconds, rounded to the nearest tick.
  static Time seconds(double s);

  static constexpr Time zero() { return Time(0); }
  static constexpr Time max() {
    return Time(std::numeric_limits<std::int64_t>::max());
  }

  constexpr std::int64_t raw_ticks() const { return ticks_; }
  constexpr double to_seconds() const {
    return static_cast<double>(ticks_) / static_cast<double>(kTicksPerSecond);
  }
  constexpr double to_millis() const {
    return static_cast<double>(ticks_) / static_cast<double>(kTicksPerMilli);
  }
  constexpr double to_jiffies() const {
    return static_cast<double>(ticks_) / static_cast<double>(kTicksPerJiffy);
  }

  constexpr auto operator<=>(const Time&) const = default;

  constexpr Time operator+(Time o) const { return Time(ticks_ + o.ticks_); }
  constexpr Time operator-(Time o) const { return Time(ticks_ - o.ticks_); }
  constexpr Time& operator+=(Time o) {
    ticks_ += o.ticks_;
    return *this;
  }
  constexpr Time& operator-=(Time o) {
    ticks_ -= o.ticks_;
    return *this;
  }
  constexpr Time operator*(std::int64_t k) const { return Time(ticks_ * k); }
  /// Scale by a real factor (rounded to nearest tick); used for jitter.
  Time scaled(double k) const;
  constexpr std::int64_t operator/(Time o) const { return ticks_ / o.ticks_; }
  constexpr Time operator%(Time o) const { return Time(ticks_ % o.ticks_); }

  constexpr bool is_zero() const { return ticks_ == 0; }
  constexpr bool is_negative() const { return ticks_ < 0; }

  /// "12.345s" rendering for logs and tables.
  std::string str() const;

 private:
  constexpr explicit Time(std::int64_t t) : ticks_(t) {}
  std::int64_t ticks_;
};

/// The longest span, in seconds, that a run parameter or a resource path
/// may name: far inside Time's int64 tick range (about 2.8e11 s), so a
/// settable bound never wraps when it converts to ticks.
inline constexpr double kMaxSeconds = 1e9;
static_assert(kMaxSeconds * Time::kTicksPerSecond <
              static_cast<double>(std::numeric_limits<std::int64_t>::max()));

std::ostream& operator<<(std::ostream& os, Time t);

}  // namespace enviromic::sim
