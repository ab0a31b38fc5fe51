// Fault-injection plans.
//
// A FaultPlan is a time-sorted list of fault events — node crashes (with an
// optional reboot after a downtime), radio brownouts, local-clock steps —
// that World::apply_faults schedules against a running simulation. Plans can
// be built by hand (deterministic regression tests) or drawn from a
// FaultPlanConfig (chaos soaks). The `--faults crash=0.3,downtime=60,...`
// spec of the CLI and the fleet is the first stage of core::configure
// (core/experiment.h): its keys are chaos scenario parameters, which set a
// ChaosRunConfig's FaultPlanConfig and its channel-level fault knobs
// (Gilbert–Elliott burst loss, per-link asymmetry).
#pragma once

#include <vector>

#include "net/message.h"
#include "sim/rng.h"
#include "sim/time.h"

namespace enviromic::core {

/// One scheduled fault against one node.
struct FaultSpec {
  enum class Kind {
    kCrash,      //!< RAM dies; flash + EEPROM survive; reboot after downtime
    kBrownout,   //!< radio off for `downtime`, protocol state intact
    kClockStep,  //!< local clock jumps by clock_step_s seconds
  };

  Kind kind = Kind::kCrash;
  net::NodeId node = 0;
  sim::Time at;
  /// Crash: time until reboot (ignored when permanent). Brownout: duration.
  sim::Time downtime;
  bool permanent = false;  //!< crash only: never reboot ("defunct" mote)
  bool lose_data = false;  //!< permanent crash only: flash contents lost too
  double clock_step_s = 0.0;
};

/// Parameters for a randomized plan over a run horizon.
struct FaultPlanConfig {
  /// Probability that a given node crashes at some point in the horizon.
  double crash_probability = 0.0;
  /// Mean of the exponential downtime before reboot (clamped to >= 1 s).
  sim::Time downtime_mean = sim::Time::seconds_i(60);
  /// Fraction of crashes that are permanent (the node never reboots).
  double permanent_fraction = 0.0;
  /// Fraction of permanent crashes that also lose flash contents.
  double lose_data_fraction = 0.0;
  /// Probability that a given node suffers a radio brownout in the horizon.
  double brownout_probability = 0.0;
  sim::Time brownout_mean = sim::Time::seconds_i(10);
  /// Probability that a given node's clock steps once in the horizon.
  double clock_step_probability = 0.0;
  double clock_step_max_s = 0.5;  //!< step drawn U(-max, max)
};

struct FaultPlan {
  std::vector<FaultSpec> events;  //!< sorted by time

  /// Draw a randomized plan: at most one crash per node (so recovery keeps a
  /// single pre-crash snapshot to compare against), plus independent
  /// brownouts and clock steps, all at uniform times in [0, horizon).
  static FaultPlan randomized(const FaultPlanConfig& cfg,
                              const std::vector<net::NodeId>& nodes,
                              sim::Time horizon, sim::Rng rng);
};

}  // namespace enviromic::core
