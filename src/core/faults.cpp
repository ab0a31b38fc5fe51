#include "core/faults.h"

#include <algorithm>

namespace enviromic::core {

FaultPlan FaultPlan::randomized(const FaultPlanConfig& cfg,
                                const std::vector<net::NodeId>& nodes,
                                sim::Time horizon, sim::Rng rng) {
  FaultPlan plan;
  const double horizon_s = horizon.to_seconds();
  for (net::NodeId id : nodes) {
    if (cfg.crash_probability > 0.0 && rng.chance(cfg.crash_probability)) {
      FaultSpec f;
      f.kind = FaultSpec::Kind::kCrash;
      f.node = id;
      f.at = sim::Time::seconds(rng.uniform(0.0, horizon_s));
      const double down_s = std::max(
          1.0, rng.exponential(cfg.downtime_mean.to_seconds()));
      f.downtime = sim::Time::seconds(down_s);
      f.permanent = cfg.permanent_fraction > 0.0 &&
                    rng.chance(cfg.permanent_fraction);
      f.lose_data = f.permanent && cfg.lose_data_fraction > 0.0 &&
                    rng.chance(cfg.lose_data_fraction);
      plan.events.push_back(f);
    }
    if (cfg.brownout_probability > 0.0 &&
        rng.chance(cfg.brownout_probability)) {
      FaultSpec f;
      f.kind = FaultSpec::Kind::kBrownout;
      f.node = id;
      f.at = sim::Time::seconds(rng.uniform(0.0, horizon_s));
      f.downtime = sim::Time::seconds(
          std::max(0.5, rng.exponential(cfg.brownout_mean.to_seconds())));
      plan.events.push_back(f);
    }
    if (cfg.clock_step_probability > 0.0 &&
        rng.chance(cfg.clock_step_probability)) {
      FaultSpec f;
      f.kind = FaultSpec::Kind::kClockStep;
      f.node = id;
      f.at = sim::Time::seconds(rng.uniform(0.0, horizon_s));
      f.clock_step_s =
          rng.uniform(-cfg.clock_step_max_s, cfg.clock_step_max_s);
      plan.events.push_back(f);
    }
  }
  std::stable_sort(plan.events.begin(), plan.events.end(),
                   [](const FaultSpec& a, const FaultSpec& b) {
                     return a.at < b.at;
                   });
  return plan;
}

}  // namespace enviromic::core
