#include "core/workload.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <memory>

#include "acoustic/mobility.h"
#include "acoustic/waveform.h"

namespace enviromic::core {

namespace {
/// Indoor event durations, paper §IV-B: U(3, 7) s.
constexpr sim::Time kMinEventDuration = sim::Time::seconds_i(3);
constexpr sim::Time kMaxEventDuration = sim::Time::seconds_i(7);
static_assert(kMinEventDuration < kMaxEventDuration);
/// Source loudness of the indoor generators and the mobile target.
constexpr double kEventLoudness = 1.0;
}  // namespace

std::vector<sim::Position> grid_deployment(World& world, int nx, int ny,
                                           double spacing,
                                           sim::Position origin) {
  std::vector<sim::Position> out;
  out.reserve(static_cast<std::size_t>(nx) * ny);
  for (int gy = 0; gy < ny; ++gy) {
    for (int gx = 0; gx < nx; ++gx) {
      const sim::Position p{origin.x + gx * spacing, origin.y + gy * spacing};
      world.add_node(p);
      out.push_back(p);
    }
  }
  return out;
}

std::vector<sim::Position> forest_deployment(World& world, int n, double width,
                                             double height,
                                             double min_separation,
                                             sim::Rng rng) {
  std::vector<sim::Position> out;
  int attempts = 0;
  while (static_cast<int>(out.size()) < n && attempts < 100000) {
    ++attempts;
    const sim::Position p{rng.uniform(0.0, width), rng.uniform(0.0, height)};
    bool ok = true;
    for (const auto& q : out) {
      if (sim::distance(p, q) < min_separation) {
        ok = false;
        break;
      }
    }
    if (ok) out.push_back(p);
  }
  assert(static_cast<int>(out.size()) == n && "plot too dense for separation");
  for (const auto& p : out) world.add_node(p);
  return out;
}

IndoorEventPlan schedule_indoor_events(World& world,
                                       const IndoorEventPlanConfig& cfg,
                                       sim::Rng rng) {
  assert(!cfg.generators.empty());
  IndoorEventPlan plan;
  plan.total_event_time = sim::Time::zero();
  sim::Time t = sim::Time::seconds(rng.exponential(cfg.mean_gap.to_seconds()));
  while (t < cfg.horizon) {
    const auto& at = cfg.generators[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(cfg.generators.size()) - 1))];
    const sim::Time dur = sim::Time::seconds(rng.uniform(
        kMinEventDuration.to_seconds(), kMaxEventDuration.to_seconds()));
    const sim::Time end = std::min(t + dur, cfg.horizon);
    const auto id = world.add_source(
        std::make_shared<acoustic::StaticTrajectory>(at),
        std::make_shared<acoustic::ConstantWave>(1.0), t, end, kEventLoudness,
        cfg.audible_range);
    plan.events.push_back(IndoorEventPlan::Event{id, t, end, at});
    plan.total_event_time += end - t;
    t += sim::Time::seconds(rng.exponential(cfg.mean_gap.to_seconds()));
  }
  return plan;
}

acoustic::SourceId add_mobile_event(World& world,
                                    const MobileEventConfig& cfg) {
  const double dx = cfg.to.x - cfg.from.x;
  const double dy = cfg.to.y - cfg.from.y;
  const double len = std::sqrt(dx * dx + dy * dy);
  const double vx = len > 0 ? cfg.speed * dx / len : 0.0;
  const double vy = len > 0 ? cfg.speed * dy / len : 0.0;
  std::shared_ptr<const acoustic::Waveform> wave;
  if (cfg.voice) {
    wave = std::make_shared<acoustic::VoiceWave>(cfg.voice_seed);
  } else {
    wave = std::make_shared<acoustic::ConstantWave>(1.0);
  }
  return world.add_source(
      std::make_shared<acoustic::LinearTrajectory>(cfg.from, vx, vy),
      std::move(wave), cfg.start, cfg.start + cfg.duration, kEventLoudness,
      cfg.audible_range);
}

OutdoorPlan schedule_outdoor_events(World& world, const OutdoorPlanConfig& cfg,
                                    sim::Rng rng) {
  OutdoorPlan plan;
  const double plot = cfg.plot;

  // Vehicles: north-south pass-bys on the road just west of the plot. Loud
  // and long-ranged; audible mostly by the western nodes.
  sim::Rng vrng = rng.fork("vehicles");
  sim::Time t = sim::Time::seconds(vrng.exponential(cfg.vehicle_mean_gap.to_seconds()));
  while (t < cfg.horizon) {
    const double speed = vrng.uniform(20.0, 40.0);  // ft/s (slow rural road)
    const double span = plot + 2 * 60.0;            // approach + leave
    const sim::Time dur = sim::Time::seconds(span / speed);
    const double road_x = -25.0;
    world.add_source(std::make_shared<acoustic::LinearTrajectory>(
                         sim::Position{road_x, -60.0}, 0.0, speed),
                     std::make_shared<acoustic::RumbleWave>(vrng.next_u64()), t,
                     t + dur, vrng.uniform(0.8, 1.2), vrng.uniform(45.0, 65.0));
    ++plan.vehicles;
    t += sim::Time::seconds(vrng.exponential(cfg.vehicle_mean_gap.to_seconds()));
  }

  // Walkers: along a trail arcing through the eastern half of the plot.
  sim::Rng wrng = rng.fork("walkers");
  const std::vector<sim::Position> trail = {
      {0.70 * plot, 0.0}, {0.62 * plot, 0.35 * plot}, {0.72 * plot, 0.62 * plot},
      {0.64 * plot, plot}};
  t = sim::Time::seconds(wrng.exponential(cfg.walker_mean_gap.to_seconds()));
  while (t < cfg.horizon) {
    const double speed = wrng.uniform(3.0, 5.5);  // ft/s walking pace
    double length = 0.0;
    for (std::size_t i = 1; i < trail.size(); ++i)
      length += sim::distance(trail[i - 1], trail[i]);
    const sim::Time dur = sim::Time::seconds(length / speed);
    world.add_source(
        std::make_shared<acoustic::WaypointTrajectory>(trail, speed),
        std::make_shared<acoustic::VoiceWave>(wrng.next_u64()), t, t + dur,
        wrng.uniform(0.5, 0.9), wrng.uniform(18.0, 28.0));
    ++plan.walkers;
    t += sim::Time::seconds(wrng.exponential(cfg.walker_mean_gap.to_seconds()));
  }

  // Bird calls: short tonal events scattered through the plot.
  sim::Rng brng = rng.fork("birds");
  t = sim::Time::seconds(brng.exponential(cfg.bird_mean_gap.to_seconds()));
  while (t < cfg.horizon) {
    const sim::Position at{brng.uniform(0.0, plot), brng.uniform(0.0, plot)};
    const sim::Time dur = sim::Time::seconds(brng.uniform(1.5, 6.0));
    world.add_source(std::make_shared<acoustic::StaticTrajectory>(at),
                     std::make_shared<acoustic::ToneWave>(
                         brng.uniform(2.0, 5.0), brng.uniform(0.2, 0.7)),
                     t, t + dur, brng.uniform(0.6, 1.0),
                     brng.uniform(12.0, 22.0));
    ++plan.birds;
    t += sim::Time::seconds(brng.exponential(cfg.bird_mean_gap.to_seconds()));
  }

  if (cfg.include_spikes) {
    sim::Rng srng = rng.fork("spikes");
    // 11:30-11:40 (t = 2700..3300 s): another department's experiment — a
    // burst of loud mid-plot activity.
    for (int i = 0; i < 14; ++i) {
      const sim::Time start =
          sim::Time::seconds(srng.uniform(2700.0, 3250.0));
      const sim::Time dur = sim::Time::seconds(srng.uniform(8.0, 30.0));
      const sim::Position at{srng.uniform(0.25 * plot, 0.75 * plot),
                             srng.uniform(0.25 * plot, 0.75 * plot)};
      world.add_source(std::make_shared<acoustic::StaticTrajectory>(at),
                       std::make_shared<acoustic::RumbleWave>(srng.next_u64()),
                       start, start + dur, srng.uniform(0.8, 1.1),
                       srng.uniform(25.0, 40.0));
      ++plan.spike_events;
    }
    // 12:15-12:45 (t = 5400..7200 s): heavy agrarian equipment on the
    // neighbouring road — very long (up to 73 s) loud events.
    for (int i = 0; i < 10; ++i) {
      const sim::Time start =
          sim::Time::seconds(srng.uniform(5400.0, 7100.0));
      const sim::Time dur = sim::Time::seconds(srng.uniform(30.0, 73.0));
      world.add_source(std::make_shared<acoustic::LinearTrajectory>(
                           sim::Position{-30.0, srng.uniform(0.0, plot)},
                           srng.uniform(1.0, 3.0), 0.0),
                       std::make_shared<acoustic::RumbleWave>(srng.next_u64()),
                       start, start + dur, srng.uniform(1.0, 1.4),
                       srng.uniform(50.0, 70.0));
      ++plan.spike_events;
    }
  }
  return plan;
}

}  // namespace enviromic::core
