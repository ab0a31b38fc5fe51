// Deployment and workload builders for the paper's experiments.
//
//  * Indoor testbed: an 8x6 grid at 2 ft spacing with two controlled event
//    generators, Poisson arrivals, uniform durations (paper §IV-B).
//  * Mobile target: an acoustic source crossing the grid at one grid length
//    per second (paper §IV-A, Figs 6-8).
//  * Outdoor forest: 36 irregularly placed motes, a road to the west with
//    vehicle pass-bys, a trail with walkers, bird calls, and the two
//    activity spikes the paper reports (paper §IV-C, Figs 15-18).
#pragma once

#include <vector>

#include "core/world.h"
#include "sim/geometry.h"
#include "sim/rng.h"

namespace enviromic::core {

// --- Deployments -----------------------------------------------------------

/// Place an nx x ny grid of nodes with the given spacing (feet); returns
/// positions in row-major order (y growing upward). Node (gx, gy) sits at
/// origin + (gx * spacing, gy * spacing).
std::vector<sim::Position> grid_deployment(World& world, int nx, int ny,
                                           double spacing,
                                           sim::Position origin = {0, 0});

/// Scatter `n` nodes over a width x height plot with a minimum separation,
/// reproducing the irregular tree-trunk placement of the outdoor deployment.
std::vector<sim::Position> forest_deployment(World& world, int n, double width,
                                             double height,
                                             double min_separation,
                                             sim::Rng rng);

// --- Indoor controlled events (Figs 10-14) -----------------------------------

struct IndoorEventPlanConfig {
  sim::Time horizon = sim::Time::seconds_i(4400);
  sim::Time mean_gap = sim::Time::seconds_i(20);   //!< Poisson arrivals
  /// Chosen so exactly the four grid nodes around a cell-centred source can
  /// hear it (paper: "only four nodes can hear and record each event").
  double audible_range = 2.0;
  /// Events alternate between the generators uniformly at random.
  std::vector<sim::Position> generators;
};

struct IndoorEventPlan {
  struct Event {
    acoustic::SourceId source;
    sim::Time start;
    sim::Time end;
    sim::Position at;
  };
  std::vector<Event> events;
  sim::Time total_event_time;
};

/// Pre-generate the whole Poisson schedule and register the sources.
IndoorEventPlan schedule_indoor_events(World& world,
                                       const IndoorEventPlanConfig& cfg,
                                       sim::Rng rng);

// --- Mobile target (Figs 6-8) --------------------------------------------------

struct MobileEventConfig {
  sim::Position from;
  sim::Position to;
  double speed = 2.0;  //!< ft/s == one 2 ft grid length per second
  sim::Time start = sim::Time::seconds_i(5);
  sim::Time duration = sim::Time::seconds_i(9);
  double audible_range = 2.0;  //!< about one grid length
  /// Waveform seed (a VoiceWave for the Fig 8 study, constant otherwise).
  bool voice = false;
  std::uint64_t voice_seed = 42;
};

acoustic::SourceId add_mobile_event(World& world, const MobileEventConfig& cfg);

// --- Outdoor forest workload (Figs 16-18) --------------------------------------

struct OutdoorPlanConfig {
  sim::Time horizon = sim::Time::seconds_i(3 * 3600);  //!< ~10:45 to 13:45
  double plot = 105.0;  //!< square plot edge, feet
  // Vehicles pass on the road west of the plot (x slightly < 0); the paper
  // notes the road sees traffic "during the day", one of Fig 17's two
  // high-volume regions.
  sim::Time vehicle_mean_gap = sim::Time::seconds_i(110);
  // Walkers follow the trail crossing the plot.
  sim::Time walker_mean_gap = sim::Time::seconds_i(600);
  // Bird calls scattered through the forest.
  sim::Time bird_mean_gap = sim::Time::seconds_i(45);
  // The paper's two observed spikes: a colleague's experiment at
  // 11:30-11:40 (t = 2700..3300 s) and heavy agrarian equipment at
  // 12:15-12:45 (t = 5400..7200 s) with events up to 73 s long.
  bool include_spikes = true;
};

struct OutdoorPlan {
  std::size_t vehicles = 0;
  std::size_t walkers = 0;
  std::size_t birds = 0;
  std::size_t spike_events = 0;
};

OutdoorPlan schedule_outdoor_events(World& world, const OutdoorPlanConfig& cfg,
                                    sim::Rng rng);

}  // namespace enviromic::core
