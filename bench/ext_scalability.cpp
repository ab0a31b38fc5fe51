// Extension: scalability of the simulator and the protocol with network
// size. The paper argues for "deployment of more nodes with smaller
// acoustic ranges" (§I); this bench grows the grid while keeping the event
// workload per area constant and reports protocol health (miss ratio,
// per-node message load) and simulation cost as executed events (wall time
// belongs to perf_substrates and perfbench).
#include <iostream>

#include "enviromic.h"

using namespace enviromic;

namespace {

struct Outcome {
  double miss = 0.0;
  double msgs_per_node = 0.0;
  std::uint64_t events_executed = 0;
};

Outcome run_one(int nx, int ny, std::uint64_t seed) {
  core::WorldConfig wc;
  wc.seed = seed;
  wc.node_defaults = core::paper_node_params(core::Mode::kFull, 2.0);
  core::World world(wc);
  core::grid_deployment(world, nx, ny, 2.0);

  // One generator per ~24 cells, at cell centres spread over the grid.
  core::IndoorEventPlanConfig events;
  events.horizon = sim::Time::seconds_i(600);
  const int generators = std::max(1, nx * ny / 24);
  for (int g = 0; g < generators; ++g) {
    const double fx = (g % 2 == 0) ? 0.3 : 0.7;
    const double fy = (g / 2 + 1.0) / (generators / 2.0 + 1.5);
    events.generators.push_back(
        {std::floor(fx * nx) * 2.0 + 1.0, std::floor(fy * ny) * 2.0 + 1.0});
  }
  // Constant per-generator rate.
  events.mean_gap = sim::Time::seconds_i(20 / std::max(1, generators / 2));
  core::schedule_indoor_events(world, events, world.rng().fork("plan"));

  world.start();
  world.run_until(sim::Time::seconds_i(600));

  Outcome out;
  const auto snap = world.snapshot();
  out.miss = snap.miss_ratio;
  out.msgs_per_node =
      static_cast<double>(snap.total_messages) / world.node_count();
  out.events_executed = world.sched().executed();
  return out;
}

}  // namespace

int main() {
  std::cout << "Extension: scalability with network size (600 s workload)\n\n";
  util::Table table({"grid", "nodes", "miss", "msgs/node", "events"});
  const int sizes[][2] = {{4, 3}, {6, 4}, {8, 6}, {12, 8}, {16, 12}};
  for (const auto& [nx, ny] : sizes) {
    const auto o = run_one(nx, ny, 4040);
    char grid[16];
    std::snprintf(grid, sizeof grid, "%dx%d", nx, ny);
    table.add_row({grid, util::fmt(static_cast<long long>(nx * ny)),
                   util::fmt(o.miss), util::fmt(o.msgs_per_node, 0),
                   util::fmt(static_cast<long long>(o.events_executed))});
  }
  table.print(std::cout);
  std::cout << "\n(expected: miss ratio stays low as the network grows — "
               "coordination is single-hop local, with a mild rise from "
               "inter-group channel contention — and simulation cost grows "
               "~linearly with node count)\n";
  return 0;
}
