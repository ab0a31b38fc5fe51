#include "worlds.h"

#include <iomanip>
#include <map>
#include <memory>
#include <ostream>
#include <set>

#include "core/experiment.h"
#include "core/faults.h"
#include "core/retrieval.h"
#include "core/workload.h"
#include "core/world.h"
#include "storage/chunk_store.h"

namespace perfbench {

namespace core = enviromic::core;
namespace sim = enviromic::sim;
namespace storage = enviromic::storage;

namespace {

constexpr double kSpacingFt = 2.0;

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// What the horizon-time drain callback leaves behind for the accounting.
struct DrainState {
  std::set<std::uint64_t> eligible;
  std::vector<std::size_t> sinks;  //!< node indices whose drain started
};

void scale_flash(core::WorldConfig& wc, double scale) {
  auto& cap = wc.node_defaults.flash.capacity_bytes;
  cap = static_cast<std::uint64_t>(static_cast<double>(cap) * scale);
}

// The builders below mirror core::run_indoor, core::run_outdoor and
// core::run_chaos call for call, so a seed names the same world here as in
// the figure harnesses and the CLI (the benchmark's tests hold them to it).

std::unique_ptr<core::World> build_indoor(const WorldSpec& spec) {
  core::WorldConfig wc;
  wc.seed = spec.seed;
  wc.node_defaults = core::paper_node_params(spec.mode, spec.beta_max);
  scale_flash(wc, 0.5);
  auto world = std::make_unique<core::World>(wc);
  const int nx = 8, ny = 6;
  core::grid_deployment(*world, nx, ny, kSpacingFt);
  core::IndoorEventPlanConfig events;
  events.horizon = spec.horizon;
  events.generators = {{2.5 * kSpacingFt, 1.5 * kSpacingFt},
                       {(nx - 2.5) * kSpacingFt, (ny - 2.5) * kSpacingFt}};
  core::schedule_indoor_events(*world, events, world->rng().fork("plan"));
  return world;
}

std::unique_ptr<core::World> build_outdoor(const WorldSpec& spec) {
  core::WorldConfig wc;
  wc.seed = spec.seed;
  wc.node_defaults = core::paper_node_params(core::Mode::kFull, spec.beta_max);
  wc.channel.comm_range = 40.0;
  auto world = std::make_unique<core::World>(wc);
  const double plot_ft = 105.0;
  core::forest_deployment(*world, 36, plot_ft, plot_ft, 8.0,
                          world->rng().fork("deploy"));
  core::OutdoorPlanConfig plan;
  plan.horizon = spec.horizon;
  plan.plot = plot_ft;
  core::schedule_outdoor_events(*world, plan, world->rng().fork("outdoor"));
  return world;
}

std::unique_ptr<core::World> build_chaos(const WorldSpec& spec,
                                         DrainState& drain) {
  core::WorldConfig wc;
  wc.seed = spec.seed;
  wc.node_defaults = core::paper_node_params(core::Mode::kFull, spec.beta_max);
  scale_flash(wc, 0.1);
  wc.channel.burst.enabled = true;
  wc.channel.link_asymmetry_max = 0.1;
  auto world = std::make_unique<core::World>(wc);
  const int nx = 20, ny = 10;
  core::grid_deployment(*world, nx, ny, kSpacingFt);
  core::IndoorEventPlanConfig events;
  events.horizon = spec.horizon;
  events.generators = {{1.5 * kSpacingFt, 1.5 * kSpacingFt},
                       {(nx - 2.5) * kSpacingFt, (ny - 2.5) * kSpacingFt}};
  core::schedule_indoor_events(*world, events, world->rng().fork("plan"));

  std::vector<enviromic::net::NodeId> ids;
  for (std::size_t i = 0; i < world->node_count(); ++i)
    ids.push_back(world->node(i).id());
  core::FaultPlanConfig faults;
  faults.crash_probability = 0.3;
  faults.downtime_mean = sim::Time::seconds_i(45);
  faults.brownout_probability = 0.2;
  world->apply_faults(core::FaultPlan::randomized(
      faults, ids, spec.horizon, world->rng().fork("faults")));

  if (spec.drain_sinks > 0) {
    std::vector<std::size_t> corners = {
        0, static_cast<std::size_t>(nx * ny - 1),
        static_cast<std::size_t>(nx - 1),
        static_cast<std::size_t>((ny - 1) * nx)};
    corners.resize(std::min<std::size_t>(spec.drain_sinks, corners.size()));
    core::World& w = *world;
    world->sched().at(spec.horizon, [&w, &drain, corners] {
      // Eligible: every key an up node holds when the drain starts.
      for (std::size_t i = 0; i < w.node_count(); ++i) {
        core::Node& n = w.node(i);
        if (n.failed() || n.down()) continue;
        n.store().for_each(
            [&](const storage::ChunkMeta& m) { drain.eligible.insert(m.key); });
      }
      for (std::size_t idx : corners) {
        core::Node& n = w.node(idx);
        if (n.failed() || n.down()) continue;
        n.retrieval().start_drain(core::DrainOptions{});
        drain.sinks.push_back(idx);
      }
    });
  }
  return world;
}

std::unique_ptr<core::World> build_world(const WorldSpec& spec,
                                         DrainState& drain) {
  std::unique_ptr<core::World> world;
  switch (spec.workload) {
    case Workload::kPaperIndoor: world = build_indoor(spec); break;
    case Workload::kPaperOutdoor: world = build_outdoor(spec); break;
    case Workload::kChaosRetrieval: world = build_chaos(spec, drain); break;
  }
  world->start();
  return world;
}

/// Set-based drain accounting over the sinks' hauls; returns every collected
/// chunk's metadata (for World::snapshot_with), sink by sink.
std::vector<storage::ChunkMeta> tally_retrieval(core::World& world,
                                                const DrainState& drain,
                                                sim::Time started_at,
                                                RetrievalTally& out) {
  std::vector<storage::ChunkMeta> metas;
  std::map<std::uint64_t, int> copies;
  sim::Time last = sim::Time::zero();
  for (std::size_t idx : drain.sinks) {
    const auto& svc = world.node(idx).retrieval();
    for (const auto& c : svc.collected()) {
      ++copies[c.meta.key];
      metas.push_back(c.meta);
    }
    last = std::max(last, svc.last_collected_at());
  }
  out.eligible = drain.eligible.size();
  for (const auto& [key, n] : copies) {
    if (drain.eligible.count(key)) {
      ++out.collected_eligible;
    } else {
      ++out.late_arrivals;
    }
    out.double_uploads += static_cast<std::uint64_t>(n - 1);
  }
  if (last > started_at) out.drain_span_s = (last - started_at).to_seconds();
  return metas;
}

}  // namespace

const char* workload_name(Workload w) {
  switch (w) {
    case Workload::kPaperIndoor: return "paper_indoor";
    case Workload::kPaperOutdoor: return "paper_outdoor";
    case Workload::kChaosRetrieval: return "chaos_retrieval";
  }
  return "?";
}

std::optional<Workload> parse_workload(std::string_view name) {
  for (Workload w : {Workload::kPaperIndoor, Workload::kPaperOutdoor,
                     Workload::kChaosRetrieval}) {
    if (name == workload_name(w)) return w;
  }
  return std::nullopt;
}

std::vector<WorldSpec> pass_worlds(Workload w, std::uint64_t seed) {
  std::vector<WorldSpec> out;
  WorldSpec base;
  base.workload = w;
  base.seed = seed;
  switch (w) {
    case Workload::kPaperIndoor: {
      base.horizon = sim::Time::seconds_i(4400);
      base.slice = sim::Time::seconds_i(60);
      struct Setting {
        const char* label;
        core::Mode mode;
        double beta_max;
      };
      for (const Setting& s :
           {Setting{"baseline", core::Mode::kUncoordinated, 2.0},
            Setting{"coop-only", core::Mode::kCooperativeOnly, 2.0},
            Setting{"beta_max=4", core::Mode::kFull, 4.0},
            Setting{"beta_max=3", core::Mode::kFull, 3.0},
            Setting{"beta_max=2", core::Mode::kFull, 2.0}}) {
        WorldSpec spec = base;
        spec.label = s.label;
        spec.mode = s.mode;
        spec.beta_max = s.beta_max;
        out.push_back(spec);
      }
      break;
    }
    case Workload::kPaperOutdoor:
      base.label = "forest";
      base.horizon = sim::Time::seconds_i(3 * 3600);
      base.slice = sim::Time::seconds_i(60);
      out.push_back(base);
      break;
    case Workload::kChaosRetrieval:
      base.horizon = sim::Time::seconds_i(900);
      base.grace = sim::Time::seconds_i(120);
      base.slice = sim::Time::seconds_i(10);
      for (int sinks : {2, 4}) {
        WorldSpec spec = base;
        spec.label = std::to_string(sinks) + "-sink";
        spec.drain_sinks = sinks;
        out.push_back(spec);
      }
      break;
  }
  return out;
}

std::int32_t SpanLog::add(const Span& s) {
  spans_.push_back(s);
  return static_cast<std::int32_t>(spans_.size() - 1);
}

void SpanLog::set_end(std::int32_t index, Clock::time_point end) {
  spans_[static_cast<std::size_t>(index)].end = end;
}

void SpanLog::write_chrome_trace(std::ostream& out) const {
  auto us = [this](Clock::time_point t) {
    return std::chrono::duration<double, std::micro>(t - origin_).count();
  };
  out << std::fixed << std::setprecision(3) << "{\"traceEvents\": [";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << (i ? ",\n" : "\n") << "{\"name\": \"" << s.name
        << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": " << s.world
        << ", \"ts\": " << us(s.start) << ", \"dur\": " << us(s.end) - us(s.start)
        << ", \"args\": {\"span\": " << i << ", \"parent\": " << s.parent
        << "}}";
  }
  out << "\n]}\n";
}

std::string Census::failure() const {
  std::string why;
  auto add = [&why](bool bad, const char* what) {
    if (!bad) return;
    if (!why.empty()) why += ", ";
    why += what;
  };
  add(!exact_once, "drain_all does not hold each live key once");
  add(!recoverable, "checkpoint/recover round trip lost keys");
  add(!counters_consistent, "crashes != reboots + nodes down");
  add(stuck_tx != 0, "stuck tx session");
  add(stuck_rx != 0, "stuck rx session");
  return why;
}

WorldRun run_world(const WorldSpec& spec, SpanLog* trace) {
  WorldRun r;
  const std::uint32_t wid = trace ? trace->next_world() : 0;
  auto span = [&](const char* name, std::int32_t parent, Clock::time_point a,
                  Clock::time_point b) -> std::int32_t {
    return trace ? trace->add(Span{wid, name, parent, a, b}) : -1;
  };
  const auto t_begin = Clock::now();
  const std::int32_t root = span("world", -1, t_begin, t_begin);

  DrainState drain;  // outlives the world, whose drain callback writes it
  auto t0 = Clock::now();
  std::unique_ptr<core::World> world = build_world(spec, drain);
  auto t1 = Clock::now();
  r.ms.setup = ms_between(t0, t1);
  span("setup", root, t0, t1);

  auto snapshot = [&](auto&& take) {
    const auto a = Clock::now();
    r.final_snapshot = take();
    const auto b = Clock::now();
    r.ms.metrics += ms_between(a, b);
    ++r.snapshots;
    span("snapshot", root, a, b);
  };

  // Run loop: host-timed run_until slices. Slicing executes the same events
  // in the same order as one long run_until, so the simulation is unchanged.
  // The indoor figures plot a snapshot after every slice.
  const bool series = spec.workload == Workload::kPaperIndoor;
  if (trace) world->sched().profiler().enable();
  auto step = [&](sim::Time until) {
    const auto a = Clock::now();
    world->run_until(until);
    const auto b = Clock::now();
    const double d = ms_between(a, b);
    r.ms.slices.push_back(d);
    r.ms.run += d;
    span("run_until", root, a, b);
    if (series) snapshot([&] { return world->snapshot(); });
  };
  const sim::Time end = spec.horizon + spec.grace;
  sim::Time t = spec.slice;
  for (; t <= end; t += spec.slice) step(t);
  // The indoor series stops at the last whole sample period, like
  // core::run_indoor; the other workloads run out to the end.
  if (!series && t - spec.slice < end) step(end);
  if (trace) {
    r.profile = world->sched().profiler().report();
    world->sched().profiler().disable();
  }
  r.events = world->sched().executed();
  r.channel = world->channel().stats();
  r.node_hours = static_cast<double>(world->node_count()) *
                 world->sched().now().to_seconds() / 3600.0;

  if (!series) {
    if (spec.drain_sinks > 0) {
      snapshot([&] {
        return world->snapshot_with(
            tally_retrieval(*world, drain, spec.horizon, r.retrieval));
      });
    } else {
      snapshot([&] { return world->snapshot(); });
    }
  }

  // Census: the end-state checks every world must pass.
  const auto c0 = Clock::now();
  const std::int32_t census_span = span("census", root, c0, c0);
  Census& c = r.census;
  const sim::Time now = world->sched().now();
  std::set<std::uint64_t> live;
  for (std::size_t i = 0; i < world->node_count(); ++i) {
    core::Node& n = world->node(i);
    auto collect = [&] {
      n.store().for_each(
          [&](const storage::ChunkMeta& m) { live.insert(m.key); });
    };
    if (n.failed()) {
      if (!n.data_lost()) collect();  // a defunct mote's flash is collectable
      continue;
    }
    if (n.down()) {
      ++c.nodes_down;
      collect();
      continue;
    }
    if (n.bulk().tx_stuck(now)) ++c.stuck_tx;
    if (n.bulk().rx_stuck(now)) ++c.stuck_rx;
    std::vector<std::uint64_t> keys;
    n.store().for_each([&](const storage::ChunkMeta& m) {
      live.insert(m.key);
      keys.push_back(m.key);
    });
    const auto a = Clock::now();
    n.store().checkpoint();
    const auto rebuilt =
        storage::ChunkStore::recover(n.flash(), n.eeprom(), n.params().store);
    std::vector<std::uint64_t> back;
    rebuilt.for_each([&](const storage::ChunkMeta& m) { back.push_back(m.key); });
    const auto b = Clock::now();
    r.ms.recover += ms_between(a, b);
    span("recover", census_span, a, b);
    c.chunks_recovered += back.size();
    if (back != keys) c.recoverable = false;
  }
  c.live_chunks = live.size();
  {
    const auto a = Clock::now();
    c.exact_once = world->drain_all(/*deduplicate=*/true).chunk_count() ==
                   live.size();
    const auto b = Clock::now();
    r.ms.drain_all = ms_between(a, b);
    span("drain_all", census_span, a, b);
  }
  const auto& f = world->metrics().faults();
  c.counters_consistent = f.crashes == f.reboots + c.nodes_down;
  const auto c1 = Clock::now();
  r.ms.census = ms_between(c0, c1);
  if (trace) trace->set_end(census_span, c1);

  const auto d0 = Clock::now();
  world.reset();
  const auto d1 = Clock::now();
  r.ms.other = ms_between(d0, d1);
  span("teardown", root, d0, d1);

  r.ms.wall = ms_between(t_begin, d1);
  if (trace) trace->set_end(root, d1);
  return r;
}

bool same_simulation(const WorldRun& a, const WorldRun& b) {
  const auto& x = a.final_snapshot;
  const auto& y = b.final_snapshot;
  return a.events == b.events &&
         a.channel.transmissions == b.channel.transmissions &&
         a.channel.deliveries == b.channel.deliveries &&
         a.channel.losses_collision == b.channel.losses_collision &&
         a.channel.losses_random == b.channel.losses_random &&
         a.channel.losses_burst == b.channel.losses_burst &&
         x.total_messages == y.total_messages && x.miss_ratio == y.miss_ratio &&
         x.covered_unique == y.covered_unique &&
         a.census.live_chunks == b.census.live_chunks;
}

}  // namespace perfbench
