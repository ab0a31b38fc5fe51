// Wall-clock performance harness for the simulator's hot paths, and the
// first point of the repo's perf trajectory (results/BENCH_sim.json).
//
// Three workloads, sized so the O(N) vs O(1) delivery paths separate:
//   1. event-queue churn — schedule/cancel/pop storms, the pattern CSMA
//      back-offs and protocol watchdogs produce (exercises eager cancel
//      release + tombstone compaction);
//   2. broadcast storm — N radios on a dense grid, staggered periodic
//      broadcasts through the raw Channel, timed with the spatial index on
//      and off (the paper-independent measure of the delivery path); run
//      once with carrier sense off (hidden-terminal saturation) and once
//      with CSMA on (the backoff path's constants);
//   3. chaos scenario — the full indoor workload under randomized faults at
//      50/200/500 nodes (the end-to-end number a user actually feels);
//   4. migration drain — hot nodes stream a fixed chunk backlog to cold
//      neighbours over the reliable bulk-transfer pipeline, timed with the
//      default fragment window and again pinned to window=1 (the
//      stop-and-wait degenerate), so the windowed pipeline's wall-clock win
//      is a committed trajectory number;
//   5. coded survival — a permanent-death chaos campaign run under plain
//      migration, erasure-coded dispersal, and replicated recording, so the
//      k-of-n survival win and its redundancy overhead are committed
//      trajectory numbers too.
//
// The gated 200-node chaos scenario also runs once with the telemetry
// series recorder lit at 1 s cadence: telemetry_overhead_pct is the wall
// cost of the sampling plane, and the lit run must stay bit-identical to
// the dark one. The fleet leg samples series in every world and byte-
// compares the merged percentile bands across -j1 and -jN.
//
// Every indexed/linear pair is also checked for bit-identical results: the
// spatial index must be a pure acceleration, so diverging channel counters
// or metrics fail the run (exit 2). The migration drain doubles as a
// determinism check — the windowed run executes twice on the same seed and
// must match bit for bit (same exit 2). So does every other deterministic
// check (invariants, survival). The fleet speed-up is the one check timed on
// the host: like the regression gate, it exits 3, and only after the gate
// has run and printed, so a slow machine never reads as a wrong result.
// When both kinds fail, exit 2 wins. The last line names every failed
// check; in the JSON, determinism_ok is false only on a divergence, and
// failed_checks names every check that failed.
//
// Usage: perf_substrates [--quick] [--out PATH] [--baseline PATH]
//                        [--max-regress FRACTION]
// --quick shrinks horizons for the CI smoke lane and skips the 500-node
// linear soak; the regression gate compares chaos_200_ms,
// migrate_windowed_ms, coded_chaos_ms and retrieval_drain_2_ms against the
// baseline JSON and fails (exit 3) on > FRACTION regression.
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/fleet.h"
#include "enviromic.h"

using namespace enviromic;
using Clock = std::chrono::steady_clock;

namespace {

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

// --- 1. Event-queue churn ----------------------------------------------------

double bench_event_queue_churn(int rounds, std::uint64_t* ops_out) {
  sim::EventQueue q;
  std::uint64_t fired = 0, ops = 0;
  const auto t0 = Clock::now();
  for (int r = 0; r < rounds; ++r) {
    // A wave of timers, most of which get cancelled before firing — the
    // protocol stack's signature load (back-off retries, watchdog re-arms).
    std::vector<sim::EventHandle> handles;
    handles.reserve(1000);
    const auto base = sim::Time::millis(r * 10);
    for (int i = 0; i < 1000; ++i) {
      handles.push_back(
          q.schedule(base + sim::Time::ticks(i), [&fired] { ++fired; }));
    }
    for (int i = 0; i < 1000; ++i) {
      if (i % 4 != 0) handles[static_cast<size_t>(i)].cancel();
    }
    sim::Time t;
    sim::EventQueue::Popped ev;
    while (q.pop_next(sim::Time::max(), &t, &ev)) ev();
    ops += 2000;  // schedules + (cancels or pops)
  }
  const double ms = ms_since(t0);
  *ops_out = ops;
  if (fired == 0) std::fprintf(stderr, "event queue fired nothing?\n");
  return ms;
}

// --- 2. Broadcast storm through the raw Channel ------------------------------

struct StormResult {
  double ms = 0.0;
  std::uint64_t deliveries = 0;
  std::uint64_t transmissions = 0;
  std::uint64_t received = 0;  //!< sum over receive handlers
};

struct StormParams {
  int n_nodes = 500;
  double sim_seconds = 10.0;
  /// Grid pitch in feet; comm_range stays 4.0, so 4.0 ft spacing gives the
  /// four cardinal neighbors (a sparse field), 2.0 ft the dense indoor grid.
  double spacing = 4.0;
  /// 1 Hz with a 25 KB chunk (~0.8 s air time) keeps every node just inside
  /// half-duplex (duty ~0.8) with ~400 transmissions concurrently in
  /// flight — the saturated regime where the linear path's O(active)
  /// interference scans dominate.
  double rate_hz = 1.0;
  /// Audio-chunk payload per broadcast. Long air times keep many
  /// transmissions concurrently in flight, which is what separates the
  /// O(recipients x active) linear interference scan from the grid gather.
  std::uint32_t payload_bytes = 25000;
  /// Carrier sensing off models the hidden-terminal storm the paper's
  /// single-channel MAC degenerates to under saturation; with CSMA on the
  /// spatial backoff serializes the medium and the bench would mostly time
  /// the scheduler instead of the delivery path.
  double carrier_sense_factor = 0.0;
};

StormResult broadcast_storm(const StormParams& sp, bool indexed) {
  sim::Scheduler sched;
  net::ChannelConfig cfg;
  cfg.comm_range = 4.0;
  cfg.loss_probability = 0.05;
  cfg.carrier_sense_factor = sp.carrier_sense_factor;
  cfg.use_spatial_index = indexed;
  net::Channel channel(sched, sim::Rng(1234), cfg);

  const int side = static_cast<int>(std::ceil(std::sqrt(sp.n_nodes)));
  std::vector<std::unique_ptr<net::Radio>> radios;
  StormResult out;
  for (int i = 0; i < sp.n_nodes; ++i) {
    const double x = sp.spacing * (i % side);
    const double y = sp.spacing * (i / side);
    radios.push_back(
        channel.create_radio(static_cast<net::NodeId>(i + 1), {x, y}));
    radios.back()->set_receive_handler(
        [&out](const net::Packet&) { ++out.received; });
  }

  // Every node broadcasts an audio chunk fragment at rate_hz, staggered
  // across the period so starts spread evenly.
  const auto period =
      sim::Time::ticks(static_cast<std::int64_t>(
          static_cast<double>(sim::Time::seconds_i(1).raw_ticks()) /
          sp.rate_hz));
  const auto horizon = sim::Time::seconds(sp.sim_seconds);
  // Self-re-arming beacons: the heap carries one pending send per node (plus
  // in-flight deliveries) instead of every future send, and the re-arm
  // schedule is a pure function of the period, so indexed and linear runs
  // still execute identical event sequences.
  std::function<void(net::Radio*, sim::Time)> arm =
      [&](net::Radio* r, sim::Time when) {
        if (when >= horizon) return;
        sched.at(when, [&, r, when] {
          net::Packet p;
          p.src = r->id();
          p.dst = net::kBroadcast;
          net::TransferData d;
          d.sender = r->id();
          d.payload_bytes = sp.payload_bytes;
          p.messages.push_back(std::move(d));
          r->send(p);
          arm(r, when + period);
        });
      };
  const auto t0 = Clock::now();
  for (int i = 0; i < sp.n_nodes; ++i) {
    arm(radios[static_cast<size_t>(i)].get(),
        sim::Time::ticks(period.raw_ticks() * i / sp.n_nodes));
  }
  sched.run();
  out.ms = ms_since(t0);
  out.deliveries = channel.stats().deliveries;
  out.transmissions = channel.stats().transmissions;
  return out;
}

// --- 3. Full chaos scenario --------------------------------------------------

core::ChaosRunConfig chaos_config(int grid_nx, int grid_ny, double horizon_s,
                                  bool indexed) {
  core::ChaosRunConfig cfg;
  cfg.seed = 7;
  cfg.grid_nx = grid_nx;
  cfg.grid_ny = grid_ny;
  cfg.horizon = sim::Time::seconds(horizon_s);
  cfg.faults.crash_probability = 0.3;
  cfg.faults.downtime_mean = sim::Time::seconds_i(45);
  cfg.faults.brownout_probability = 0.2;
  cfg.burst.enabled = true;
  cfg.link_asymmetry_max = 0.1;
  cfg.spatial_index = indexed;
  // Timing runs must not pay for the default flight-recorder trace ring or
  // the end-of-run payload census (a full store walk + drained payload read
  // per chunk); the profiled runs measure attribution and the coded-survival
  // section measures the census separately.
  cfg.flight_recorder = false;
  cfg.payload_census = false;
  return cfg;
}

struct ChaosTimed {
  double ms = 0.0;
  core::ChaosRunResult result;
};

ChaosTimed timed_chaos(int grid_nx, int grid_ny, double horizon_s,
                       bool indexed) {
  const auto cfg = chaos_config(grid_nx, grid_ny, horizon_s, indexed);
  ChaosTimed out;
  const auto t0 = Clock::now();
  out.result = core::run_chaos(cfg);
  out.ms = ms_since(t0);
  return out;
}

// Scheduler-profiled chaos run: answers ROADMAP's "is the event queue >15%
// of the run?" with a per-component wall-time attribution table. Runs apart
// from the timed/gated runs above (ProfileScope clock reads are not free),
// and emits prof_<name>_<tag>_pct keys into the results JSON.
void profiled_chaos(int grid_nx, int grid_ny, double horizon_s,
                    const std::string& name,
                    std::map<std::string, double>& results) {
  auto cfg = chaos_config(grid_nx, grid_ny, horizon_s, true);
  cfg.profile = true;
  const auto res = core::run_chaos(cfg);
  const auto& rep = res.profile;
  std::printf("profile %s: %.1f ms over %llu callbacks\n", name.c_str(),
              rep.total_ms, static_cast<unsigned long long>(rep.fires));
  for (const auto& line : rep.lines) {
    results["prof_" + name + "_" + line.tag + "_pct"] = line.pct;
    std::printf("  %-18s %6.2f%%  %9.1f ms  %10llu fires\n", line.tag,
                line.pct, line.self_ms,
                static_cast<unsigned long long>(line.fires));
  }
  results["prof_" + name + "_total_ms"] = rep.total_ms;
}

bool chaos_runs_identical(const core::ChaosRunResult& a,
                          const core::ChaosRunResult& b) {
  const auto& sa = a.final_snapshot;
  const auto& sb = b.final_snapshot;
  return a.channel_stats.transmissions == b.channel_stats.transmissions &&
         a.channel_stats.deliveries == b.channel_stats.deliveries &&
         a.channel_stats.losses_random == b.channel_stats.losses_random &&
         a.channel_stats.losses_collision == b.channel_stats.losses_collision &&
         a.channel_stats.losses_radio_off == b.channel_stats.losses_radio_off &&
         a.channel_stats.losses_burst == b.channel_stats.losses_burst &&
         sa.total_messages == sb.total_messages &&
         sa.miss_ratio == sb.miss_ratio &&
         sa.per_node_used_bytes == sb.per_node_used_bytes &&
         a.live_chunks == b.live_chunks;
}

// --- 4. Migration drain: windowed pipeline vs stop-and-wait ------------------

struct MigrateResult {
  double ms = 0.0;
  double sim_s = 0.0;  //!< simulated time until every hot store drained
  std::uint64_t chunks_moved = 0;
  std::uint64_t transmissions = 0;
  std::uint64_t deliveries = 0;
  std::uint32_t max_in_flight = 0;
  std::uint32_t fragments_retried = 0;
  std::uint32_t window_stalls = 0;
};

/// Isolated clusters (clusters far outside each other's comm range), each a
/// short line of nodes at grid pitch with one hot node full of chunks next to
/// one cold sink; the host loop re-issues bulk-transfer sessions whenever a
/// hot node sits idle with chunks left, so the drain is transfer-limited
/// rather than balancer-cooldown-limited. The wall clock covers everything
/// the deployment pays until the backlog lands: fragment and ack events,
/// CSMA checks, bystander receptions, and the per-sim-second standing
/// machinery (detector polls, beacons, balancer ticks) of every node — which
/// the slower stop-and-wait drain keeps running for window-times longer.
MigrateResult migrate_drain(std::uint32_t window, std::uint64_t seed) {
  constexpr int kPairs = 16;
  constexpr int kClusterNodes = 20;  //!< hot + cold + bystanders/recorders
  constexpr int kChunks = 16;
  constexpr std::uint32_t kChunkBytes = 4096;  // 64 fragments at 64 B
  core::WorldConfig wc;
  wc.seed = seed;
  // Clean channel: this scenario times the fragment pipeline's event cost,
  // not loss recovery (the chaos scenarios and the migration chaos tests
  // cover the lossy paths). CSMA and half-duplex contention stay on.
  wc.channel.loss_probability = 0.0;
  wc.node_defaults = core::paper_node_params(core::Mode::kFull, 2.0);
  if (window != 0) wc.node_defaults.protocol.transfer_window_frags = window;
  auto world = std::make_unique<core::World>(wc);
  std::vector<core::Node*> hot, cold;
  for (int p = 0; p < kPairs; ++p) {
    const double y = 100.0 * p;  // clusters cannot hear each other
    hot.push_back(&world->add_node({0.0, y}));
    cold.push_back(&world->add_node({2.0, y}));
    for (int i = 2; i < kClusterNodes; ++i) {
      world->add_node({2.0 * i, y});
    }
    // A sound source at the far end of each cluster keeps the deployment
    // recording while it balances (election, task rotation, 4 Hz SENSING
    // heartbeats among the hearers) — the live-network cost every extra
    // simulated second of a slow drain keeps paying. The hearers sit
    // outside the transfer link's carrier-sense range so the recording
    // traffic doesn't pace the drain, and out of sensing range of the
    // hot/cold pair so the drained backlog stays fixed.
    world->add_source(
        std::make_shared<acoustic::StaticTrajectory>(sim::Position{27.0, y}),
        std::make_shared<acoustic::ConstantWave>(1.0), sim::Time{},
        sim::Time::seconds_i(3600), 1.0, 7.5);
  }
  for (auto* n : hot) {
    for (int i = 0; i < kChunks; ++i) {
      storage::Chunk c;
      c.meta.key = n->store().next_key(n->id());
      c.meta.bytes = kChunkBytes;
      c.meta.recorded_by = n->id();
      n->store().append(std::move(c));
    }
  }
  world->start();

  MigrateResult out;
  const auto horizon = sim::Time::seconds_i(1800);
  const auto t0 = Clock::now();
  while (world->sched().now() < horizon) {
    bool backlog = false;
    for (int p = 0; p < kPairs; ++p) {
      if (hot[static_cast<size_t>(p)]->store().chunk_count() == 0) continue;
      backlog = true;
      auto& h = *hot[static_cast<size_t>(p)];
      if (!h.bulk().sending())
        h.bulk().start_session(cold[static_cast<size_t>(p)]->id(), kChunks);
    }
    if (!backlog) break;
    world->run_for(sim::Time::millis(100));
  }
  out.ms = ms_since(t0);
  out.sim_s = static_cast<double>(world->sched().now().raw_ticks()) /
              static_cast<double>(sim::Time::seconds_i(1).raw_ticks());
  for (auto* n : cold) out.chunks_moved += n->store().chunk_count();
  out.transmissions = world->channel().stats().transmissions;
  out.deliveries = world->channel().stats().deliveries;
  const auto snap = world->snapshot();
  out.max_in_flight = snap.transfer_max_in_flight;
  out.fragments_retried = snap.transfer_fragments_retried;
  out.window_stalls = snap.transfer_window_stalls;
  if (out.chunks_moved != static_cast<std::uint64_t>(kPairs) * kChunks) {
    std::fprintf(stderr, "migration drain incomplete: %llu/%d chunks moved\n",
                 static_cast<unsigned long long>(out.chunks_moved),
                 kPairs * kChunks);
  }
  return out;
}

bool migrate_runs_identical(const MigrateResult& a, const MigrateResult& b) {
  return a.sim_s == b.sim_s && a.chunks_moved == b.chunks_moved &&
         a.transmissions == b.transmissions && a.deliveries == b.deliveries &&
         a.max_in_flight == b.max_in_flight;
}

// --- JSON plumbing -----------------------------------------------------------

/// Extract `"key": <number>` from a (flat, trusted) JSON file we wrote
/// ourselves; returns false when absent.
bool json_number(const std::string& text, const std::string& key, double* out) {
  const auto at = text.find("\"" + key + "\"");
  if (at == std::string::npos) return false;
  const auto colon = text.find(':', at);
  if (colon == std::string::npos) return false;
  return std::sscanf(text.c_str() + colon + 1, "%lf", out) == 1;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  std::string out_path = "results/BENCH_sim.json";
  std::string baseline_path;
  double max_regress = 0.25;
  for (int i = 1; i < argc; ++i) {
    if (!std::strcmp(argv[i], "--quick")) {
      quick = true;
    } else if (!std::strcmp(argv[i], "--out") && i + 1 < argc) {
      out_path = argv[++i];
    } else if (!std::strcmp(argv[i], "--baseline") && i + 1 < argc) {
      baseline_path = argv[++i];
    } else if (!std::strcmp(argv[i], "--max-regress") && i + 1 < argc) {
      max_regress = std::atof(argv[++i]);
    } else {
      std::fprintf(stderr,
                   "usage: %s [--quick] [--out PATH] [--baseline PATH] "
                   "[--max-regress F]\n",
                   argv[0]);
      return 1;
    }
  }

  // Read the baseline before running, so --out and --baseline may point at
  // the same file (the CI smoke lane overwrites the committed trajectory
  // point after gating against it).
  std::string baseline_text;
  if (!baseline_path.empty()) {
    std::ifstream in(baseline_path);
    std::stringstream ss;
    ss << in.rdbuf();
    baseline_text = ss.str();
  }

  std::map<std::string, double> results;
  // Every check that failed, by name. Any one but the host-timed fleet
  // speed-up fails the run with exit 2; that one exits 3 (slow_host).
  // The JSON's determinism_ok covers only the divergence checks, the runs
  // that must match bit for bit: indexed vs linear, telemetry on vs dark,
  // repeat seeds, and the fleet's bytes across -j.
  std::vector<std::string> failed;
  bool slow_host = false;
  bool determinism_ok = true;
  auto diverged = [&](const std::string& name) {
    failed.push_back(name);
    determinism_ok = false;
  };

  // 1. Event-queue churn.
  {
    std::uint64_t ops = 0;
    const double ms = bench_event_queue_churn(quick ? 200 : 2000, &ops);
    results["event_queue_churn_ms"] = ms;
    results["event_queue_ops_per_sec"] =
        ms > 0 ? static_cast<double>(ops) / (ms / 1000.0) : 0.0;
    std::printf("event-queue churn: %.1f ms (%.2fM ops/s)\n", ms,
                results["event_queue_ops_per_sec"] / 1e6);
  }

  // 2. Broadcast storms, indexed vs linear. The base variant keeps carrier
  // sense off (hidden-terminal saturation, the delivery path's worst case);
  // the CSMA variant uses the channel's default sense range so the spatial
  // backoff serializes the medium and the backoff/retry machinery is what
  // gets timed (ROADMAP open item: track the backoff path's constants).
  const double storm_s = quick ? 10.0 : 30.0;
  for (const bool csma : {false, true}) {
    for (const int n : {200, 500}) {
      StormParams sp;
      sp.n_nodes = n;
      sp.sim_seconds = storm_s;
      if (csma) sp.carrier_sense_factor = net::ChannelConfig{}.carrier_sense_factor;
      const auto indexed = broadcast_storm(sp, /*indexed=*/true);
      const auto linear = broadcast_storm(sp, /*indexed=*/false);
      const std::string tag =
          "broadcast_" + std::to_string(n) + (csma ? "_csma" : "");
      results[tag + "_indexed_ms"] = indexed.ms;
      results[tag + "_linear_ms"] = linear.ms;
      results[tag + "_speedup"] = indexed.ms > 0 ? linear.ms / indexed.ms : 0.0;
      if (indexed.deliveries != linear.deliveries ||
          indexed.transmissions != linear.transmissions ||
          indexed.received != linear.received) {
        diverged(tag + " indexed vs linear");
        std::fprintf(stderr, "DIVERGENCE: broadcast %d%s indexed vs linear\n",
                     n, csma ? " (csma)" : "");
      }
      std::printf(
          "broadcast storm %3d nodes%s: indexed %.1f ms, linear %.1f ms "
          "(%.1fx), %llu deliveries\n",
          n, csma ? " (csma)" : "       ", indexed.ms, linear.ms,
          results[tag + "_speedup"],
          static_cast<unsigned long long>(indexed.deliveries));
    }
  }

  // 3. Chaos scenarios. 50 and 200 nodes always; the 500-node pair only in
  // the full run (the linear soak is the slow one). The 200-node scenario is
  // the regression-gated metric, so it always runs the full horizon — quick
  // numbers must stay comparable with the committed full-run baseline.
  const double chaos_s = quick ? 180.0 : 600.0;
  {
    const auto c50 = timed_chaos(10, 5, chaos_s, true);
    results["chaos_50_ms"] = c50.ms;
    std::printf("chaos  50 nodes: %.1f ms\n", c50.ms);

    const auto c200 = timed_chaos(20, 10, 600.0, true);
    results["chaos_200_ms"] = c200.ms;
    std::printf("chaos 200 nodes: %.1f ms\n", c200.ms);
    const auto c200_lin = timed_chaos(20, 10, 600.0, false);
    results["chaos_200_linear_ms"] = c200_lin.ms;
    results["chaos_200_speedup"] =
        c200.ms > 0 ? c200_lin.ms / c200.ms : 0.0;
    if (!chaos_runs_identical(c200.result, c200_lin.result)) {
      diverged("chaos_200 indexed vs linear");
      std::fprintf(stderr, "DIVERGENCE: chaos 200 indexed vs linear\n");
    }
    std::printf("chaos 200 linear: %.1f ms (%.1fx)\n", c200_lin.ms,
                results["chaos_200_speedup"]);

    // 3c. Telemetry plane overhead: the gated 200-node scenario again with
    // the series recorder lit at the 1 s default cadence, against the dark
    // c200 run above. Sampling must be a pure observer — the lit run has to
    // match the dark run bit for bit — and the committed overhead target is
    // <= 10% (DESIGN §10); the pct is a trajectory number, not a gate, so a
    // loaded box can't false-fail the bench on timing noise alone.
    {
      // Best-of-2 on both sides (the dark side reuses the gated c200 run as
      // one of its repeats): the overhead is a ratio of two ~60 ms runs, so
      // single-run scheduler noise on a loaded box would swamp the signal.
      std::uint64_t samples = 0;
      auto timed_lit = [&] {
        auto tcfg = chaos_config(20, 10, 600.0, true);
        tcfg.series_interval = sim::Time::seconds_i(1);
        ChaosTimed out;
        const auto t0 = Clock::now();
        out.result = core::run_chaos(tcfg);
        out.ms = ms_since(t0);
        samples = out.result.telemetry.sample_count();
        return out;
      };
      const auto lit1 = timed_lit();
      const auto lit2 = timed_lit();
      const auto dark2 = timed_chaos(20, 10, 600.0, true);
      const double lit_ms = std::min(lit1.ms, lit2.ms);
      const double dark_ms = std::min(c200.ms, dark2.ms);
      const double overhead_pct =
          dark_ms > 0 ? (lit_ms / dark_ms - 1.0) * 100.0 : 0.0;
      results["telemetry_chaos_200_ms"] = lit_ms;
      results["telemetry_samples"] = static_cast<double>(samples);
      results["telemetry_overhead_pct"] = overhead_pct;
      if (!chaos_runs_identical(c200.result, lit1.result) ||
          !chaos_runs_identical(c200.result, lit2.result)) {
        diverged("chaos_200 telemetry-on vs dark");
        std::fprintf(stderr, "DIVERGENCE: chaos 200 telemetry-on vs dark\n");
      }
      if (samples == 0) {
        failed.push_back("telemetry samples");
        std::fprintf(stderr, "FAIL: telemetry leg took no samples\n");
      }
      std::printf(
          "chaos 200 telemetry @1s: %.1f ms vs dark %.1f ms "
          "(%llu samples, %+.1f%% overhead)\n",
          lit_ms, dark_ms, static_cast<unsigned long long>(samples),
          overhead_pct);
    }

    if (!quick) {
      const auto c500 = timed_chaos(25, 20, chaos_s, true);
      results["chaos_500_ms"] = c500.ms;
      const auto c500_lin = timed_chaos(25, 20, chaos_s, false);
      results["chaos_500_linear_ms"] = c500_lin.ms;
      results["chaos_500_speedup"] =
          c500.ms > 0 ? c500_lin.ms / c500.ms : 0.0;
      if (!chaos_runs_identical(c500.result, c500_lin.result)) {
        diverged("chaos_500 indexed vs linear");
        std::fprintf(stderr, "DIVERGENCE: chaos 500 indexed vs linear\n");
      }
      std::printf("chaos 500 nodes: indexed %.1f ms, linear %.1f ms (%.1fx)\n",
                  c500.ms, c500_lin.ms, results["chaos_500_speedup"]);
    }
  }

  // 3b. Scheduler attribution on the chaos scenarios (separate runs; the
  // ProfileScope clock reads would distort the gated timings above). Quick
  // mode shortens the 200-node horizon and skips 500 — percentages stay
  // meaningful, only the absolute total shrinks.
  profiled_chaos(20, 10, chaos_s, "chaos_200", results);
  if (!quick) profiled_chaos(25, 20, chaos_s, "chaos_500", results);

  // 4. Migration drain: the windowed pipeline vs the stop-and-wait
  // degenerate (window pinned to 1) on an identical preloaded backlog. Runs
  // the same size in quick and full mode — it's fast, and the gated
  // migrate_windowed_ms must stay comparable with the committed full-mode
  // baseline. Each config runs three times on the same seed; the best wall
  // clock is reported (standard for wall benches on a loaded machine) and
  // every repeat must match the first bit for bit — the repeated-seed
  // determinism check.
  {
    const std::uint64_t seed = 71;
    auto best_of = [&](std::uint32_t window, const char* tag) {
      MigrateResult best;
      for (int rep = 0; rep < 3; ++rep) {
        auto r = migrate_drain(window, seed);
        if (rep == 0) {
          best = r;
        } else {
          if (!migrate_runs_identical(best, r)) {
            diverged(std::string(tag) + " migration drain repeat-seed run");
            std::fprintf(stderr,
                         "DIVERGENCE: %s migration drain repeat-seed run\n",
                         tag);
          }
          if (r.ms < best.ms) best.ms = r.ms;
        }
      }
      return best;
    };
    const auto windowed = best_of(/*window=*/0, "windowed");
    const auto stopwait = best_of(/*window=*/1, "stop-and-wait");
    results["migrate_windowed_ms"] = windowed.ms;
    results["migrate_stopwait_ms"] = stopwait.ms;
    results["migrate_speedup"] =
        windowed.ms > 0 ? stopwait.ms / windowed.ms : 0.0;
    results["migrate_windowed_sim_s"] = windowed.sim_s;
    results["migrate_stopwait_sim_s"] = stopwait.sim_s;
    if (windowed.max_in_flight <= 1) {
      failed.push_back("migration drain pipelining");
      std::fprintf(stderr,
                   "migration drain never pipelined (max_in_flight %u)\n",
                   windowed.max_in_flight);
    }
    std::printf(
        "migration drain: windowed %.1f ms (%.1f sim s, %llu tx, "
        "%u retried, %u stalls), stop-and-wait %.1f ms (%.1f sim s, "
        "%llu tx, %u retried) — %.1fx wall clock\n",
        windowed.ms, windowed.sim_s,
        static_cast<unsigned long long>(windowed.transmissions),
        windowed.fragments_retried, windowed.window_stalls, stopwait.ms,
        stopwait.sim_s, static_cast<unsigned long long>(stopwait.transmissions),
        stopwait.fragments_retried, results["migrate_speedup"]);
  }

  // 5. Coded survival: the same seeded permanent-death campaign under three
  // storage disciplines — whole-chunk migration (~1x stored bytes),
  // erasure-coded dispersal (k=2 of n=4, ~2x), and replicated recording
  // (2 copies, the same ~2x without coding). Reports payload survival,
  // redundancy overhead (stored bytes / original bytes), and drain traffic;
  // the coded leg runs twice on one seed as a repeat-determinism check and
  // coded_chaos_ms joins the regression gate. Runs the full horizon in quick
  // mode too, so the gated number stays comparable with the committed
  // full-run baseline.
  {
    auto survival_cfg = [](core::StoragePolicy pol, int replicas) {
      core::ChaosRunConfig cfg;
      cfg.seed = 9;
      cfg.grid_nx = 6;
      cfg.grid_ny = 4;
      cfg.horizon = sim::Time::seconds_i(900);
      cfg.faults.crash_probability = 0.5;
      cfg.faults.permanent_fraction = 1.0;
      cfg.faults.lose_data_fraction = 1.0;
      cfg.flight_recorder = false;
      cfg.storage_policy = pol;
      cfg.coded_k = 2;
      cfg.coded_n = 4;
      cfg.recording_replicas = replicas;
      return cfg;
    };
    auto timed = [](const core::ChaosRunConfig& cfg) {
      ChaosTimed out;
      const auto t0 = Clock::now();
      out.result = core::run_chaos(cfg);
      out.ms = ms_since(t0);
      return out;
    };
    auto overhead = [](const core::ChaosRunResult& r) {
      return r.census_original_bytes > 0
                 ? static_cast<double>(r.census_stored_bytes) /
                       static_cast<double>(r.census_original_bytes)
                 : 1.0;
    };
    const auto plain =
        timed(survival_cfg(core::StoragePolicy::kMigrate, 1));
    const auto coded = timed(survival_cfg(core::StoragePolicy::kCoded, 1));
    const auto coded_rep =
        timed(survival_cfg(core::StoragePolicy::kCoded, 1));
    const auto replicated =
        timed(survival_cfg(core::StoragePolicy::kMigrate, 2));
    if (!chaos_runs_identical(coded.result, coded_rep.result) ||
        coded.result.payloads_reconstructible !=
            coded_rep.result.payloads_reconstructible ||
        coded.result.coded.fragments_placed !=
            coded_rep.result.coded.fragments_placed) {
      diverged("coded survival repeat-seed run");
      std::fprintf(stderr, "DIVERGENCE: coded survival repeat-seed run\n");
    }
    for (const auto* leg : {&plain, &coded, &replicated}) {
      if (!leg->result.invariants_hold()) {
        failed.push_back("coded survival invariants");
        std::fprintf(stderr, "FAIL: coded survival invariants violated\n");
      }
    }
    if (coded.result.coded.chunks_coded == 0) {
      failed.push_back("coded survival coded chunks");
      std::fprintf(stderr, "FAIL: coded survival leg never coded a chunk\n");
    }
    // The tentpole claim, gated: under the same deaths, coded dispersal
    // keeps strictly more payloads reconstructible than plain migration,
    // and survives at a higher rate than replication at matched overhead.
    if (coded.result.payloads_reconstructible <=
        plain.result.payloads_reconstructible) {
      failed.push_back("coded survival beats plain migration");
      std::fprintf(stderr,
                   "FAIL: coded survival %llu <= plain migration %llu\n",
                   static_cast<unsigned long long>(
                       coded.result.payloads_reconstructible),
                   static_cast<unsigned long long>(
                       plain.result.payloads_reconstructible));
    }
    auto rate = [](const core::ChaosRunResult& r) {
      return r.payloads_total > 0
                 ? static_cast<double>(r.payloads_reconstructible) /
                       static_cast<double>(r.payloads_total)
                 : 0.0;
    };
    results["coded_chaos_ms"] = coded.ms;
    results["coded_payloads_total"] =
        static_cast<double>(coded.result.payloads_total);
    results["coded_reconstructible"] =
        static_cast<double>(coded.result.payloads_reconstructible);
    results["coded_lost_to_death"] =
        static_cast<double>(coded.result.payloads_lost_to_death);
    results["coded_survival_rate"] = rate(coded.result);
    results["coded_overhead_x"] = overhead(coded.result);
    results["coded_drain_bytes"] =
        static_cast<double>(coded.result.drained_bytes);
    results["coded_decode_reconstructed"] =
        static_cast<double>(coded.result.decode.groups_reconstructed);
    results["coded_decode_partial"] =
        static_cast<double>(coded.result.decode.groups_partial);
    results["migrate_payloads_total"] =
        static_cast<double>(plain.result.payloads_total);
    results["migrate_reconstructible"] =
        static_cast<double>(plain.result.payloads_reconstructible);
    results["migrate_lost_to_death"] =
        static_cast<double>(plain.result.payloads_lost_to_death);
    results["migrate_survival_rate"] = rate(plain.result);
    results["migrate_overhead_x"] = overhead(plain.result);
    results["migrate_drain_bytes"] =
        static_cast<double>(plain.result.drained_bytes);
    results["replicated_survival_rate"] = rate(replicated.result);
    results["replicated_overhead_x"] = overhead(replicated.result);
    std::printf(
        "coded survival: migrate %llu/%llu payloads (%.2fx stored), "
        "coded %llu/%llu (%.2fx stored, %llu decoded, %llu partial), "
        "replicated %.0f%% at %.2fx — coded leg %.1f ms\n",
        static_cast<unsigned long long>(plain.result.payloads_reconstructible),
        static_cast<unsigned long long>(plain.result.payloads_total),
        overhead(plain.result),
        static_cast<unsigned long long>(coded.result.payloads_reconstructible),
        static_cast<unsigned long long>(coded.result.payloads_total),
        overhead(coded.result),
        static_cast<unsigned long long>(
            coded.result.decode.groups_reconstructed),
        static_cast<unsigned long long>(coded.result.decode.groups_partial),
        rate(replicated.result) * 100.0, overhead(replicated.result),
        coded.ms);
  }

  // 5b. Retrieval plane: spanning-tree drains from the grid corners under
  // the standard chaos storm — the same 200-node world as the gated chaos
  // leg, with 1/2/4 sinks flooding "/chunks/all" at the horizon and hauling
  // the field home through an extended grace tail. Reports wall clock,
  // simulated drain span, and the drain miss ratio per sink count; the
  // 2-sink leg runs twice on one seed as the repeat-determinism check and
  // retrieval_drain_2_ms joins the regression gate. Runs the same size in
  // quick and full mode so the gated number stays comparable with the
  // committed full-run baseline.
  {
    auto drain_cfg = [](int sinks) {
      auto cfg = chaos_config(20, 10, 300.0, /*indexed=*/true);
      cfg.grace = sim::Time::seconds_i(300);
      cfg.drain_sinks = sinks;
      cfg.drain_hops = 30;  // corner-to-corner on the 20x10 grid
      return cfg;
    };
    auto timed_drain = [&](int sinks) {
      ChaosTimed out;
      const auto t0 = Clock::now();
      out.result = core::run_chaos(drain_cfg(sinks));
      out.ms = ms_since(t0);
      return out;
    };
    std::map<int, ChaosTimed> legs;
    for (int sinks : {1, 2, 4}) {
      legs[sinks] = timed_drain(sinks);
      const auto& r = legs[sinks].result;
      const std::string tag = "retrieval_drain_" + std::to_string(sinks);
      results[tag + "_ms"] = legs[sinks].ms;
      results[tag + "_span_s"] = r.retrieval_drain_span.to_seconds();
      results["retrieval_miss_" + std::to_string(sinks)] =
          r.retrieval_miss_ratio;
      if (!r.invariants_hold()) {
        failed.push_back(
            "retrieval drain " + std::to_string(sinks) + " sinks invariants");
        std::fprintf(stderr, "FAIL: retrieval drain (%d sinks) invariants\n",
                     sinks);
      }
      if (r.retrieval_collected == 0 ||
          r.final_snapshot.retrieval_chunks_relayed == 0) {
        failed.push_back(
            "retrieval drain " + std::to_string(sinks) + " sinks collected");
        std::fprintf(stderr,
                     "FAIL: retrieval drain (%d sinks) collected %llu, "
                     "relayed %u — the pipeline never ran\n",
                     sinks,
                     static_cast<unsigned long long>(r.retrieval_collected),
                     r.final_snapshot.retrieval_chunks_relayed);
      }
      std::printf(
          "retrieval drain %d sink%s: %.1f ms wall, %.1f sim s span, "
          "%llu/%llu eligible collected (+%llu late, miss %.3f), %u relayed, "
          "%llu double\n",
          sinks, sinks == 1 ? " " : "s", legs[sinks].ms,
          r.retrieval_drain_span.to_seconds(),
          static_cast<unsigned long long>(r.retrieval_collected -
                                          r.retrieval_late_arrivals),
          static_cast<unsigned long long>(r.retrieval_eligible),
          static_cast<unsigned long long>(r.retrieval_late_arrivals),
          r.retrieval_miss_ratio, r.final_snapshot.retrieval_chunks_relayed,
          static_cast<unsigned long long>(r.retrieval_double_uploads));
    }
    results["retrieval_double_uploads"] =
        static_cast<double>(legs[2].result.retrieval_double_uploads);
    const auto rep = timed_drain(2);
    if (!chaos_runs_identical(legs[2].result, rep.result) ||
        legs[2].result.retrieval_collected != rep.result.retrieval_collected ||
        legs[2].result.retrieval_double_uploads !=
            rep.result.retrieval_double_uploads ||
        legs[2].result.retrieval_drain_span != rep.result.retrieval_drain_span) {
      diverged("retrieval drain repeat-seed run");
      std::fprintf(stderr, "DIVERGENCE: retrieval drain repeat-seed run\n");
    }
  }

  // 6. Fleet scaling: the same 16-world chaos campaign (2 crash-rate points
  // x 8 seeds) through the multi-process fleet runner at -j1 and -jN
  // (N = hardware threads). The merged reports must be byte-identical —
  // that's the runner's determinism contract — and the parallel leg must
  // deliver at least 0.7 x min(N, worlds) speedup (perfect scaling is
  // min(N, worlds); on a single-core box the gate degenerates to "no
  // slowdown"). Quick mode shrinks the horizon: fleet_* keys are scaling
  // diagnostics, not regression-gated timings.
  {
    core::FleetSpec spec;
    spec.scenario = "chaos";
    spec.seeds_per_point = 8;
    spec.sweep.push_back({"crash", {0.2, 0.4}});
    spec.fixed.emplace_back("horizon", quick ? 60.0 : 120.0);
    spec.fixed.emplace_back("downtime", 30.0);
    // Telemetry series ride along in every world: the merged percentile
    // bands must come out byte-identical at -j1 and -jN too (the workers
    // sample in-process, the parent merges in (point, seed) order).
    spec.series_interval_s = 10.0;
    spec.series_dir = "/tmp/enviromic_bench_series";
    const int n_jobs = std::max(1u, std::thread::hardware_concurrency());

    spec.jobs = 1;
    const auto t1 = Clock::now();
    const auto j1 = core::run_fleet(spec);
    const double j1_ms = ms_since(t1);
    spec.jobs = n_jobs;
    const auto tn = Clock::now();
    const auto jn = core::run_fleet(spec);
    const double jn_ms = ms_since(tn);

    if (!j1.ok() || !jn.ok() || j1.failed != 0 || jn.failed != 0) {
      failed.push_back("fleet failed worlds");
      std::fprintf(stderr, "FAIL: fleet campaign had failed worlds\n");
    }
    if (j1.report_json != jn.report_json) {
      diverged("fleet -j1 vs -jN report bytes");
      std::fprintf(stderr,
                   "DIVERGENCE: fleet -j1 vs -j%d report bytes\n", n_jobs);
    }
    if (j1.series_report.empty() || j1.series_report != jn.series_report) {
      diverged("fleet -j1 vs -jN series bands");
      std::fprintf(stderr,
                   "DIVERGENCE: fleet -j1 vs -j%d merged series bands\n",
                   n_jobs);
    }
    const double speedup = jn_ms > 0 ? j1_ms / jn_ms : 0.0;
    const double ideal = std::min<double>(n_jobs, j1.worlds);
    const double efficiency = ideal > 0 ? speedup / ideal : 0.0;
    results["fleet_worlds"] = j1.worlds;
    results["fleet_jobs"] = n_jobs;
    results["fleet_j1_ms"] = j1_ms;
    results["fleet_jn_ms"] = jn_ms;
    results["fleet_speedup"] = speedup;
    results["fleet_efficiency"] = efficiency;
    if (efficiency < 0.7) {
      failed.push_back("fleet speedup");
      slow_host = true;
      std::fprintf(stderr,
                   "FAIL: fleet speedup %.2fx < 0.7 x min(%d jobs, %d "
                   "worlds)\n",
                   speedup, n_jobs, j1.worlds);
    }
    std::printf(
        "fleet: %d chaos worlds, -j1 %.1f ms, -j%d %.1f ms (%.2fx, "
        "%.0f%% of ideal), reports %s\n",
        j1.worlds, j1_ms, n_jobs, jn_ms, speedup, efficiency * 100.0,
        j1.report_json == jn.report_json ? "byte-identical" : "DIVERGED");
  }

  // Emit the JSON trajectory point.
  {
    std::ofstream out(out_path);
    out << "{\n  \"bench\": \"perf_substrates\",\n  \"schema\": 1,\n"
        << "  \"mode\": \"" << (quick ? "quick" : "full") << "\",\n"
        << "  \"determinism_ok\": " << (determinism_ok ? "true" : "false")
        << ",\n  \"failed_checks\": [";
    for (std::size_t i = 0; i < failed.size(); ++i)
      out << (i == 0 ? "\"" : ", \"") << failed[i] << "\"";
    out << "],\n  \"results\": {\n";
    bool first = true;
    for (const auto& [k, v] : results) {
      if (!first) out << ",\n";
      first = false;
      char buf[64];
      std::snprintf(buf, sizeof buf, "%.3f", v);
      out << "    \"" << k << "\": " << buf;
    }
    out << "\n  }\n}\n";
    std::printf("wrote %s\n", out_path.c_str());
  }

  // Regression gate against the committed baseline. Every gated key runs the
  // same configuration in quick and full mode, so the CI smoke numbers are
  // comparable with the committed full-run trajectory point.
  bool regressed = false;
  if (!baseline_text.empty()) {
    for (const char* key :
         {"chaos_200_ms", "migrate_windowed_ms", "coded_chaos_ms",
          "retrieval_drain_2_ms"}) {
      double base = 0.0;
      if (!json_number(baseline_text, key, &base) || base <= 0.0) {
        std::printf("regression gate: no usable %s baseline, skipping\n", key);
        continue;
      }
      const double now = results[key];
      const double ratio = now / base;
      std::printf("regression gate: %s %.1f vs baseline %.1f "
                  "(%.2fx, limit %.2fx)\n",
                  key, now, base, ratio, 1.0 + max_regress);
      if (ratio > 1.0 + max_regress) {
        std::fprintf(stderr, "FAIL: %s regressed %.0f%% (> %.0f%%)\n", key,
                     (ratio - 1.0) * 100.0, max_regress * 100.0);
        regressed = true;
      }
    }
  }

  if (!failed.empty()) {
    std::string names;
    for (const auto& name : failed) names += (names.empty() ? "" : "; ") + name;
    std::fprintf(stderr, "FAIL: %zu check(s) failed: %s\n", failed.size(),
                 names.c_str());
  }
  // A wrong result outranks a slow host.
  if (failed.size() > (slow_host ? 1u : 0u)) return 2;
  return slow_host || regressed ? 3 : 0;
}
