// The benchmark's own tests: its world builders must reproduce the worlds
// users run through core::run_indoor / run_outdoor / run_chaos, and its
// ledger must add up. Horizons are shortened to keep the suite quick.

#include <gtest/gtest.h>

#include <numeric>

#include "core/experiment.h"
#include "worlds.h"

namespace {

namespace core = enviromic::core;
namespace sim = enviromic::sim;
using perfbench::Workload;

void expect_same_snapshot(const core::Metrics::Snapshot& a,
                          const core::Metrics::Snapshot& b) {
  EXPECT_EQ(a.t, b.t);
  EXPECT_EQ(a.miss_ratio, b.miss_ratio);
  EXPECT_EQ(a.redundancy_ratio, b.redundancy_ratio);
  EXPECT_EQ(a.hearable, b.hearable);
  EXPECT_EQ(a.covered_unique, b.covered_unique);
  EXPECT_EQ(a.stored_total, b.stored_total);
  EXPECT_EQ(a.total_messages, b.total_messages);
  EXPECT_EQ(a.control_messages, b.control_messages);
  EXPECT_EQ(a.transfer_messages, b.transfer_messages);
  EXPECT_EQ(a.per_node_ids, b.per_node_ids);
  EXPECT_EQ(a.per_node_used_bytes, b.per_node_used_bytes);
  EXPECT_EQ(a.per_node_packets_sent, b.per_node_packets_sent);
  EXPECT_EQ(a.per_node_recorded_bytes, b.per_node_recorded_bytes);
  EXPECT_EQ(a.per_node_battery_j, b.per_node_battery_j);
  EXPECT_EQ(a.faults.crashes, b.faults.crashes);
  EXPECT_EQ(a.faults.reboots, b.faults.reboots);
  EXPECT_EQ(a.faults.brownouts, b.faults.brownouts);
  EXPECT_EQ(a.faults.chunks_recovered, b.faults.chunks_recovered);
  EXPECT_EQ(a.transfer_aborts, b.transfer_aborts);
  EXPECT_EQ(a.transfer_fragments_retried, b.transfer_fragments_retried);
  EXPECT_EQ(a.retrieval_chunks_uploaded, b.retrieval_chunks_uploaded);
  EXPECT_EQ(a.retrieval_chunks_relayed, b.retrieval_chunks_relayed);
  EXPECT_EQ(a.retrieval_relay_fallbacks, b.retrieval_relay_fallbacks);
  EXPECT_EQ(a.retrieval_descriptor_acks, b.retrieval_descriptor_acks);
}

TEST(PerfbenchWorlds, IndoorMatchesRunIndoor) {
  const std::uint64_t seed = 11;
  const auto specs = perfbench::pass_worlds(Workload::kPaperIndoor, seed);
  ASSERT_EQ(specs.size(), 5u);
  for (auto spec : specs) {
    spec.horizon = sim::Time::seconds_i(630);  // not a whole sample period
    core::IndoorRunConfig cfg;
    cfg.mode = spec.mode;
    cfg.beta_max = spec.beta_max;
    cfg.seed = seed;
    cfg.horizon = spec.horizon;
    const auto want = core::run_indoor(cfg);
    const auto got = perfbench::run_world(spec, nullptr);
    SCOPED_TRACE(spec.label);
    EXPECT_EQ(got.snapshots, want.series.size());
    expect_same_snapshot(got.final_snapshot, want.series.back());
    EXPECT_TRUE(got.census.ok()) << got.census.failure();
  }
}

TEST(PerfbenchWorlds, OutdoorMatchesRunOutdoor) {
  const std::uint64_t seed = 31;
  auto spec = perfbench::pass_worlds(Workload::kPaperOutdoor, seed).at(0);
  spec.horizon = sim::Time::seconds_i(900);
  core::OutdoorRunConfig cfg;
  cfg.seed = seed;
  cfg.horizon = spec.horizon;
  const auto want = core::run_outdoor(cfg);
  const auto got = perfbench::run_world(spec, nullptr);
  expect_same_snapshot(got.final_snapshot, want.final_snapshot);
  EXPECT_EQ(got.snapshots, 1u);
  EXPECT_TRUE(got.census.ok()) << got.census.failure();
}

TEST(PerfbenchWorlds, ChaosMatchesRunChaosWithDrain) {
  const std::uint64_t seed = 5;
  for (auto spec : perfbench::pass_worlds(Workload::kChaosRetrieval, seed)) {
    spec.horizon = sim::Time::seconds_i(600);  // long enough to fill flash
    core::ChaosRunConfig cfg;
    cfg.seed = seed;
    cfg.grid_nx = 20;
    cfg.grid_ny = 10;
    cfg.horizon = spec.horizon;
    cfg.grace = spec.grace;
    cfg.faults.crash_probability = 0.3;
    cfg.faults.downtime_mean = sim::Time::seconds_i(45);
    cfg.faults.brownout_probability = 0.2;
    cfg.burst.enabled = true;
    cfg.link_asymmetry_max = 0.1;
    cfg.drain_sinks = spec.drain_sinks;
    cfg.flight_recorder = false;
    cfg.payload_census = false;
    const auto want = core::run_chaos(cfg);
    const auto got = perfbench::run_world(spec, nullptr);
    SCOPED_TRACE(spec.label);
    expect_same_snapshot(got.final_snapshot, want.final_snapshot);
    EXPECT_EQ(got.channel.transmissions, want.channel_stats.transmissions);
    EXPECT_EQ(got.channel.deliveries, want.channel_stats.deliveries);
    EXPECT_EQ(got.events, want.executed_events);
    // Same census verdicts as the chaos invariants.
    EXPECT_EQ(got.census.live_chunks, want.live_chunks);
    EXPECT_EQ(got.census.exact_once, want.retrieval_exact_once);
    EXPECT_EQ(got.census.recoverable, want.stores_recoverable);
    EXPECT_EQ(got.census.counters_consistent, want.counters_consistent);
    EXPECT_EQ(got.census.stuck_tx, want.stuck_tx_sessions);
    EXPECT_EQ(got.census.stuck_rx, want.stuck_rx_sessions);
    // Set-based accounting partitions the same collected keys.
    const auto& rt = got.retrieval;
    EXPECT_EQ(rt.eligible, want.retrieval_eligible);
    EXPECT_EQ(rt.collected_eligible + rt.late_arrivals,
              want.retrieval_collected);
    EXPECT_LE(rt.collected_eligible, rt.eligible);
    EXPECT_EQ(rt.double_uploads, want.retrieval_double_uploads);
    EXPECT_EQ(rt.drain_span_s, want.retrieval_drain_span.to_seconds());
    EXPECT_GT(rt.collected_eligible, 0u);
  }
}

TEST(PerfbenchLedger, TracedRunMatchesAndAddsUp) {
  auto spec = perfbench::pass_worlds(Workload::kChaosRetrieval, 3).at(0);
  spec.horizon = sim::Time::seconds_i(300);
  const auto plain = perfbench::run_world(spec, nullptr);
  perfbench::SpanLog log;
  const auto traced = perfbench::run_world(spec, &log);

  // The profiler is RNG-neutral: a traced world is the same simulation.
  EXPECT_TRUE(perfbench::same_simulation(plain, traced));
  EXPECT_EQ(plain.profile.fires, 0u);
  ASSERT_GT(traced.profile.fires, 0u);

  // Phases cover the wall time, profiler lines cover the run phase.
  const auto& ms = traced.ms;
  const double phases = ms.setup + ms.run + ms.metrics + ms.census + ms.other;
  EXPECT_NEAR(phases, ms.wall, ms.wall * perfbench::kPhaseGapTolerancePct / 100);
  double lines = 0.0;
  for (const auto& line : traced.profile.lines) lines += line.self_ms;
  EXPECT_NEAR(lines, ms.run, ms.run * perfbench::kProfilerGapTolerancePct / 100);
  EXPECT_EQ(ms.slices.size(), 42u);  // (300 s + 120 s grace) / 10 s
  EXPECT_NEAR(std::accumulate(ms.slices.begin(), ms.slices.end(), 0.0), ms.run,
              1e-9 * ms.run + 1e-12);
  EXPECT_LE(ms.drain_all + ms.recover, ms.census);

  // One root span per world; every other span nests under an earlier one.
  ASSERT_FALSE(log.spans().empty());
  EXPECT_EQ(log.spans().front().parent, -1);
  for (std::size_t i = 1; i < log.spans().size(); ++i) {
    const auto& s = log.spans()[i];
    ASSERT_GE(s.parent, 0);
    ASSERT_LT(static_cast<std::size_t>(s.parent), i);
    const auto& p = log.spans()[static_cast<std::size_t>(s.parent)];
    EXPECT_EQ(s.world, p.world);
    EXPECT_LE(p.start, s.start);
    EXPECT_LE(s.end, p.end);
  }
}

}  // namespace
