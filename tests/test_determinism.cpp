// Determinism of seeded runs across repeats and under every observer the
// shared run loop serves.
//
// For a given seed, the simulation must produce bit-identical results on
// every run. The chaos scenario is the harshest probe — crashes, reboots,
// brownouts, bursty asymmetric links, and CSMA contention all draw from the
// channel RNG, so any reordering of delivery visits or carrier-sense
// outcomes shows up as a diverging Metrics snapshot or channel counter. The
// observer checks run in every scenario, since all five runners share one
// run loop.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <sstream>
#include <string>
#include <vector>

#include "core/experiment.h"
#include "sim/trace.h"

namespace enviromic::core {
namespace {

ChaosRunConfig probe(std::uint64_t seed) {
  ChaosRunConfig cfg;
  cfg.seed = seed;
  cfg.horizon = sim::Time::seconds_i(600);
  cfg.faults.crash_probability = 0.4;
  cfg.faults.downtime_mean = sim::Time::seconds_i(45);
  cfg.faults.brownout_probability = 0.3;
  cfg.faults.clock_step_probability = 0.2;
  cfg.burst.enabled = true;
  cfg.link_asymmetry_max = 0.2;
  return cfg;
}

void expect_identical(const Metrics::Snapshot& a, const Metrics::Snapshot& b) {
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
  EXPECT_EQ(a.per_node_wear_max, b.per_node_wear_max);
  EXPECT_EQ(a.per_node_wear_min, b.per_node_wear_min);
  EXPECT_EQ(a.per_node_battery_j, b.per_node_battery_j);
  EXPECT_EQ(a.wear_spread, b.wear_spread);
  EXPECT_EQ(a.battery_total_j, b.battery_total_j);
  EXPECT_EQ(a.battery_min_j, b.battery_min_j);
  EXPECT_EQ(a.faults.crashes, b.faults.crashes);
  EXPECT_EQ(a.faults.permanent_failures, b.faults.permanent_failures);
  EXPECT_EQ(a.faults.reboots, b.faults.reboots);
  EXPECT_EQ(a.faults.brownouts, b.faults.brownouts);
  EXPECT_EQ(a.faults.clock_steps, b.faults.clock_steps);
  EXPECT_EQ(a.faults.chunks_recovered, b.faults.chunks_recovered);
  EXPECT_EQ(a.faults.recovery_mismatches, b.faults.recovery_mismatches);
  EXPECT_EQ(a.faults.downtime_total, b.faults.downtime_total);
  EXPECT_EQ(a.transfer_aborts, b.transfer_aborts);
  EXPECT_EQ(a.transfer_duplicate_risks, b.transfer_duplicate_risks);
  EXPECT_EQ(a.transfer_rx_expired, b.transfer_rx_expired);
}

void expect_identical(const net::ChannelStats& a, const net::ChannelStats& b) {
  EXPECT_EQ(a.transmissions, b.transmissions);
  EXPECT_EQ(a.deliveries, b.deliveries);
  EXPECT_EQ(a.losses_random, b.losses_random);
  EXPECT_EQ(a.losses_collision, b.losses_collision);
  EXPECT_EQ(a.losses_radio_off, b.losses_radio_off);
  EXPECT_EQ(a.losses_burst, b.losses_burst);
  EXPECT_EQ(a.busy_ticks, b.busy_ticks);
}

TEST(Determinism, RepeatedSeededChaosRunsAreBitIdentical) {
  const auto a = run_chaos(probe(17));
  const auto b = run_chaos(probe(17));
  expect_identical(a.final_snapshot, b.final_snapshot);
  expect_identical(a.channel_stats, b.channel_stats);
  EXPECT_EQ(a.live_chunks, b.live_chunks);
  EXPECT_EQ(a.live_events_at_end, b.live_events_at_end);
  // The run actually exercised the channel.
  EXPECT_GT(a.channel_stats.transmissions, 0u);
  EXPECT_GT(a.channel_stats.deliveries, 0u);
}

TEST(Determinism, CoalescedTimerPathIsDeterministicWithAndWithoutBackoff) {
  // The coalesced protocol timers (beacon tick, sensing heartbeat, silence
  // watchdog share one scheduler event per node) and the idle beacon
  // back-off must be internally deterministic: repeated seeded runs stay
  // bit-identical. Within one run, idle nodes back their beacons off and
  // recording or shedding nodes snap back to the base period.
  const auto a1 = run_chaos(probe(29));
  const auto a2 = run_chaos(probe(29));
  expect_identical(a1.final_snapshot, a2.final_snapshot);
  expect_identical(a1.channel_stats, a2.channel_stats);
  EXPECT_EQ(a1.live_chunks, a2.live_chunks);
  EXPECT_EQ(a1.live_events_at_end, a2.live_events_at_end);
}

TEST(Determinism, CodedDispersalIsBitIdenticalAcrossRepeats) {
  // The coded policy draws no RNG of its own (key-seeded codec, callback-
  // driven state machine), so repeated seeded coded runs must match bit for
  // bit — snapshot, channel counters, and executed-event count.
  ChaosRunConfig cfg = probe(41);
  cfg.faults.permanent_fraction = 0.5;
  cfg.faults.lose_data_fraction = 0.5;
  cfg.storage_policy = StoragePolicy::kCoded;
  cfg.coded_k = 2;
  cfg.coded_n = 4;
  const auto a = run_chaos(cfg);
  const auto b = run_chaos(cfg);
  expect_identical(a.final_snapshot, b.final_snapshot);
  expect_identical(a.channel_stats, b.channel_stats);
  EXPECT_EQ(a.live_chunks, b.live_chunks);
  EXPECT_EQ(a.live_events_at_end, b.live_events_at_end);
  EXPECT_EQ(a.executed_events, b.executed_events);
  EXPECT_EQ(a.payloads_total, b.payloads_total);
  EXPECT_EQ(a.payloads_reconstructible, b.payloads_reconstructible);
  EXPECT_EQ(a.coded.fragments_placed, b.coded.fragments_placed);
  EXPECT_EQ(a.decode.groups_reconstructed, b.decode.groups_reconstructed);
  // The policy actually engaged.
  EXPECT_GT(a.coded.chunks_coded, 0u);
}

TEST(Determinism, CodedPolicyOffLeavesSeededRunsUntouched) {
  // With the policy off, the coded component must be invisible: no RNG
  // draws, no scheduled events, no wire-format change. An explicit
  // kMigrate config and the config default must match bit for bit.
  ChaosRunConfig base = probe(17);
  ChaosRunConfig off = probe(17);
  off.storage_policy = StoragePolicy::kMigrate;
  off.coded_k = 7;  // knobs are inert while the policy is off
  off.coded_n = 9;
  const auto a = run_chaos(base);
  const auto b = run_chaos(off);
  expect_identical(a.final_snapshot, b.final_snapshot);
  expect_identical(a.channel_stats, b.channel_stats);
  EXPECT_EQ(a.live_chunks, b.live_chunks);
  EXPECT_EQ(a.executed_events, b.executed_events);
  EXPECT_EQ(a.coded.chunks_coded, 0u);
  EXPECT_EQ(b.coded.chunks_coded, 0u);
}

TEST(Determinism, CodedPolicyChangesTrafficWhenOn) {
  // Guard against the coded leg silently never engaging: same seed, the two
  // policies must produce different channel totals.
  ChaosRunConfig cfg = probe(41);
  cfg.faults.permanent_fraction = 0.5;
  ChaosRunConfig coded = cfg;
  coded.storage_policy = StoragePolicy::kCoded;
  const auto a = run_chaos(cfg);
  const auto b = run_chaos(coded);
  EXPECT_GT(b.coded.chunks_coded, 0u);
  EXPECT_NE(a.channel_stats.transmissions, b.channel_stats.transmissions);
}

TEST(Determinism, DistinctSeedsDiverge) {
  // Guards against the comparison helpers vacuously passing (e.g. a snapshot
  // that is all zeros would make the two tests above meaningless).
  const auto a = run_chaos(probe(17));
  const auto b = run_chaos(probe(18));
  EXPECT_NE(a.channel_stats.transmissions, b.channel_stats.transmissions);
}

/// Index of the first record at which two rings differ on any field, or -1
/// when they hold the same history.
std::ptrdiff_t first_divergence(const sim::Trace& a, const sim::Trace& b) {
  std::vector<sim::TraceRecord> ra, rb;
  a.for_each([&](const sim::TraceRecord& r) { ra.push_back(r); });
  b.for_each([&](const sim::TraceRecord& r) { rb.push_back(r); });
  auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  const std::size_t n = std::min(ra.size(), rb.size());
  for (std::size_t i = 0; i < n; ++i) {
    const sim::TraceRecord& p = ra[i];
    const sim::TraceRecord& q = rb[i];
    if (p.t_ticks != q.t_ticks || p.event != q.event || p.phase != q.phase ||
        p.node != q.node || p.a != q.a || p.b != q.b ||
        bits(p.x) != bits(q.x) || bits(p.y) != bits(q.y))
      return static_cast<std::ptrdiff_t>(i);
  }
  return ra.size() == rb.size() ? -1 : static_cast<std::ptrdiff_t>(n);
}

TEST(Determinism, TracedRepeatRunsRecordIdenticalRings) {
  // Each run records into its own ring, so traced runs in one process keep
  // their histories side by side: a repeated seed records the same history,
  // another seed a different one.
  auto traced = [](std::uint64_t seed) {
    ChaosRunConfig cfg = probe(seed);
    cfg.horizon = sim::Time::seconds_i(300);
    cfg.trace = true;
    return run_chaos(cfg).trace;
  };
  const sim::Trace first = traced(17);
  const sim::Trace again = traced(17);
  const sim::Trace other = traced(18);
  ASSERT_GT(first.size(), 0u);
  EXPECT_FALSE(first.wrapped());
  EXPECT_EQ(first.total_recorded(), again.total_recorded());
  EXPECT_EQ(first_divergence(first, again), -1);
  EXPECT_NE(first_divergence(first, other), -1);
}

TEST(Determinism, TracedRepeatRunsExportIdenticalJsonl) {
  // A record holds simulated history only (no host clock), so two traced
  // runs of one seed export the same bytes, and a diff of two exports is a
  // diff of the two histories.
  auto exported = [](std::uint64_t seed) {
    ChaosRunConfig cfg = probe(seed);
    cfg.horizon = sim::Time::seconds_i(120);
    cfg.trace = true;
    std::ostringstream out;
    run_chaos(cfg).trace.export_jsonl(out);
    return out.str();
  };
  const std::string first = exported(17);
  const std::string again = exported(17);
  ASSERT_FALSE(first.empty());
  const auto at =
      std::mismatch(first.begin(), first.end(), again.begin(), again.end());
  EXPECT_TRUE(first == again)
      << "exports differ from byte " << (at.first - first.begin());
}

// --- Observers, in every scenario --------------------------------------------

/// One scenario's seeded world as the observer checks compare it: every
/// Metrics snapshot the runner returns, the scenario's own outcomes, and
/// the run loop's outputs.
struct ObservedWorld {
  std::vector<Metrics::Snapshot> snapshots;
  RunRecord record;
  RunOutputs outputs;
};

template <class Config>
Config observed(Config cfg, const RunObservers& obs) {
  static_cast<RunObservers&>(cfg) = obs;
  return cfg;
}

ObservedWorld chaos_world(const RunObservers& obs) {
  const auto r = run_chaos(observed(probe(17), obs));
  return {{r.final_snapshot}, chaos_run_record(r), r};
}

ObservedWorld indoor_world(const RunObservers& obs) {
  IndoorRunConfig cfg;
  cfg.horizon = sim::Time::seconds_i(300);  // five 60 s snapshots
  const auto r = run_indoor(observed(cfg, obs));
  return {r.series, indoor_run_record(r), r};
}

ObservedWorld outdoor_world(const RunObservers& obs) {
  OutdoorRunConfig cfg;
  cfg.horizon = sim::Time::seconds_i(300);
  const auto r = run_outdoor(observed(cfg, obs));
  return {{r.final_snapshot}, outdoor_run_record(r), r};
}

ObservedWorld mobile_world(const RunObservers& obs) {
  const auto r = run_mobile(observed(MobileRunConfig{}, obs));
  return {{}, mobile_run_record(r), r};
}

ObservedWorld voice_world(const RunObservers& obs) {
  const auto r = run_voice(observed(VoiceRunConfig{}, obs));
  return {{}, voice_run_record(r), r};
}

struct ObservedScenario {
  const char* name;
  ObservedWorld (*run)(const RunObservers&);
  sim::Time series_every;  //!< telemetry cadence on the sampled leg
};

// Names the parameter in test listings (".../chaos").
void PrintTo(const ObservedScenario& scenario, std::ostream* os) {
  *os << scenario.name;
}

void expect_same_world(const ObservedWorld& a, const ObservedWorld& b) {
  ASSERT_EQ(a.snapshots.size(), b.snapshots.size());
  for (std::size_t i = 0; i < a.snapshots.size(); ++i) {
    SCOPED_TRACE(i);
    expect_identical(a.snapshots[i], b.snapshots[i]);
  }
  EXPECT_EQ(a.record, b.record);
  expect_identical(a.outputs.channel_stats, b.outputs.channel_stats);
  EXPECT_EQ(a.outputs.executed_events, b.outputs.executed_events);
  EXPECT_GT(a.outputs.executed_events, 0u);
}

class ObservedRuns : public ::testing::TestWithParam<ObservedScenario> {};

TEST_P(ObservedRuns, TracingAndProfilingDoNotPerturbSeededRuns) {
  // The trace recorder and scheduler profiler read the wall clock but never
  // schedule events or draw RNG — so a traced, profiled run must stay
  // bit-identical to a dark one, down to the executed-event count.
  const auto& scenario = GetParam();
  RunObservers dark;
  dark.flight_recorder = false;  // no trace ring at all on the dark leg
  const auto a = scenario.run(dark);

  RunObservers lit;
  lit.flight_recorder = false;
  lit.profile = true;
  lit.trace = true;
  const auto b = scenario.run(lit);

  expect_same_world(a, b);
  // The observed leg really observed something; the dark leg's ring is
  // empty.
  EXPECT_EQ(a.outputs.trace.total_recorded(), 0u);
  EXPECT_GT(b.outputs.trace.total_recorded(), 0u);
  EXPECT_EQ(a.outputs.profile.fires, 0u);
  EXPECT_GT(b.outputs.profile.fires, 0u);
}

TEST_P(ObservedRuns, TelemetrySamplingDoesNotPerturbSeededRuns) {
  // The telemetry recorder samples gauges by stepping run_until on the
  // series cadence and reads component state through const projections
  // (EnergyModel::remaining_joules_at keeps the drain's float-add order
  // untouched) — so a series-on run with health probes armed must stay
  // bit-identical to a dark run, down to the executed-event count.
  const auto& scenario = GetParam();
  RunObservers dark;
  dark.flight_recorder = false;
  const auto a = scenario.run(dark);

  RunObservers lit;
  lit.flight_recorder = false;
  lit.series_interval = scenario.series_every;
  HealthProbe hp;
  std::string err;
  ASSERT_TRUE(parse_health_probe("miss_ratio_max=2", &hp, &err)) << err;
  lit.health_probes.push_back(hp);  // arms the miss_ratio gauge too
  const auto b = scenario.run(lit);

  expect_same_world(a, b);
  // The lit leg really sampled, and the impossible probe never tripped.
  EXPECT_EQ(a.outputs.telemetry.sample_count(), 0u);
  EXPECT_GT(b.outputs.telemetry.sample_count(), 0u);
  EXPECT_NE(b.outputs.telemetry.find("miss_ratio"), sim::kInvalidSeries);
  EXPECT_TRUE(b.outputs.health_trips.empty());
}

// Chaos keeps its original cadence; indoor's 7 s series cadence does not
// divide the 60 s snapshot period, so the merged loop interleaves the two.
INSTANTIATE_TEST_SUITE_P(
    Scenarios, ObservedRuns,
    ::testing::Values(
        ObservedScenario{"chaos", chaos_world, sim::Time::seconds_i(5)},
        ObservedScenario{"indoor", indoor_world, sim::Time::seconds_i(7)},
        ObservedScenario{"outdoor", outdoor_world, sim::Time::seconds_i(5)},
        ObservedScenario{"mobile", mobile_world, sim::Time::seconds_i(3)},
        ObservedScenario{"voice", voice_world, sim::Time::seconds_i(2)}));

}  // namespace
}  // namespace enviromic::core
