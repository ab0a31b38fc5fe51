// Chaos soak: the indoor workload under randomized crashes, reboots,
// brownouts, clock steps, and a bursty asymmetric channel. After the storm
// plus a grace period, the end state must satisfy the fault model's
// promises: every surviving node's store survives a checkpoint/recover
// round trip, physical collection retrieves every distinct live chunk
// exactly once, no transfer session is stuck, and the fault counters add
// up.
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "core/experiment.h"
#include "sim/trace.h"
#include "world_fixture.h"

namespace enviromic::core {
namespace {

ChaosRunConfig storm(std::uint64_t seed) {
  ChaosRunConfig cfg;
  cfg.seed = seed;
  cfg.horizon = sim::Time::seconds_i(900);
  cfg.faults.crash_probability = 0.5;
  cfg.faults.downtime_mean = sim::Time::seconds_i(45);
  cfg.faults.brownout_probability = 0.3;
  cfg.faults.clock_step_probability = 0.3;
  cfg.burst.enabled = true;
  cfg.link_asymmetry_max = 0.2;
  return cfg;
}

class ChaosSoak : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ChaosSoak, InvariantsHoldAfterStorm) {
  const auto res = run_chaos(storm(GetParam()));
  const auto& f = res.final_snapshot.faults;

  // The storm actually happened.
  EXPECT_GT(f.crashes, 0u);
  EXPECT_GT(f.reboots, 0u);
  EXPECT_GT(res.live_chunks, 0u);

  EXPECT_TRUE(res.stores_recoverable);
  EXPECT_TRUE(res.retrieval_exact_once);
  EXPECT_TRUE(res.counters_consistent);
  EXPECT_EQ(res.stuck_tx_sessions, 0u);
  EXPECT_EQ(res.stuck_rx_sessions, 0u);
  EXPECT_EQ(f.recovery_mismatches, 0u);
  EXPECT_TRUE(res.invariants_hold());
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChaosSoak,
                         ::testing::Values(1ull, 2ull, 3ull, 9ull, 21ull));

TEST(Chaos, PermanentFailuresLoseOnlyTheLostData) {
  ChaosRunConfig cfg = storm(5);
  cfg.faults.permanent_fraction = 0.4;
  cfg.faults.lose_data_fraction = 0.5;
  const auto res = run_chaos(cfg);
  EXPECT_TRUE(res.invariants_hold());
  EXPECT_GT(res.nodes_lost, 0u);
  // Defunct motes are excluded from the crash==reboot accounting.
  EXPECT_EQ(res.final_snapshot.faults.permanent_failures, res.nodes_lost);
}

TEST(Chaos, BusyMemberEligibleExactlyAtTaskEnd) {
  // The busy_until watermark boundary: strictly in the future means
  // recording (excluded from assignment); exactly `now` means the task ends
  // this instant and the member is eligible again. The old `<= now is still
  // busy` comparison skipped an eligible recorder exactly at task end — the
  // moment the seamless-handover round actually queries it.
  auto world = testing::WorldBuilder{}
                   .mode(Mode::kCooperativeOnly)
                   .seed(63)
                   .lossless_radio()
                   .grid(2, 2);
  world->start();
  auto& n = world->node(0);
  net::Sensing s;
  s.sender = 90;
  s.ttl_seconds = 100.0;
  n.group().handle(s);  // fresh heartbeat at t=0
  const auto task_end = sim::Time::seconds(1.0);
  n.group().note_recorder_busy(90, task_end);

  world->run_until(task_end - sim::Time::ticks(1));
  EXPECT_TRUE(n.group().fresh_members().empty());

  world->run_until(task_end);  // busy_until == now: task ends exactly now
  const auto members = n.group().fresh_members();
  ASSERT_EQ(members.size(), 1u);
  EXPECT_EQ(members.at(0).first, net::NodeId{90});
}

TEST(Chaos, MigrationByteExactUnderBurstLossAndCrashes) {
  // End-to-end migration audit: Gilbert–Elliott burst loss + crash/reboot
  // with materialized payloads. Every collectable copy of every chunk must
  // be byte-exact (windowed reassembly never scrambles offsets), chunk-key
  // replication must stay within the transfer layer's counted
  // duplicate_risks, and partial incoming sessions must be swept into
  // rx_expired rather than leak.
  ChaosRunConfig cfg = storm(17);
  cfg.horizon = sim::Time::seconds_i(600);
  cfg.store_payloads = true;
  const auto res = run_chaos(cfg);

  EXPECT_GT(res.final_snapshot.faults.crashes, 0u);
  EXPECT_GT(res.live_chunks, 0u);
  // The balancer actually migrated data through the windowed pipeline.
  EXPECT_GT(res.final_snapshot.transfer_max_in_flight, 1u);

  EXPECT_TRUE(res.payloads_intact);
  EXPECT_LE(res.duplicate_copies, res.duplicate_risks_counted);
  EXPECT_TRUE(res.duplicates_within_risk);
  // rx_expired accounting is clean: expired partials were discarded, so no
  // receiver still holds a stuck half-chunk.
  EXPECT_EQ(res.stuck_rx_sessions, 0u);
  EXPECT_EQ(res.stuck_tx_sessions, 0u);
  EXPECT_TRUE(res.invariants_hold());
}

TEST(Chaos, MigrationInvariantsHoldAtStopAndWaitWindow) {
  // The same audit with the window pinned to 1 — the stop-and-wait
  // degenerate shares every safety property with the pipelined default.
  ChaosRunConfig cfg = storm(18);
  cfg.horizon = sim::Time::seconds_i(450);
  cfg.store_payloads = true;
  cfg.transfer_window_frags = 1;
  const auto res = run_chaos(cfg);
  EXPECT_GT(res.live_chunks, 0u);
  EXPECT_TRUE(res.payloads_intact);
  EXPECT_TRUE(res.duplicates_within_risk);
  EXPECT_TRUE(res.invariants_hold());
}

TEST(Chaos, FlightRecorderDumpsTraceTailOnInvariantFailure) {
  // Force an invariant violation — a live-event bound of zero can never hold
  // on a running network — and check the flight recorder's post-mortem: the
  // trace ring tail (at most 64 records) lands on stderr, and the run
  // honestly reports the violation.
  ChaosRunConfig cfg = storm(21);
  cfg.horizon = sim::Time::seconds_i(300);
  cfg.live_events_per_node_bound = 0;

  ::testing::internal::CaptureStderr();
  const auto res = run_chaos(cfg);
  const std::string err = ::testing::internal::GetCapturedStderr();

  EXPECT_FALSE(res.invariants_hold());
  EXPECT_NE(err.find("flight recorder tail"), std::string::npos);
  std::size_t records = 0;  // dump_tail prints one "[t=...]" line per record
  std::istringstream lines(err);
  for (std::string line; std::getline(lines, line);)
    if (line.rfind("[t=", 0) == 0) ++records;
  EXPECT_GT(records, 0u);
  EXPECT_LE(records, 64u);

  // The run returns the flight recorder's 4096-record ring, and the dump
  // is that ring's tail.
  EXPECT_EQ(res.trace.capacity(), 4096u);
  std::ostringstream tail;
  res.trace.dump_tail(64, tail);
  EXPECT_NE(err.find(tail.str()), std::string::npos);
}

TEST(Chaos, QuietPlanDegradesToPlainIndoorRun) {
  ChaosRunConfig cfg;
  cfg.seed = 11;
  cfg.horizon = sim::Time::seconds_i(600);
  const auto res = run_chaos(cfg);
  EXPECT_EQ(res.final_snapshot.faults.crashes, 0u);
  EXPECT_EQ(res.final_snapshot.faults.reboots, 0u);
  EXPECT_TRUE(res.invariants_hold());
  EXPECT_GT(res.live_chunks, 0u);
}

}  // namespace
}  // namespace enviromic::core
