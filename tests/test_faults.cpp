// Fault-injection subsystem: fault plans and their CLI spec parser, the
// Gilbert–Elliott burst-loss and asymmetric-link channel faults, and the
// crash → down → reboot → recover node lifecycle (including crashes landing
// mid-bulk-transfer and mid-recording-task).
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "world_fixture.h"

namespace enviromic::core {
namespace {

using testing::WorldBuilder;
using testing::add_event;
using testing::sum_nodes;

// --- FaultPlan -----------------------------------------------------------

std::vector<net::NodeId> ids_upto(net::NodeId n) {
  std::vector<net::NodeId> ids;
  for (net::NodeId i = 1; i <= n; ++i) ids.push_back(i);
  return ids;
}

TEST(FaultPlan, RandomizedIsDeterministicPerSeed) {
  FaultPlanConfig cfg;
  cfg.crash_probability = 0.5;
  cfg.brownout_probability = 0.4;
  cfg.clock_step_probability = 0.3;
  const auto ids = ids_upto(20);
  const auto horizon = sim::Time::seconds_i(600);
  const auto a = FaultPlan::randomized(cfg, ids, horizon, sim::Rng(42));
  const auto b = FaultPlan::randomized(cfg, ids, horizon, sim::Rng(42));
  ASSERT_EQ(a.events.size(), b.events.size());
  for (std::size_t i = 0; i < a.events.size(); ++i) {
    EXPECT_EQ(a.events[i].kind, b.events[i].kind);
    EXPECT_EQ(a.events[i].node, b.events[i].node);
    EXPECT_EQ(a.events[i].at, b.events[i].at);
    EXPECT_EQ(a.events[i].downtime, b.events[i].downtime);
  }
  const auto c = FaultPlan::randomized(cfg, ids, horizon, sim::Rng(43));
  auto signature = [](const FaultPlan& p) {
    double s = static_cast<double>(p.events.size());
    for (const auto& f : p.events) s += f.at.to_seconds();
    return s;
  };
  EXPECT_NE(signature(a), signature(c));
}

TEST(FaultPlan, CertainCrashHitsEveryNodeOnce) {
  FaultPlanConfig cfg;
  cfg.crash_probability = 1.0;
  const auto ids = ids_upto(12);
  const auto plan =
      FaultPlan::randomized(cfg, ids, sim::Time::seconds_i(300), sim::Rng(7));
  ASSERT_EQ(plan.events.size(), ids.size());
  std::set<net::NodeId> seen;
  for (const auto& f : plan.events) {
    EXPECT_EQ(f.kind, FaultSpec::Kind::kCrash);
    EXPECT_LT(f.at, sim::Time::seconds_i(300));
    EXPECT_GE(f.downtime, sim::Time::seconds(1.0));
    seen.insert(f.node);
  }
  EXPECT_EQ(seen.size(), ids.size());
  EXPECT_TRUE(std::is_sorted(
      plan.events.begin(), plan.events.end(),
      [](const FaultSpec& x, const FaultSpec& y) { return x.at < y.at; }));
}

TEST(FaultPlan, ZeroProbabilitiesYieldEmptyPlan) {
  const auto plan = FaultPlan::randomized({}, ids_upto(10),
                                          sim::Time::seconds_i(300),
                                          sim::Rng(7));
  EXPECT_TRUE(plan.events.empty());
}

// --- Fault specs, through the configure step ------------------------------

TEST(FaultSpecParse, FullSpecRoundTrips) {
  ChaosRunConfig out;
  std::string err;
  ASSERT_TRUE(configure(
      out,
      "crash=0.3,downtime=45,permanent=0.1,lose_data=0.5,brownout=0.2,"
      "brownout_len=8,clockstep=0.25,clockstep_max=0.7,asym=0.15",
      {}, err))
      << err;
  EXPECT_DOUBLE_EQ(out.faults.crash_probability, 0.3);
  EXPECT_EQ(out.faults.downtime_mean, sim::Time::seconds(45.0));
  EXPECT_DOUBLE_EQ(out.faults.permanent_fraction, 0.1);
  EXPECT_DOUBLE_EQ(out.faults.lose_data_fraction, 0.5);
  EXPECT_DOUBLE_EQ(out.faults.brownout_probability, 0.2);
  EXPECT_EQ(out.faults.brownout_mean, sim::Time::seconds(8.0));
  EXPECT_DOUBLE_EQ(out.faults.clock_step_probability, 0.25);
  EXPECT_DOUBLE_EQ(out.faults.clock_step_max_s, 0.7);
  EXPECT_DOUBLE_EQ(out.link_asymmetry_max, 0.15);
  EXPECT_FALSE(out.burst.enabled);
}

TEST(FaultSpecParse, BurstKeysEnableBurstModel) {
  ChaosRunConfig out;
  std::string err;
  ASSERT_TRUE(configure(out, "loss_bad=0.9,pgb=0.05", {}, err)) << err;
  EXPECT_TRUE(out.burst.enabled);
  EXPECT_DOUBLE_EQ(out.burst.loss_bad, 0.9);
  EXPECT_DOUBLE_EQ(out.burst.p_good_to_bad, 0.05);

  ChaosRunConfig flag;
  ASSERT_TRUE(configure(flag, "burst=1", {}, err)) << err;
  EXPECT_TRUE(flag.burst.enabled);
}

TEST(FaultSpecParse, RejectsMalformedInput) {
  ChaosRunConfig out;
  std::string err;
  EXPECT_FALSE(configure(out, "bogus_key=1", {}, err));
  EXPECT_FALSE(err.empty());
  EXPECT_FALSE(configure(out, "crash=not_a_number", {}, err));
  EXPECT_FALSE(configure(out, "crash", {}, err));
  EXPECT_FALSE(configure(out, "crash=nan", {}, err));
  EXPECT_FALSE(configure(out, "downtime=inf", {}, err));
  EXPECT_FALSE(configure(out, "crash=1.5", {}, err));
  EXPECT_NE(err.find("crash"), std::string::npos) << err;
}

// --- Channel faults ------------------------------------------------------

TEST(ChannelFaults, BurstLossCountsAgainstBurstBucket) {
  WorldBuilder b;
  b.mode(Mode::kFull).seed(77).perfect_detection();
  b.cfg.channel.loss_probability = 0.0;
  b.cfg.channel.burst.enabled = true;
  b.cfg.channel.burst.p_good_to_bad = 0.3;
  b.cfg.channel.burst.loss_bad = 0.9;
  auto world = b.grid(3, 3);
  add_event(*world, {2, 2}, 1.0, 60.0);
  world->start();
  world->run_until(sim::Time::seconds_i(90));
  EXPECT_GT(world->channel().stats().losses_burst, 0u);
}

TEST(ChannelFaults, DisabledBurstModelDrawsNothing) {
  WorldBuilder b;
  b.mode(Mode::kFull).seed(77).perfect_detection();
  b.cfg.channel.loss_probability = 0.0;
  auto world = b.grid(3, 3);
  add_event(*world, {2, 2}, 1.0, 60.0);
  world->start();
  world->run_until(sim::Time::seconds_i(90));
  EXPECT_EQ(world->channel().stats().losses_burst, 0u);
  EXPECT_EQ(world->channel().stats().losses_random, 0u);
}

TEST(ChannelFaults, LinkAsymmetryIsDirectionalAndBounded) {
  WorldBuilder b;
  b.cfg.channel.link_asymmetry_max = 0.4;
  auto world = b.grid(2, 1);
  const auto& ch = world->channel();
  bool any_directional = false;
  for (net::NodeId a = 1; a <= 6 && !any_directional; ++a) {
    for (net::NodeId c = a + 1; c <= 6; ++c) {
      const double fwd = ch.link_extra_loss(a, c);
      const double rev = ch.link_extra_loss(c, a);
      EXPECT_GE(fwd, 0.0);
      EXPECT_LE(fwd, 0.4);
      EXPECT_GE(rev, 0.0);
      EXPECT_LE(rev, 0.4);
      if (fwd != rev) any_directional = true;
    }
  }
  EXPECT_TRUE(any_directional);
}

TEST(ChannelFaults, ZeroAsymmetryMeansZeroExtraLoss) {
  WorldBuilder b;
  auto world = b.grid(2, 1);
  EXPECT_DOUBLE_EQ(world->channel().link_extra_loss(1, 2), 0.0);
  EXPECT_DOUBLE_EQ(world->channel().link_extra_loss(2, 1), 0.0);
}

// --- Crash / reboot lifecycle --------------------------------------------

storage::Chunk chunk_for(Node& n, std::uint32_t bytes) {
  storage::Chunk c;
  c.meta.key = n.store().next_key(n.id());
  c.meta.bytes = bytes;
  c.meta.recorded_by = n.id();
  c.meta.event = net::EventId{n.id(), 1};
  return c;
}

std::vector<std::uint64_t> keys_of(const storage::ChunkStore& s) {
  std::vector<std::uint64_t> keys;
  s.for_each([&](const storage::ChunkMeta& m) { keys.push_back(m.key); });
  return keys;
}

TEST(CrashReboot, StoreSurvivesCrashExactly) {
  auto world = WorldBuilder{}.mode(Mode::kFull).seed(301).grid(2, 2);
  auto& n = world->node(0);
  for (int i = 0; i < 12; ++i) n.store().append(chunk_for(n, 400));
  const auto before = keys_of(n.store());
  world->start();
  world->run_until(sim::Time::seconds_i(2));

  ASSERT_TRUE(n.crash());
  EXPECT_TRUE(n.down());
  EXPECT_FALSE(n.radio().is_on());
  EXPECT_FALSE(n.crash());  // idempotent while down
  world->run_until(sim::Time::seconds_i(5));

  ASSERT_TRUE(n.reboot());
  EXPECT_FALSE(n.down());
  EXPECT_TRUE(n.radio().is_on());
  EXPECT_EQ(keys_of(n.store()), before);
  EXPECT_EQ(world->metrics().faults().crashes, 1u);
  EXPECT_EQ(world->metrics().faults().reboots, 1u);
  EXPECT_EQ(world->metrics().faults().recovery_mismatches, 0u);
}

TEST(CrashReboot, CrashBeforeFirstCheckpointStillRecoversFlash) {
  auto world = WorldBuilder{}.mode(Mode::kFull).seed(302).grid(2, 2);
  auto& n = world->node(0);
  // Fewer appends than checkpoint_every_appends: the EEPROM checkpoint has
  // never been written, but the chunks are physically on flash.
  const auto cadence = n.params().store.checkpoint_every_appends;
  for (std::uint32_t i = 0; i + 1 < cadence; ++i)
    n.store().append(chunk_for(n, 300));
  const auto before = keys_of(n.store());
  ASSERT_FALSE(before.empty());
  world->start();
  world->run_until(sim::Time::seconds_i(1));
  ASSERT_TRUE(n.crash());
  ASSERT_TRUE(n.reboot());
  EXPECT_EQ(keys_of(n.store()), before);
}

TEST(CrashReboot, RebootedNodeNeverReusesChunkKeys) {
  auto world = WorldBuilder{}.mode(Mode::kFull).seed(303).grid(2, 2);
  auto& n = world->node(0);
  std::set<std::uint64_t> minted;
  for (int i = 0; i < 6; ++i) {
    auto c = chunk_for(n, 300);
    minted.insert(c.meta.key);
    n.store().append(std::move(c));
  }
  world->start();
  world->run_until(sim::Time::seconds_i(1));
  ASSERT_TRUE(n.crash());
  ASSERT_TRUE(n.reboot());
  for (int i = 0; i < 32; ++i) {
    EXPECT_EQ(minted.count(n.store().next_key(n.id())), 0u);
  }
}

TEST(CrashReboot, WorldScheduledCrashRebootsAfterDowntime) {
  auto world = WorldBuilder{}
                   .mode(Mode::kCooperativeOnly)
                   .seed(304)
                   .perfect_detection()
                   .lossless_radio()
                   .grid(3, 3);
  const auto victim = world->node(4).id();
  world->crash_node_at(victim, sim::Time::seconds_i(5),
                       sim::Time::seconds_i(10));
  world->start();
  world->run_until(sim::Time::seconds_i(6));
  EXPECT_TRUE(world->by_id(victim)->down());
  world->run_until(sim::Time::seconds_i(20));
  EXPECT_FALSE(world->by_id(victim)->down());
  EXPECT_EQ(world->metrics().faults().reboots, 1u);
  EXPECT_EQ(world->metrics().faults().downtime_total, sim::Time::seconds_i(10));
}

TEST(CrashReboot, BrownoutSilencesRadioTemporarily) {
  auto world = WorldBuilder{}.mode(Mode::kFull).seed(305).grid(2, 2);
  world->start();
  world->run_until(sim::Time::seconds_i(1));
  auto& n = world->node(0);
  ASSERT_TRUE(n.radio().is_on());
  n.brownout(sim::Time::seconds_i(3));
  EXPECT_FALSE(n.radio().is_on());
  EXPECT_FALSE(n.down());  // protocol state intact, just deaf
  world->run_until(sim::Time::seconds_i(5));
  EXPECT_TRUE(n.radio().is_on());
  EXPECT_EQ(world->metrics().faults().brownouts, 1u);
}

TEST(CrashReboot, ClockStepPerturbsLocalClock) {
  auto world = WorldBuilder{}.mode(Mode::kFull).seed(306).grid(2, 2);
  world->start();
  world->run_until(sim::Time::seconds_i(1));
  auto& n = world->node(1);
  const auto before = n.clock().raw_now();
  n.clock_step(0.4);
  const auto after = n.clock().raw_now();
  EXPECT_NEAR((after - before).to_seconds(), 0.4, 1e-9);
  EXPECT_EQ(world->metrics().faults().clock_steps, 1u);
}

// --- Crashes landing mid-protocol ----------------------------------------

std::unique_ptr<World> transfer_pair(std::uint64_t seed) {
  WorldBuilder b;
  b.mode(Mode::kFull).seed(seed);
  b.cfg.channel.loss_probability = 0.0;
  b.cfg.node_defaults.protocol.transfer_fragment_spacing =
      sim::Time::millis(20);
  auto world = std::make_unique<World>(b.cfg);
  world->add_node({0, 0});
  world->add_node({2, 0});
  return world;
}

TEST(CrashMidProtocol, ReceiverCrashAbortsSenderCleanly) {
  auto world = transfer_pair(401);
  auto& a = world->node(0);
  auto& b = world->node(1);
  for (int i = 0; i < 4; ++i) a.store().append(chunk_for(a, 2000));
  const auto total = a.store().chunk_count();
  world->start();
  a.bulk().start_session(b.id(), 4);
  // 2000-byte chunks at 64 B / 20 ms: crash the receiver mid-chunk.
  world->sched().at(sim::Time::millis(200), [&] { b.crash(); });
  world->run_until(sim::Time::seconds_i(30));

  EXPECT_GE(a.bulk().stats().aborts, 1u);
  EXPECT_FALSE(a.bulk().sending());
  EXPECT_FALSE(a.bulk().tx_stuck(world->sched().now()));
  // The abort dropped the dead peer's beacon state.
  EXPECT_EQ(a.balancer().neighbor_count(), 0u);
  // No chunk vanished: everything is still on A, except at most the one
  // in-flight chunk the receiver may have committed before dying (a
  // duplicate risk, never a loss).
  EXPECT_GE(a.store().chunk_count() + b.store().chunk_count(), total);
}

TEST(CrashMidProtocol, SenderCrashExpiresReceiverReassembly) {
  auto world = transfer_pair(402);
  auto& a = world->node(0);
  auto& b = world->node(1);
  a.store().append(chunk_for(a, 4000));
  world->start();
  a.bulk().start_session(b.id(), 1);
  world->sched().at(sim::Time::millis(300), [&] { a.crash(); });
  world->run_until(sim::Time::millis(400));
  // The receiver holds a half-reassembled chunk that will never finish.
  EXPECT_EQ(b.bulk().rx_pending(), 1u);
  world->run_until(sim::Time::seconds_i(30));
  EXPECT_EQ(b.bulk().rx_pending(), 0u);
  EXPECT_GE(b.bulk().stats().rx_expired, 1u);
  EXPECT_FALSE(b.bulk().rx_stuck(world->sched().now()));
  EXPECT_EQ(b.store().chunk_count(), 0u);  // partial data never committed
}

TEST(CrashMidProtocol, SenderCrashTracesEachExpiredReassembly) {
  auto world = transfer_pair(402);
  auto& a = world->node(0);
  auto& b = world->node(1);
  auto chunk = chunk_for(a, 4000);
  const std::uint64_t key = chunk.meta.key;
  a.store().append(std::move(chunk));
  world->start();
  a.bulk().start_session(b.id(), 1);
  world->sched().at(sim::Time::millis(300), [&] { a.crash(); });
  sim::Trace trace(1 << 16);
  world->sched().set_trace(&trace);
  world->run_until(sim::Time::seconds_i(30));
  world->sched().set_trace(nullptr);
  std::vector<sim::TraceRecord> expired;
  trace.for_each([&](const sim::TraceRecord& r) {
    if (r.event == sim::TraceEvent::kTransferRxExpired) expired.push_back(r);
  });
  ASSERT_FALSE(trace.wrapped());
  // One record per rx_expired increment, naming the receiver, the dead
  // sender and the abandoned chunk.
  ASSERT_GE(b.bulk().stats().rx_expired, 1u);
  EXPECT_EQ(a.bulk().stats().rx_expired, 0u);
  ASSERT_EQ(expired.size(), b.bulk().stats().rx_expired);
  for (const auto& r : expired) {
    EXPECT_EQ(r.phase, sim::TracePhase::kInstant);
    EXPECT_EQ(r.node, b.id());
    EXPECT_EQ(r.a, a.id());
    EXPECT_EQ(r.b, key);
  }
}

TEST(CrashMidProtocol, StalePacingTimerCannotLeakIntoNextSession) {
  // Regression: the stop-and-wait pipeline scheduled its pacing step as an
  // anonymous scheduler lambda with no handle, and end_session/reset
  // cancelled only the ack timer — a pacing event armed before a crash could
  // fire into the NEXT session and double-send/double-arm. The windowed
  // pipeline keeps pacing on a CoalescedTimer slot that reset() disarms, so
  // a session restarted after a crash+reboot sends each fragment exactly
  // once.
  WorldBuilder b;
  b.mode(Mode::kFull).seed(406);
  b.cfg.channel.loss_probability = 0.0;
  // Long pacing period so the pre-crash pacing deadline (grant + spacing)
  // lands comfortably inside the restarted session.
  b.cfg.node_defaults.protocol.transfer_fragment_spacing =
      sim::Time::millis(500);
  auto world = std::make_unique<World>(b.cfg);
  auto& a = world->add_node({0, 0});
  auto& n2 = world->add_node({2, 0});
  a.store().append(chunk_for(a, 2000));  // 32 fragments at 64 B
  world->start();
  world->sched().at(sim::Time::millis(1),
                    [&] { a.bulk().start_session(n2.id(), 1); });
  // Crash after the grant armed the first pacing deadline (~t=500 ms) but
  // before any data fragment went out; reboot and restart quickly so the
  // stale deadline would fall inside session 2's lifetime.
  world->sched().at(sim::Time::millis(100), [&] { a.crash(); });
  world->sched().at(sim::Time::millis(150), [&] { a.reboot(); });
  world->sched().at(sim::Time::millis(200),
                    [&] { a.bulk().start_session(n2.id(), 1); });
  world->run_until(sim::Time::seconds_i(30));

  EXPECT_EQ(n2.store().chunk_count(), 1u);
  EXPECT_EQ(a.store().chunk_count(), 0u);
  // Lossless link, no retries: exactly one send per fragment. A stale
  // pacing timer firing into session 2 would double-send.
  const std::size_t data_idx =
      net::type_index(net::Message{net::TransferData{}});
  EXPECT_EQ(a.radio().stats().messages_sent[data_idx], 32u);
  EXPECT_EQ(a.bulk().stats().fragments_retried, 0u);
}

TEST(CrashMidProtocol, LeaderCrashMidTaskReelectsAndRecordingContinues) {
  auto world = WorldBuilder{}
                   .mode(Mode::kCooperativeOnly)
                   .seed(403)
                   .perfect_detection()
                   .lossless_radio()
                   .grid(4, 4);
  add_event(*world, {3, 3}, 5.0, 40.0);
  world->start();
  world->run_until(sim::Time::seconds_i(10));
  net::NodeId leader = net::kInvalidNode;
  for (std::size_t i = 0; i < world->node_count(); ++i) {
    if (world->node(i).group().is_leader()) leader = world->node(i).id();
  }
  ASSERT_NE(leader, net::kInvalidNode);
  // Crash (not fail): the node comes back mid-event and must fold back into
  // the group instead of fighting the watchdog-elected successor.
  world->crash_node_at(leader, sim::Time::seconds_i(10),
                       sim::Time::seconds_i(12));
  world->run_until(sim::Time::seconds_i(45));

  EXPECT_LT(world->snapshot().miss_ratio, 0.35);
  const auto reelections = sum_nodes(*world, [](Node& n) {
    return n.group().stats().watchdog_reelections +
           n.group().stats().elections_won;
  });
  EXPECT_GE(reelections, 2u);
  EXPECT_LE(testing::leader_count(*world), 1);
}

TEST(CrashMidProtocol, LeaderCrashInConfirmWindowDoesNotStickBusyState) {
  // The leader dies inside a TASK_REQUEST/TASK_CONFIRM exchange. Every
  // member that overheard the previous confirm carries a busy_until
  // watermark for the current recorder; with the leader gone, that watermark
  // must expire on its own at task end — the watchdog-elected successor has
  // to see the recorder as assignable again, not busy forever.
  auto world = WorldBuilder{}
                   .mode(Mode::kCooperativeOnly)
                   .seed(405)
                   .perfect_detection()
                   .lossless_radio()
                   .grid(4, 4);
  add_event(*world, {3, 3}, 5.0, 40.0);
  world->start();
  world->run_until(sim::Time::seconds_i(8));
  Node* leader = nullptr;
  for (std::size_t i = 0; i < world->node_count(); ++i) {
    if (world->node(i).group().is_leader()) leader = &world->node(i);
  }
  ASSERT_NE(leader, nullptr);

  // Land the crash inside the next round's request/confirm exchange: the
  // request goes out after the leader's 15-40 ms proc delay, the confirm
  // returns after the member's.
  const auto t_crash =
      leader->tasking().next_assignment_at() + sim::Time::millis(42);
  ASSERT_GT(t_crash, world->sched().now());
  world->run_until(t_crash);
  Node* busy_recorder = nullptr;
  for (std::size_t i = 0; i < world->node_count(); ++i) {
    if (world->node(i).is_recording()) busy_recorder = &world->node(i);
  }
  ASSERT_NE(busy_recorder, nullptr);
  ASSERT_NE(busy_recorder, leader);
  ASSERT_TRUE(leader->crash());

  // Watchdog silence timeout (2.5 s) + election backoff + one task period:
  // plenty for the group to re-elect and for every busy watermark to lapse.
  world->run_until(t_crash + sim::Time::seconds_i(5));
  Node* successor = nullptr;
  for (std::size_t i = 0; i < world->node_count(); ++i) {
    if (world->node(i).group().is_leader()) successor = &world->node(i);
  }
  ASSERT_NE(successor, nullptr);
  EXPECT_NE(successor, leader);
  // The once-busy recorder finished its task and is visible to the new
  // leader again (or leads itself) — its watermark did not stick.
  if (successor != busy_recorder && !busy_recorder->is_recording()) {
    bool assignable = false;
    for (const auto& [id, info] : successor->group().fresh_members()) {
      if (id == busy_recorder->id()) assignable = true;
    }
    EXPECT_TRUE(assignable);
  }
  // Coverage survives the mid-exchange leader death.
  world->run_until(sim::Time::seconds_i(45));
  EXPECT_LT(world->snapshot().miss_ratio, 0.35);
  EXPECT_LE(testing::leader_count(*world), 1);
}

TEST(CrashMidProtocol, RecordingTaskDiesWithCrashedRecorder) {
  auto world = WorldBuilder{}
                   .mode(Mode::kCooperativeOnly)
                   .seed(404)
                   .perfect_detection()
                   .lossless_radio()
                   .grid(3, 3);
  add_event(*world, {2, 2}, 2.0, 30.0);
  world->start();
  world->run_until(sim::Time::seconds_i(6));
  // Crash whichever node is recording right now.
  Node* recording = nullptr;
  for (std::size_t i = 0; i < world->node_count(); ++i) {
    if (world->node(i).is_recording()) recording = &world->node(i);
  }
  ASSERT_NE(recording, nullptr);
  const auto count_before = recording->store().chunk_count();
  ASSERT_TRUE(recording->crash());
  EXPECT_FALSE(recording->is_recording());
  world->run_until(sim::Time::seconds_i(12));
  ASSERT_TRUE(recording->reboot());
  world->run_until(sim::Time::seconds_i(35));
  // The half-recorded task never produced a ghost chunk at the crash
  // moment; post-reboot chunks come only from fresh tasks.
  EXPECT_GE(recording->store().chunk_count(), count_before);
  // Someone else picked the event up: coverage is not a total loss.
  EXPECT_LT(world->snapshot().miss_ratio, 0.6);
}

// --- Coded dispersal under faults ----------------------------------------

std::unique_ptr<World> coded_star(std::uint64_t seed, int k, int n) {
  WorldBuilder b;
  b.mode(Mode::kFull).seed(seed);
  b.cfg.channel.loss_probability = 0.0;
  b.cfg.node_defaults.protocol.storage_policy = StoragePolicy::kCoded;
  b.cfg.node_defaults.protocol.coded_k = k;
  b.cfg.node_defaults.protocol.coded_n = n;
  b.cfg.node_defaults.protocol.transfer_fragment_spacing =
      sim::Time::millis(20);
  auto world = std::make_unique<World>(b.cfg);
  world->add_node({0, 0});                          // id 1: the source
  world->add_node({2, 0});                          // id 2
  world->add_node({0, 2});                          // id 3
  world->add_node({-2, 0});                         // id 4
  return world;
}

/// Distinct surviving fragment indices of `group` plus whether a whole copy
/// survives, over every collectable flash.
std::pair<std::set<std::uint8_t>, bool> survivors_of(World& world,
                                                     std::uint64_t group) {
  std::set<std::uint8_t> frags;
  bool whole = false;
  for (std::size_t i = 0; i < world.node_count(); ++i) {
    auto& n = world.node(i);
    if (n.data_lost()) continue;
    n.store().for_each([&](const storage::ChunkMeta& m) {
      if (m.is_fragment() && m.ec_group == group) frags.insert(m.ec_index);
      if (!m.is_fragment() && m.key == group) whole = true;
    });
  }
  return {frags, whole};
}

TEST(CodedFaults, CrashDuringDispersalRetriesWithoutLosingData) {
  auto world = coded_star(421, 2, 3);
  auto& a = world->node(0);
  a.store().append(chunk_for(a, 3000));
  const std::uint64_t orig = keys_of(a.store()).front();
  world->start();
  world->sched().at(sim::Time::millis(50), [&] {
    EXPECT_TRUE(a.coded().start({2, 3, 4}));
  });
  // Kill the first target while its fragment push is in flight (the 20 ms
  // burst spacing stretches the 24-fragment push well past this); the
  // dispersal must retry on the remaining candidates.
  world->sched().at(sim::Time::millis(70), [&] { world->node(1).crash(); });
  world->run_until(sim::Time::seconds_i(120));

  EXPECT_FALSE(a.coded().active());
  EXPECT_FALSE(a.bulk().sending());
  EXPECT_GE(a.coded().stats().fragments_failed, 1u);
  const auto [frags, whole] = survivors_of(*world, orig);
  // Never lost: either the original survived, or >= k fragments did.
  EXPECT_TRUE(whole || frags.size() >= 2u)
      << frags.size() << " fragments, whole=" << whole;
  if (a.coded().stats().originals_released == 1u) {
    EXPECT_FALSE(whole);
    EXPECT_GE(frags.size(), 2u);
  } else {
    EXPECT_TRUE(whole);
  }
}

TEST(CodedFaults, SourceCrashDuringDispersalKeepsOriginalOnFlash) {
  auto world = coded_star(422, 2, 3);
  auto& a = world->node(0);
  a.store().append(chunk_for(a, 3000));
  const std::uint64_t orig = keys_of(a.store()).front();
  world->start();
  world->sched().at(sim::Time::millis(50),
                    [&] { EXPECT_TRUE(a.coded().start({2, 3, 4})); });
  // The source itself dies mid-dispersal: the in-RAM fragments evaporate,
  // but the original was never popped, so flash recovery restores it.
  world->sched().at(sim::Time::millis(300), [&] { a.crash(); });
  world->sched().at(sim::Time::seconds_i(5), [&] { a.reboot(); });
  world->run_until(sim::Time::seconds_i(30));

  EXPECT_FALSE(a.coded().active());
  const auto keys = keys_of(a.store());
  EXPECT_TRUE(std::find(keys.begin(), keys.end(), orig) != keys.end());
}

TEST(CodedFaults, DrainDecodesDespiteCrashedHolderAndAccountsPartials) {
  auto world = coded_star(423, 2, 3);
  auto& a = world->node(0);
  a.store().append(chunk_for(a, 3000));
  const std::uint64_t orig = keys_of(a.store()).front();
  world->start();
  world->sched().at(sim::Time::millis(50),
                    [&] { EXPECT_TRUE(a.coded().start({2, 3, 4})); });
  world->run_until(sim::Time::seconds_i(60));
  ASSERT_EQ(a.coded().stats().originals_released, 1u);

  // One fragment holder crashes (flash collectable), one is lost for good:
  // exactly one fragment survives per... the remaining holder + the downed
  // one still give >= k collectable fragments, so the drain reconstructs.
  world->node(1).crash();
  auto contains = [](const World::DecodedDrain& d, std::uint64_t key) {
    return std::any_of(d.chunks.begin(), d.chunks.end(),
                       [&](const storage::Chunk& c) { return c.meta.key == key; });
  };
  auto dd = world->drain_decoded();
  EXPECT_EQ(dd.stats.groups_reconstructed, 1u);
  EXPECT_EQ(dd.stats.groups_partial, 0u);
  EXPECT_TRUE(contains(dd, orig));

  // Now lose two holders outright: < k fragments remain. The drain must
  // account the partial group and keep going, not stall.
  world->node(1).fail(/*lose_data=*/true);
  world->node(2).fail(/*lose_data=*/true);
  const auto [frags, whole] = survivors_of(*world, orig);
  ASSERT_LT(frags.size(), 2u);
  ASSERT_FALSE(whole);
  auto dd2 = world->drain_decoded();
  EXPECT_EQ(dd2.stats.groups_reconstructed, 0u);
  EXPECT_EQ(dd2.stats.groups_partial, 1u);
  EXPECT_FALSE(contains(dd2, orig));
}

TEST(CodedFaults, CodedChaosInvariantsHoldAndBeatMigrationOnSurvival) {
  // The acceptance campaign in miniature: same seeded permanent-death storm,
  // migrate vs coded. Coded must keep strictly more payloads reconstructible.
  ChaosRunConfig cfg;
  cfg.seed = 424;
  cfg.horizon = sim::Time::seconds_i(900);
  cfg.faults.crash_probability = 0.5;
  cfg.faults.permanent_fraction = 1.0;
  cfg.faults.lose_data_fraction = 1.0;
  cfg.flight_recorder = false;

  ChaosRunConfig coded = cfg;
  coded.storage_policy = StoragePolicy::kCoded;
  coded.coded_k = 2;
  coded.coded_n = 4;

  const auto plain = run_chaos(cfg);
  const auto with_code = run_chaos(coded);
  EXPECT_TRUE(plain.invariants_hold());
  EXPECT_TRUE(with_code.invariants_hold());
  EXPECT_GT(with_code.coded.chunks_coded, 0u);
  EXPECT_GT(with_code.payloads_reconstructible,
            plain.payloads_reconstructible);
  EXPECT_LT(with_code.payloads_lost_to_death, plain.payloads_lost_to_death);
  // The decode-on-drain pass accounts every surviving coded group.
  EXPECT_EQ(with_code.decode.groups_reconstructed +
                with_code.decode.groups_partial +
                with_code.decode.groups_redundant,
            with_code.decode.groups_seen);
}

}  // namespace
}  // namespace enviromic::core
