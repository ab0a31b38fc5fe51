// Node-level wiring: message dispatch, recording/radio/energy interplay,
// processing delays, mode gating.
#include <gtest/gtest.h>

#include "world_fixture.h"

namespace enviromic::core {
namespace {

using testing::WorldBuilder;
using testing::add_event;

TEST(Node, RecordingTogglesRadioAndEnergyState) {
  auto world = WorldBuilder{}.mode(Mode::kCooperativeOnly).seed(301).grid(2, 2);
  world->start();
  auto& n = world->node(0);
  EXPECT_TRUE(n.radio().is_on());
  n.set_recording(true);
  EXPECT_TRUE(n.is_recording());
  EXPECT_FALSE(n.radio().is_on());
  n.set_recording(false);
  EXPECT_FALSE(n.is_recording());
  EXPECT_TRUE(n.radio().is_on());
}

TEST(Node, ProcDelayWithinConfiguredBounds) {
  auto world = WorldBuilder{}.mode(Mode::kCooperativeOnly).seed(302).grid(2, 2);
  world->start();
  auto& n = world->node(0);
  for (int i = 0; i < 200; ++i) {
    const auto d = n.proc_delay();
    EXPECT_GE(d, kControlProcMin);
    EXPECT_LE(d, kControlProcMax);
  }
}

TEST(Node, UncoordinatedModeSendsNothingEver) {
  auto world = WorldBuilder{}
                   .mode(Mode::kUncoordinated)
                   .seed(303)
                   .perfect_detection()
                   .grid(4, 4);
  add_event(*world, {3, 3}, 3.0, 10.0);
  world->start();
  world->run_until(sim::Time::seconds_i(30));
  for (std::size_t i = 0; i < world->node_count(); ++i) {
    EXPECT_EQ(world->node(i).radio().stats().packets_sent, 0u);
  }
}

TEST(Node, CooperativeOnlyNeverSendsTransferTraffic) {
  auto world = WorldBuilder{}
                   .mode(Mode::kCooperativeOnly)
                   .seed(304)
                   .perfect_detection()
                   .grid(4, 4);
  add_event(*world, {3, 3}, 3.0, 15.0);
  world->start();
  world->run_until(sim::Time::seconds_i(30));
  const auto snap = world->snapshot();
  EXPECT_EQ(snap.transfer_messages, 0u);
  EXPECT_GT(snap.control_messages, 0u);
}

TEST(Node, SensingSoftStateCarriesTtl) {
  // The SENSING message doubles as balancing soft state (paper §II-B reuses
  // group-management broadcasts).
  auto world = WorldBuilder{}
                   .mode(Mode::kFull)
                   .seed(305)
                   .perfect_detection()
                   .lossless_radio()
                   .grid(4, 4);
  add_event(*world, {3, 3}, 3.0, 15.0);
  world->start();
  world->run_until(sim::Time::seconds_i(10));
  // Hearers have exchanged SENSING; their group member tables carry TTLs.
  int with_ttl = 0;
  for (std::size_t i = 0; i < world->node_count(); ++i) {
    for (const auto& [id, info] : world->node(i).group().fresh_members()) {
      if (info.ttl_s > 0.0) ++with_ttl;
    }
  }
  EXPECT_GT(with_ttl, 0);
}

TEST(Node, EnergyDrainsOverTime) {
  auto world = WorldBuilder{}.mode(Mode::kCooperativeOnly).seed(306).grid(2, 2);
  world->start();
  world->run_until(sim::Time::seconds_i(600));
  auto& n = world->node(0);
  n.energy().advance(world->sched().now());
  EXPECT_GT(n.energy().battery().consumed_joules(), 0.5);
  EXPECT_FALSE(n.energy().battery().depleted());
}

TEST(Node, FailedNodeIgnoresSetRecording) {
  auto world = WorldBuilder{}.mode(Mode::kCooperativeOnly).seed(307).grid(2, 2);
  world->start();
  auto& n = world->node(0);
  n.fail();
  n.set_recording(true);
  EXPECT_FALSE(n.is_recording());
  EXPECT_FALSE(n.radio().is_on());
}

TEST(World, ByIdFindsNodes) {
  auto world = WorldBuilder{}.mode(Mode::kCooperativeOnly).seed(308).grid(3, 2);
  EXPECT_NE(world->by_id(1), nullptr);
  EXPECT_NE(world->by_id(6), nullptr);
  EXPECT_EQ(world->by_id(7), nullptr);
  EXPECT_EQ(world->by_id(1)->id(), 1u);
  // Every id maps to the node that carries it; ids no node has map to null.
  for (net::NodeId id = 1; id <= 6; ++id) EXPECT_EQ(world->by_id(id)->id(), id);
  EXPECT_EQ(world->by_id(0), nullptr);
  EXPECT_EQ(world->by_id(60000), nullptr);  // the data mule's default id
  EXPECT_EQ(world->by_id(net::kInvalidNode), nullptr);
}

TEST(World, SnapshotBeforeAnyEventIsClean) {
  auto world = WorldBuilder{}.mode(Mode::kFull).seed(309).grid(3, 2);
  world->start();
  world->run_until(sim::Time::seconds_i(30));
  const auto snap = world->snapshot();
  EXPECT_EQ(snap.hearable, sim::Time::zero());
  EXPECT_EQ(snap.miss_ratio, 0.0);
  EXPECT_EQ(snap.stored_total, sim::Time::zero());
}

TEST(World, DrainAllEmptyWorld) {
  auto world = WorldBuilder{}.mode(Mode::kFull).seed(310).grid(2, 2);
  world->start();
  const auto files = world->drain_all();
  EXPECT_EQ(files.file_count(), 0u);
  EXPECT_EQ(files.chunk_count(), 0u);
}

TEST(World, RunForAdvancesRelativeTime) {
  auto world = WorldBuilder{}.mode(Mode::kFull).seed(311).grid(2, 2);
  world->start();
  world->run_for(sim::Time::seconds_i(7));
  EXPECT_EQ(world->sched().now(), sim::Time::seconds_i(7));
  world->run_for(sim::Time::seconds_i(3));
  EXPECT_EQ(world->sched().now(), sim::Time::seconds_i(10));
}

TEST(World, DetectorPumpFiresOncePerPollInterval) {
  // One repeating pump event polls every detector each kPollInterval. The
  // profiler counts its fires and draws no RNG, so it does not perturb them.
  auto world = WorldBuilder{}.mode(Mode::kFull).seed(312).grid(3, 2);
  world->sched().profiler().enable();
  world->start();
  world->run_until(sim::Time::seconds_i(10));
  const std::uint64_t polls =
      sim::Time::seconds_i(10) / acoustic::kPollInterval;
  EXPECT_EQ(polls, 100u);
  const auto report = world->sched().profiler().report();
  EXPECT_EQ(report.lines[static_cast<std::size_t>(sim::ProfTag::kDetectorPump)]
                .fires,
            polls);
}

TEST(Config, ModeNamesAreStable) {
  EXPECT_STREQ(mode_name(Mode::kUncoordinated), "uncoordinated");
  EXPECT_STREQ(mode_name(Mode::kCooperativeOnly), "cooperative-only");
  EXPECT_STREQ(mode_name(Mode::kFull), "full");
}

}  // namespace
}  // namespace enviromic::core
