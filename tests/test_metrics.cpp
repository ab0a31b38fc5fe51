// Ground truth and metrics: attribution, hearable windows, the miss and
// redundancy formulas, migration flow accounting.
#include <gtest/gtest.h>

#include "world_fixture.h"

namespace enviromic::core {
namespace {

using sim::Position;
using sim::Time;

struct GtFixture {
  acoustic::SoundField field{0.02};
  GroundTruth gt{field};

  acoustic::SourceId add_static(Position at, double start_s, double end_s,
                                double range) {
    const auto id = static_cast<acoustic::SourceId>(field.sources().size());
    field.add_source(acoustic::Source(
        id, std::make_shared<acoustic::StaticTrajectory>(at),
        std::make_shared<acoustic::ConstantWave>(1.0), Time::seconds(start_s),
        Time::seconds(end_s), 1.0, range));
    return id;
  }

  acoustic::SourceId add_moving(Position from, double vx, double start_s,
                                double end_s, double range) {
    const auto id = static_cast<acoustic::SourceId>(field.sources().size());
    field.add_source(acoustic::Source(
        id, std::make_shared<acoustic::LinearTrajectory>(from, vx, 0.0),
        std::make_shared<acoustic::ConstantWave>(1.0), Time::seconds(start_s),
        Time::seconds(end_s), 1.0, range));
    return id;
  }
};

TEST(GroundTruth, StaticAudibilityAllOrNothing) {
  GtFixture f;
  f.add_static({0, 0}, 2, 8, 3.0);
  f.gt.set_node_positions({{1, 0}, {10, 0}});
  const auto& s = f.field.sources()[0];
  EXPECT_EQ(f.gt.audible_from(s, {1, 0}).measure(), Time::seconds_i(6));
  EXPECT_EQ(f.gt.audible_from(s, {10, 0}).measure(), Time::zero());
}

TEST(GroundTruth, HearableIsUnionOverNodes) {
  GtFixture f;
  // Source moves from x=0 to x=20 at 2 ft/s; nodes at x=2 and x=14 with
  // range 3: audible in two disjoint windows.
  f.add_moving({0, 0}, 2.0, 0, 10, 3.0);
  f.gt.set_node_positions({{2, 0}, {14, 0}});
  const auto& s = f.field.sources()[0];
  const auto& h = f.gt.hearable(s);
  EXPECT_EQ(h.intervals().size(), 2u);
  // First window: source starts 2 ft from node A, leaves range at t=2.5 s
  // (2.5 s); second window: 3 s centred on node B => 5.5 s total, found by
  // 50 ms sampling.
  EXPECT_NEAR(h.measure().to_seconds(), 5.5, 0.2);
}

TEST(GroundTruth, HearableElapsedClips) {
  GtFixture f;
  f.add_static({0, 0}, 2, 8, 3.0);
  f.gt.set_node_positions({{1, 0}});
  const auto& s = f.field.sources()[0];
  EXPECT_EQ(f.gt.hearable_elapsed(s, Time::seconds_i(5)), Time::seconds_i(3));
  EXPECT_EQ(f.gt.hearable_elapsed(s, Time::seconds_i(100)), Time::seconds_i(6));
  EXPECT_EQ(f.gt.hearable_elapsed(s, Time::seconds_i(1)), Time::zero());
}

TEST(GroundTruth, TotalHearableSumsSources) {
  GtFixture f;
  f.add_static({0, 0}, 0, 4, 3.0);
  f.add_static({0, 0}, 10, 12, 3.0);
  f.gt.set_node_positions({{1, 0}});
  EXPECT_EQ(f.gt.total_hearable_elapsed(Time::seconds_i(100)),
            Time::seconds_i(6));
}

TEST(GroundTruth, AttributionClipsToAudibilityAndEvent) {
  GtFixture f;
  f.add_static({0, 0}, 2, 8, 3.0);
  f.gt.set_node_positions({{1, 0}});
  // A recording from 0..10 at an in-range position captures only 2..8.
  const auto attrs = f.gt.attribute({1, 0}, Time::zero(), Time::seconds_i(10));
  ASSERT_EQ(attrs.size(), 1u);
  ASSERT_EQ(attrs[0].intervals.size(), 1u);
  EXPECT_EQ(attrs[0].intervals[0].start, Time::seconds_i(2));
  EXPECT_EQ(attrs[0].intervals[0].end, Time::seconds_i(8));
}

TEST(GroundTruth, AttributionEmptyOutOfRange) {
  GtFixture f;
  f.add_static({0, 0}, 2, 8, 3.0);
  f.gt.set_node_positions({{1, 0}});
  EXPECT_TRUE(f.gt.attribute({30, 0}, Time::zero(), Time::seconds_i(10)).empty());
}

TEST(GroundTruth, AttributionCoversMultipleConcurrentSources) {
  GtFixture f;
  f.add_static({0, 0}, 2, 8, 3.0);
  f.add_static({0.5, 0}, 4, 6, 3.0);
  f.gt.set_node_positions({{1, 0}});
  const auto attrs = f.gt.attribute({1, 0}, Time::zero(), Time::seconds_i(10));
  EXPECT_EQ(attrs.size(), 2u);
}

// --- Metrics over a real world -----------------------------------------------

TEST(Metrics, MissAndRedundancyFromStoredChunks) {
  auto world = testing::WorldBuilder{}
                   .mode(Mode::kUncoordinated)
                   .seed(131)
                   .perfect_detection()
                   .grid(4, 4);
  testing::add_event(*world, {3, 3}, 5.0, 15.0);
  world->start();
  world->run_until(sim::Time::seconds_i(20));
  const auto snap = world->snapshot();
  // 4 independent recorders: nearly full coverage, ~3/4 redundancy.
  EXPECT_EQ(snap.hearable, Time::seconds_i(10));
  EXPECT_LT(snap.miss_ratio, 0.1);
  EXPECT_NEAR(snap.redundancy_ratio, 0.75, 0.08);
  EXPECT_GT(snap.stored_total.to_seconds(), 30.0);
}

TEST(Metrics, MissRatioIsOneWithoutRecordings) {
  auto world = testing::WorldBuilder{}
                   .mode(Mode::kCooperativeOnly)
                   .seed(132)
                   .grid(2, 2);
  // Event audible by nobody close enough to record before it ends at 5.2 s.
  testing::add_event(*world, {0, 0}, 5.0, 5.2, 1.0);
  world->start();
  world->run_until(sim::Time::seconds_i(10));
  const auto snap = world->snapshot();
  EXPECT_GT(snap.hearable, Time::zero());
  EXPECT_GT(snap.miss_ratio, 0.5);
}

TEST(Metrics, PerNodeArraysMatchWorldSize) {
  auto world = testing::WorldBuilder{}
                   .mode(Mode::kCooperativeOnly)
                   .seed(133)
                   .grid(3, 2);
  world->start();
  world->run_until(sim::Time::seconds_i(5));
  const auto snap = world->snapshot();
  EXPECT_EQ(snap.per_node_used_bytes.size(), 6u);
  EXPECT_EQ(snap.per_node_packets_sent.size(), 6u);
  EXPECT_EQ(snap.per_node_recorded_bytes.size(), 6u);
}

TEST(Metrics, LostMoteHidesItsStoreButKeepsItsHistory) {
  // A lost mote's chunks are unretrievable, so its store counts for
  // nothing; the messages it sent, its flash wear and its battery were real
  // and stay in its row.
  auto world = testing::WorldBuilder{}
                   .mode(Mode::kCooperativeOnly)
                   .seed(137)
                   .perfect_detection()
                   .lossless_radio()
                   .grid(4, 4);
  testing::add_event(*world, {3, 3}, 5.0, 15.0);
  world->start();
  world->run_until(sim::Time::seconds_i(20));
  std::size_t lost = 0;  // the mote holding the most audio
  for (std::size_t i = 1; i < world->node_count(); ++i) {
    if (world->node(i).store().used_bytes() >
        world->node(lost).store().used_bytes()) {
      lost = i;
    }
  }
  Node& n = world->node(lost);
  const auto before = world->snapshot();
  ASSERT_GT(before.per_node_used_bytes[lost], 0u);
  n.fail(/*lose_data=*/true);
  const auto after = world->snapshot();

  ASSERT_EQ(after.per_node_ids.size(), world->node_count());
  EXPECT_EQ(after.per_node_ids[lost], n.id());
  EXPECT_EQ(after.per_node_used_bytes[lost], 0u);
  EXPECT_GT(after.per_node_packets_sent[lost], 0u);
  EXPECT_EQ(after.per_node_packets_sent[lost], n.radio().stats().packets_sent);
  EXPECT_EQ(after.total_messages, before.total_messages);
  EXPECT_GT(after.per_node_wear_max[lost], 0u);
  EXPECT_EQ(after.per_node_wear_max[lost], n.flash().max_wear());
  EXPECT_GT(after.per_node_battery_j[lost], 0.0);
  EXPECT_EQ(after.per_node_battery_j[lost],
            n.energy().battery().remaining_joules());
  // Its chunks no longer cover the event: only other motes' copies count.
  EXPECT_LT(after.covered_unique, before.covered_unique);
  EXPECT_GT(after.miss_ratio, before.miss_ratio);
}

TEST(Metrics, RecordingLogCapturesActs) {
  auto world = testing::WorldBuilder{}
                   .mode(Mode::kUncoordinated)
                   .seed(135)
                   .perfect_detection()
                   .grid(2, 2);
  testing::add_event(*world, {1, 1}, 3.0, 6.0, 3.0);
  world->start();
  world->run_until(sim::Time::seconds_i(10));
  const auto& log = world->metrics().recording_log();
  EXPECT_GT(log.size(), 4u);
  for (const auto& act : log) {
    EXPECT_GT(act.end, act.start);
    EXPECT_GT(act.bytes, 0u);
  }
}

TEST(Metrics, MigratedChunksStillCountTowardCoverage) {
  // Record, then migrate everything away; the snapshot coverage must not
  // drop (the data still exists, just elsewhere).
  auto world = testing::WorldBuilder{}
                   .mode(Mode::kFull)
                   .seed(136)
                   .perfect_detection()
                   .lossless_radio()
                   .grid(4, 4);
  testing::add_event(*world, {3, 3}, 5.0, 10.0);
  world->start();
  world->run_until(sim::Time::seconds_i(12));
  const double covered_before = world->snapshot().covered_unique.to_seconds();
  // Manually push every hearer's chunks to the far corner node.
  auto& sinknode = *world->by_id(16);
  (void)sinknode;
  for (auto id : {6u, 7u, 10u, 11u}) {
    auto* n = world->by_id(id);
    ASSERT_NE(n, nullptr);
    if (n->store().chunk_count() > 0) {
      n->bulk().start_session(id == 6u ? 7u : 6u, 10);
    }
    world->run_for(sim::Time::seconds_i(30));
  }
  const double covered_after = world->snapshot().covered_unique.to_seconds();
  EXPECT_NEAR(covered_after, covered_before, 0.01);
}

}  // namespace
}  // namespace enviromic::core
