// Spanning-tree retrieval (paper §II-C's first design): flooded queries
// build a tree, replies route up it to the sink, and gap windows are
// re-flooded.
#include <gtest/gtest.h>

#include "world_fixture.h"

namespace enviromic::core {
namespace {

using testing::WorldBuilder;

storage::Chunk chunk_at(Node& n, net::EventId ev, double start_s,
                        double end_s) {
  storage::Chunk c;
  c.meta.key = n.store().next_key(n.id());
  c.meta.bytes = 500;
  c.meta.recorded_by = n.id();
  c.meta.event = ev;
  c.meta.start = sim::Time::seconds(start_s);
  c.meta.end = sim::Time::seconds(end_s);
  return c;
}

std::unique_ptr<World> line_world(std::uint64_t seed, int n,
                                  Mode mode = Mode::kCooperativeOnly) {
  WorldBuilder b;
  b.mode(mode).seed(seed).lossless_radio();
  auto world = std::make_unique<World>(b.cfg);
  for (int i = 0; i < n; ++i) world->add_node({3.0 * i, 0.0});
  return world;
}

TEST(TreeRetrieval, RepliesRouteMultiHopToTheSink) {
  // Node 5 (12 ft away, 4 hops at 4 ft range) holds a chunk; a flooded
  // query from node 1 must bring the descriptor all the way back.
  auto world = line_world(271, 6);
  auto& far = world->node(4);
  far.store().append(chunk_at(far, {far.id(), 1}, 1, 2));
  world->start();
  std::vector<net::QueryReply> replies;
  world->node(0).retrieval().start_query(
      sim::Time::zero(), sim::Time::seconds_i(100), /*hops=*/6,
      [&](const net::QueryReply& r) { replies.push_back(r); });
  world->run_for(sim::Time::seconds_i(10));
  ASSERT_EQ(replies.size(), 1u);
  EXPECT_EQ(replies[0].sender, far.id());
  // Intermediate nodes actually relayed.
  std::uint32_t relayed = 0;
  for (std::size_t i = 0; i < world->node_count(); ++i) {
    relayed += world->node(i).retrieval().stats().replies_relayed;
  }
  EXPECT_GE(relayed, 2u);
}

TEST(TreeRetrieval, WholeNetworkDrainsToCornerSink) {
  auto world = line_world(272, 7);
  for (std::size_t i = 1; i < world->node_count(); ++i) {
    auto& n = world->node(i);
    n.store().append(chunk_at(n, {n.id(), 1}, i * 10.0, i * 10.0 + 2.0));
  }
  world->start();
  std::size_t got = 0;
  world->node(0).retrieval().start_query(
      sim::Time::zero(), sim::Time::seconds_i(1000), /*hops=*/8,
      [&](const net::QueryReply&) { ++got; });
  world->run_for(sim::Time::seconds_i(15));
  EXPECT_EQ(got, world->node_count() - 1);
}

TEST(TreeRetrieval, SingleHopMissesWhatTheTreeFinds) {
  // The contrast the paper weighs in §II-C.
  auto run = [](std::uint8_t hops) {
    auto world = line_world(273, 6);
    for (std::size_t i = 1; i < world->node_count(); ++i) {
      auto& n = world->node(i);
      n.store().append(chunk_at(n, {n.id(), 1}, 5, 7));
    }
    world->start();
    std::size_t got = 0;
    world->node(0).retrieval().start_query(
        sim::Time::zero(), sim::Time::seconds_i(1000), hops,
        [&](const net::QueryReply&) { ++got; });
    world->run_for(sim::Time::seconds_i(15));
    return got;
  };
  EXPECT_EQ(run(1), 1u);  // only the adjacent node
  EXPECT_EQ(run(8), 5u);  // everyone
}

TEST(TreeRetrieval, FindGapWindowsFlagsMissingParts) {
  storage::FileIndex idx;
  storage::ChunkMeta a;
  a.event = {1, 0};
  a.key = 1;
  a.start = sim::Time::seconds_i(0);
  a.end = sim::Time::seconds_i(2);
  storage::ChunkMeta b = a;
  b.key = 2;
  b.start = sim::Time::seconds_i(5);
  b.end = sim::Time::seconds_i(6);
  idx.add(a, 10);
  idx.add(b, 11);
  const auto gaps = find_gap_windows(idx);
  ASSERT_EQ(gaps.size(), 1u);
  EXPECT_EQ(gaps[0].first, sim::Time::seconds_i(2));
  EXPECT_EQ(gaps[0].second, sim::Time::seconds_i(5));
}

TEST(TreeRetrieval, GapReQueryRetrievesTheMissingChunk) {
  // First query window misses a later chunk; the sink detects the gap in
  // the reassembled file and re-floods for it (paper: "their IDs are
  // flooded until all parts are retrieved successfully").
  auto world = line_world(274, 5);
  const net::EventId ev{99, 1};
  auto& n2 = world->node(2);
  auto& n3 = world->node(3);
  n2.store().append(chunk_at(n2, ev, 10, 12));
  n2.store().append(chunk_at(n2, ev, 15, 17));
  n3.store().append(chunk_at(n3, ev, 12, 15));  // middle piece elsewhere
  world->start();

  storage::FileIndex fetched;
  auto collect = [&](const net::QueryReply& r) {
    fetched.add(r.meta, r.sender);
  };
  // Round 1: a window that misses the middle chunk's holder? Query only
  // [14, 20): fetches the tail chunk, leaving [12, 15) unknown... then the
  // file summary shows the gap [12, 15) within what we hold.
  world->node(0).retrieval().start_query(sim::Time::seconds_i(9),
                                         sim::Time::seconds_i(12), 8, collect);
  world->run_for(sim::Time::seconds_i(10));
  world->node(0).retrieval().start_query(sim::Time::seconds_i(15),
                                         sim::Time::seconds_i(20), 8, collect);
  world->run_for(sim::Time::seconds_i(10));
  ASSERT_EQ(fetched.chunk_count(), 2u);
  const auto gaps = find_gap_windows(fetched);
  ASSERT_EQ(gaps.size(), 1u);

  // Round 2: re-flood exactly the gap window.
  world->node(0).retrieval().start_query(gaps[0].first, gaps[0].second, 8,
                                         collect);
  world->run_for(sim::Time::seconds_i(10));
  fetched.deduplicate();
  EXPECT_EQ(fetched.chunk_count(), 3u);
  EXPECT_TRUE(find_gap_windows(fetched).empty());
}

TEST(TreeRetrieval, PipelinedDrainStreamsChunksMultiHop) {
  // A pipelined drain hauls chunk *data* (not just descriptors) across the
  // tree: chunks hop the spanning tree over the bulk-transfer pipeline,
  // relayed store-and-forward at intermediate nodes, and land at the sink.
  auto world = line_world(281, 5, Mode::kFull);
  for (std::size_t i = 1; i < world->node_count(); ++i) {
    auto& n = world->node(i);
    n.store().append(chunk_at(n, {n.id(), 1}, i * 10.0, i * 10.0 + 2.0));
  }
  world->start();
  auto& sink = world->node(0);
  DrainOptions opts;
  opts.hops = 8;
  const auto id = sink.retrieval().start_drain(opts);
  world->run_for(sim::Time::seconds_i(60));
  EXPECT_EQ(sink.retrieval().collected_keys().size(), world->node_count() - 1);
  // Every field store is empty — the data moved, it wasn't copied.
  for (std::size_t i = 1; i < world->node_count(); ++i) {
    EXPECT_EQ(world->node(i).store().chunk_count(), 0u) << i;
  }
  // Intermediate nodes actually relayed chunk data upstream.
  std::uint32_t relayed = 0;
  for (std::size_t i = 0; i < world->node_count(); ++i) {
    relayed += world->node(i).retrieval().stats().chunks_relayed;
  }
  EXPECT_GE(relayed, 2u);
  // The drain wound itself down after the field ran dry.
  EXPECT_FALSE(sink.retrieval().drain_active(id));
}

TEST(TreeRetrieval, DrainSelectorFiltersBySource) {
  // /chunks/source/<id>: only the named recorder's chunks leave the field.
  auto world = line_world(282, 4, Mode::kFull);
  auto& n1 = world->node(1);
  auto& n2 = world->node(2);
  n1.store().append(chunk_at(n1, {n1.id(), 1}, 10, 12));
  n2.store().append(chunk_at(n2, {n2.id(), 1}, 20, 22));
  world->start();
  auto& sink = world->node(0);
  DrainOptions opts;
  opts.hops = 8;
  opts.selector = ResourceSelector::by_source(n2.id());
  sink.retrieval().start_drain(opts);
  world->run_for(sim::Time::seconds_i(30));
  ASSERT_EQ(sink.retrieval().collected().size(), 1u);
  EXPECT_EQ(sink.retrieval().collected()[0].meta.recorded_by, n2.id());
  EXPECT_EQ(n1.store().chunk_count(), 1u);  // unselected chunk stays put
  EXPECT_EQ(n2.store().chunk_count(), 0u);
}

TEST(TreeRetrieval, QueryStormCannotEvictLiveDrainTreeState) {
  // Regression: the seed's soft-state cap evicted by lowest map key, so a
  // storm of >cap queries threw away a live drain's tree parent and the
  // drain's replies fell off the tree. Eviction now protects entries with
  // an active serve session and ages the rest by TTL.
  auto world = line_world(283, 4, Mode::kFull);
  for (std::size_t i = 1; i < world->node_count(); ++i) {
    auto& n = world->node(i);
    for (int c = 0; c < 4; ++c) {
      n.store().append(
          chunk_at(n, {n.id(), 1}, i * 100.0 + c * 10.0, i * 100.0 + c * 10.0 + 2.0));
    }
  }
  world->start();
  auto& sink = world->node(0);
  DrainOptions opts;
  opts.hops = 8;
  sink.retrieval().start_drain(opts);
  // Let the drain build its tree and start streaming...
  world->run_for(sim::Time::millis(500));
  // ...then blast every relay with far more flooded queries than the
  // soft-state cap holds, directly into the handler (a hostile or merely
  // busy network — no radio round-trips, maximum eviction pressure).
  for (std::size_t i = 1; i < world->node_count(); ++i) {
    auto& n = world->node(i);
    net::QueryRequest q;
    q.sink = 999;
    q.hops_left = 1;
    q.from = sim::Time::zero();
    q.to = sim::Time::max();
    for (std::uint32_t id = 1; id <= 4 * kRetrievalMaxQueries + 50;
         ++id) {
      q.query_id = id;
      n.retrieval().handle(q, 999);
    }
  }
  world->run_for(sim::Time::seconds_i(60));
  // The live drain still routed everything home.
  EXPECT_EQ(sink.retrieval().collected_keys().size(),
            (world->node_count() - 1) * 4);
}

TEST(TreeRetrieval, MultiSinkChaosDrainIsAccountedAndDeterministic) {
  // Two corner sinks drain a faulty grid. The run must keep the chaos
  // invariants, account every eligible chunk as collected or missed, keep
  // physical double-uploads within the replicas aborted transfers created,
  // and reproduce bit-identically on the same seed with tracing on or off.
  core::ChaosRunConfig cfg;
  cfg.seed = 21;
  cfg.horizon = sim::Time::seconds_i(240);
  cfg.faults.crash_probability = 0.3;
  cfg.faults.downtime_mean = sim::Time::seconds_i(45);
  cfg.flight_recorder = false;
  cfg.payload_census = false;
  cfg.drain_sinks = 2;
  cfg.drain_hops = 10;
  const auto r = core::run_chaos(cfg);
  EXPECT_TRUE(r.invariants_hold());
  EXPECT_EQ(r.retrieval_sinks, 2u);
  EXPECT_GT(r.retrieval_eligible, 0u);
  EXPECT_GT(r.retrieval_collected, 0u);
  // Misses are accounted, not silently dropped: completeness counts the
  // eligible keys collected, and a late arrival (recorded after the drain
  // started) never stands in for an eligible key the drain missed.
  EXPECT_LE(r.retrieval_late_arrivals, r.retrieval_collected);
  EXPECT_LE(r.retrieval_collected - r.retrieval_late_arrivals,
            r.retrieval_eligible);
  EXPECT_DOUBLE_EQ(r.retrieval_miss_ratio,
                   1.0 - static_cast<double>(r.retrieval_collected -
                                             r.retrieval_late_arrivals) /
                             static_cast<double>(r.retrieval_eligible));
  EXPECT_GE(r.retrieval_miss_ratio, 0.0);
  EXPECT_LE(r.retrieval_miss_ratio, 1.0);
  // A chunk lands at two sinks only via distinct physical replicas (one
  // node can't double-upload); replicas come from aborted transfers.
  EXPECT_LE(r.retrieval_double_uploads, r.duplicate_risks_counted);

  const auto r2 = core::run_chaos(cfg);
  EXPECT_EQ(r.retrieval_collected, r2.retrieval_collected);
  EXPECT_EQ(r.retrieval_eligible, r2.retrieval_eligible);
  EXPECT_EQ(r.retrieval_late_arrivals, r2.retrieval_late_arrivals);
  EXPECT_EQ(r.retrieval_miss_ratio, r2.retrieval_miss_ratio);
  EXPECT_EQ(r.retrieval_double_uploads, r2.retrieval_double_uploads);
  EXPECT_EQ(r.retrieval_drain_span, r2.retrieval_drain_span);
  EXPECT_EQ(r.final_snapshot.total_messages, r2.final_snapshot.total_messages);
  EXPECT_EQ(r.executed_events, r2.executed_events);

  // Tracing must observe, never steer: the traced run is bit-identical.
  auto traced = cfg;
  traced.trace = true;
  const auto r3 = core::run_chaos(traced);
  EXPECT_GT(r3.trace.total_recorded(), 0u);
  EXPECT_EQ(r.retrieval_collected, r3.retrieval_collected);
  EXPECT_EQ(r.retrieval_drain_span, r3.retrieval_drain_span);
  EXPECT_EQ(r.final_snapshot.total_messages, r3.final_snapshot.total_messages);
  EXPECT_EQ(r.executed_events, r3.executed_events);
}

TEST(TreeRetrieval, ChaosDrainAsksOnlyForItsResource) {
  // The drain's selector decides which chunks are eligible: a window over
  // the first half of the run leaves out what was recorded after it.
  core::ChaosRunConfig cfg;
  cfg.seed = 21;
  cfg.horizon = sim::Time::seconds_i(240);
  cfg.faults.crash_probability = 0.3;
  cfg.faults.downtime_mean = sim::Time::seconds_i(45);
  cfg.flight_recorder = false;
  cfg.payload_census = false;
  cfg.drain_sinks = 2;
  cfg.drain_hops = 10;
  const auto all = core::run_chaos(cfg);
  const auto window = core::parse_resource("/chunks/time/0-120");
  ASSERT_TRUE(window);
  cfg.drain_resource = *window;
  const auto early = core::run_chaos(cfg);
  EXPECT_TRUE(early.invariants_hold());
  EXPECT_EQ(early.retrieval_sinks, 2u);
  EXPECT_GT(early.retrieval_eligible, 0u);
  EXPECT_LT(early.retrieval_eligible, all.retrieval_eligible);
}

}  // namespace
}  // namespace enviromic::core
