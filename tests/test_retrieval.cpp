// Data retrieval (paper §II-C): single-hop queries, flooded queries,
// time-range filtering, deduplication of repeated queries.
#include <gtest/gtest.h>

#include "world_fixture.h"

namespace enviromic::core {
namespace {

using testing::WorldBuilder;

storage::Chunk chunk_at(Node& n, double start_s, double end_s) {
  storage::Chunk c;
  c.meta.key = n.store().next_key(n.id());
  c.meta.bytes = 500;
  c.meta.recorded_by = n.id();
  c.meta.event = net::EventId{n.id(), 1};
  c.meta.start = sim::Time::seconds(start_s);
  c.meta.end = sim::Time::seconds(end_s);
  return c;
}

std::unique_ptr<World> line_world(std::uint64_t seed, int n = 4,
                                  double spacing = 3.0) {
  WorldBuilder b;
  b.mode(Mode::kCooperativeOnly).seed(seed).lossless_radio();
  auto world = std::make_unique<World>(b.cfg);
  for (int i = 0; i < n; ++i)
    world->add_node({spacing * static_cast<double>(i), 0.0});
  return world;
}

TEST(Retrieval, SingleHopReturnsNeighborsChunks) {
  auto world = line_world(111);
  auto& sink = world->node(0);
  auto& nbr = world->node(1);    // 3 ft: in range
  auto& far = world->node(3);    // 9 ft: out of range
  nbr.store().append(chunk_at(nbr, 1, 2));
  nbr.store().append(chunk_at(nbr, 3, 4));
  far.store().append(chunk_at(far, 1, 2));
  world->start();
  std::vector<net::QueryReply> replies;
  sink.retrieval().start_query(sim::Time::zero(), sim::Time::seconds_i(100), 1,
                               [&](const net::QueryReply& r) {
                                 replies.push_back(r);
                               });
  world->run_for(sim::Time::seconds_i(5));
  EXPECT_EQ(replies.size(), 2u);
  for (const auto& r : replies) EXPECT_EQ(r.sender, nbr.id());
}

TEST(Retrieval, SinkIncludesItsOwnChunks) {
  auto world = line_world(112);
  auto& sink = world->node(0);
  sink.store().append(chunk_at(sink, 1, 2));
  world->start();
  int replies = 0;
  sink.retrieval().start_query(sim::Time::zero(), sim::Time::seconds_i(10), 1,
                               [&](const net::QueryReply&) { ++replies; });
  world->run_for(sim::Time::seconds_i(5));
  EXPECT_EQ(replies, 1);
}

TEST(Retrieval, TimeRangeFilters) {
  auto world = line_world(113);
  auto& sink = world->node(0);
  auto& nbr = world->node(1);
  nbr.store().append(chunk_at(nbr, 1, 2));
  nbr.store().append(chunk_at(nbr, 10, 12));
  nbr.store().append(chunk_at(nbr, 20, 22));
  world->start();
  std::vector<net::QueryReply> replies;
  sink.retrieval().start_query(sim::Time::seconds_i(9), sim::Time::seconds_i(13),
                               1, [&](const net::QueryReply& r) {
                                 replies.push_back(r);
                               });
  world->run_for(sim::Time::seconds_i(5));
  ASSERT_EQ(replies.size(), 1u);
  EXPECT_EQ(replies[0].meta.start, sim::Time::seconds_i(10));
}

TEST(Retrieval, OverlapAtRangeEdgeIncluded) {
  auto world = line_world(114);
  auto& sink = world->node(0);
  auto& nbr = world->node(1);
  nbr.store().append(chunk_at(nbr, 1, 5));  // straddles the query start
  world->start();
  int replies = 0;
  sink.retrieval().start_query(sim::Time::seconds_i(4), sim::Time::seconds_i(10),
                               1, [&](const net::QueryReply&) { ++replies; });
  world->run_for(sim::Time::seconds_i(5));
  EXPECT_EQ(replies, 1);
}

TEST(Retrieval, FloodedQueryReachesFurtherNodes) {
  // Replies stay single-hop (the mule walks), but a flooded query makes
  // distant nodes serve it; verify via their service counters.
  auto world = line_world(115, 5);
  for (std::size_t i = 1; i < world->node_count(); ++i) {
    auto& n = world->node(i);
    n.store().append(chunk_at(n, 1, 2));
  }
  world->start();
  world->node(0).retrieval().start_query(sim::Time::zero(),
                                         sim::Time::seconds_i(10), 4,
                                         [](const net::QueryReply&) {});
  world->run_for(sim::Time::seconds_i(10));
  int served = 0, forwarded = 0;
  for (std::size_t i = 0; i < world->node_count(); ++i) {
    served += static_cast<int>(world->node(i).retrieval().stats().queries_served);
    forwarded +=
        static_cast<int>(world->node(i).retrieval().stats().queries_forwarded);
  }
  EXPECT_GE(served, 4);     // beyond single-hop reach
  EXPECT_GE(forwarded, 2);  // the flood actually propagated
}

TEST(Retrieval, RepeatedFloodServedOnce) {
  auto world = line_world(116, 3);
  auto& nbr = world->node(1);
  nbr.store().append(chunk_at(nbr, 1, 2));
  world->start();
  std::vector<net::QueryReply> replies;
  world->node(0).retrieval().start_query(
      sim::Time::zero(), sim::Time::seconds_i(10), 3,
      [&](const net::QueryReply& r) { replies.push_back(r); });
  world->run_for(sim::Time::seconds_i(10));
  // The flood re-broadcasts reach nbr multiple times; it must reply once.
  EXPECT_EQ(replies.size(), 1u);
}

TEST(Retrieval, ConcurrentQueriesDeliverIndependently) {
  // The retrieval plane keys replies by query id, so overlapping queries
  // from one sink no longer cannibalize each other: each handler sees
  // exactly the replies matching its own window. (The seed's single
  // active-query slot dropped the first query's replies on the floor.)
  auto world = line_world(117);
  auto& sink = world->node(0);
  auto& nbr = world->node(1);
  nbr.store().append(chunk_at(nbr, 1, 2));
  world->start();
  int first = 0, second = 0;
  sink.retrieval().start_query(sim::Time::zero(), sim::Time::seconds_i(10), 1,
                               [&](const net::QueryReply&) { ++first; });
  // Immediately issue a second query (before replies to the first land).
  sink.retrieval().start_query(sim::Time::seconds_i(50),
                               sim::Time::seconds_i(60), 1,
                               [&](const net::QueryReply&) { ++second; });
  world->run_for(sim::Time::seconds_i(5));
  EXPECT_EQ(first, 1);   // the chunk matches the first window
  EXPECT_EQ(second, 0);  // nothing matches the second window
}

TEST(Retrieval, ParseResourcePaths) {
  const auto all = parse_resource("/chunks/all");
  ASSERT_TRUE(all.has_value());
  EXPECT_EQ(all->kind, ResourceSelector::Kind::kTime);
  EXPECT_TRUE(all->from.is_zero());
  EXPECT_EQ(all->to, sim::Time::max());

  const auto window = parse_resource("/chunks/time/5-12.5");
  ASSERT_TRUE(window.has_value());
  EXPECT_EQ(window->from, sim::Time::seconds(5.0));
  EXPECT_EQ(window->to, sim::Time::seconds(12.5));

  const auto src = parse_resource("/chunks/source/7");
  ASSERT_TRUE(src.has_value());
  EXPECT_EQ(src->kind, ResourceSelector::Kind::kSource);
  EXPECT_EQ(src->source, 7u);

  for (const char* bad :
       {"", "nope", "/chunks", "/chunks/", "/chunks/time/", "/chunks/time/3",
        "/chunks/time/9-3", "/chunks/time/4-4", "/chunks/time/x-4",
        "/chunks/time/0-1e12", "/chunks/time/1e12-2e12",
        "/chunks/source/", "/chunks/source/abc", "/chunks/source/-1"}) {
    EXPECT_FALSE(parse_resource(bad).has_value()) << bad;
  }
}

TEST(Retrieval, SelectorMatchesByKind) {
  storage::ChunkMeta m;
  m.recorded_by = 4;
  m.start = sim::Time::seconds_i(10);
  m.end = sim::Time::seconds_i(12);
  EXPECT_TRUE(ResourceSelector::all().matches(m));
  EXPECT_TRUE(ResourceSelector::time_range(sim::Time::seconds_i(11),
                                           sim::Time::seconds_i(20))
                  .matches(m));
  EXPECT_FALSE(ResourceSelector::time_range(sim::Time::seconds_i(12),
                                            sim::Time::seconds_i(20))
                   .matches(m));
  EXPECT_TRUE(ResourceSelector::by_source(4).matches(m));
  EXPECT_FALSE(ResourceSelector::by_source(5).matches(m));
}

TEST(Retrieval, DecodeCollectedCountsDistinctFragmentsOnce) {
  // Two arrivals of the same (group, index) fragment are one consumed
  // fragment — the seed counted every duplicate, overstating drain work.
  auto frag = [](std::uint8_t index) {
    CollectedChunk c;
    c.meta.key = 9000 + index;
    c.meta.ec_group = 42;
    c.meta.ec_index = index;
    c.meta.ec_k = 2;
    c.meta.ec_n = 3;
    c.meta.ec_orig_bytes = 100;
    c.meta.bytes = 50;
    return c;
  };
  std::vector<CollectedChunk> got = {frag(0), frag(0), frag(1)};
  DecodeDrainStats st;
  decode_collected(got, &st);
  EXPECT_EQ(st.fragments_consumed, 2u);
  EXPECT_EQ(st.groups_seen, 1u);
}

TEST(Retrieval, HarvestSurvivesBrownoutMidDrain) {
  // A radio brownout in the middle of a direct (single-hop mule) harvest
  // must not destroy data: the seed popped each chunk from the store before
  // the send, so every send attempted while the radio was dark vanished.
  // The fix pops only after a successful send and retries otherwise.
  auto world = line_world(301, 2);
  auto& sink = world->node(0);
  auto& srv = world->node(1);
  constexpr int kChunks = 30;
  for (int i = 0; i < kChunks; ++i)
    srv.store().append(chunk_at(srv, i * 10.0, i * 10.0 + 2.0));
  world->start();
  DrainOptions opts;
  opts.hops = 1;
  opts.pipelined = false;
  sink.retrieval().start_drain(opts);
  // Let the harvest get going, then brown the server out mid-stream.
  world->run_for(sim::Time::millis(60));
  srv.brownout(sim::Time::seconds_i(3));
  world->run_for(sim::Time::seconds_i(40));
  // Conservation: every chunk is at the sink or still in the store...
  EXPECT_EQ(sink.retrieval().collected_keys().size() +
                srv.store().chunk_count(),
            static_cast<std::size_t>(kChunks));
  // ...and the drain actually resumed once the radio came back.
  EXPECT_EQ(sink.retrieval().collected_keys().size(),
            static_cast<std::size_t>(kChunks));
}

TEST(Retrieval, TwoSinksDrainConcurrently) {
  // sinkA -- server -- sinkB: both sinks harvest at once. The seed's single
  // harvesting_ flag made the server ignore every sink after the first, so
  // the second drain starved until the first one's 10 s timeout. Per-sink
  // serve sessions interleave them instead.
  auto world = line_world(302, 3);
  auto& a = world->node(0);
  auto& srv = world->node(1);
  auto& b = world->node(2);
  constexpr int kChunks = 12;
  for (int i = 0; i < kChunks; ++i)
    srv.store().append(chunk_at(srv, i * 10.0, i * 10.0 + 2.0));
  world->start();
  DrainOptions opts;
  opts.hops = 1;
  opts.pipelined = false;
  a.retrieval().start_drain(opts);
  b.retrieval().start_drain(opts);
  world->run_for(sim::Time::seconds_i(8));
  const auto& ka = a.retrieval().collected_keys();
  const auto& kb = b.retrieval().collected_keys();
  // Both sinks made progress well before the first drain wound down.
  EXPECT_FALSE(ka.empty());
  EXPECT_FALSE(kb.empty());
  // Between them they drained the whole store, and overlap resolution kept
  // any chunk from being physically uploaded twice.
  EXPECT_EQ(ka.size() + kb.size(), static_cast<std::size_t>(kChunks));
  EXPECT_EQ(srv.store().chunk_count(), 0u);
  for (const auto key : ka) EXPECT_EQ(kb.count(key), 0u) << key;
}

TEST(Retrieval, QuerySoftStateBounded) {
  // A query storm cannot grow the seen-set/tree-parent table without bound:
  // entries age out by TTL and a hard cap (4x kRetrievalMaxQueries) evicts
  // the oldest unprotected entries.
  auto world = line_world(303, 2);
  world->start();
  auto& n = world->node(1);
  net::QueryRequest q;
  q.sink = 77;
  q.hops_left = 1;
  q.from = sim::Time::zero();
  q.to = sim::Time::max();
  for (std::uint32_t id = 1; id <= 1000; ++id) {
    q.query_id = id;
    n.retrieval().handle(q, /*from=*/77);
  }
  EXPECT_LE(n.retrieval().query_state_size(),
            4 * kRetrievalMaxQueries);
}

TEST(Retrieval, RepeatedHarvestFloodsCountOneServe) {
  // Re-flood rounds of the same sink's drain refresh the serve session;
  // they are one served query, not one per round. (The seed's seen_ set
  // was also unbounded — QuerySoftStateBounded covers the cap.)
  auto world = line_world(304, 2);
  auto& srv = world->node(1);
  srv.store().append(chunk_at(srv, 1, 2));
  world->start();
  net::QueryRequest q;
  q.sink = 77;
  q.hops_left = 1;
  q.from = sim::Time::zero();
  q.to = sim::Time::max();
  q.harvest = true;
  q.query_id = 9;
  srv.retrieval().handle(q, 77);
  q.query_id = 10;  // next flood round of the same drain
  srv.retrieval().handle(q, 77);
  EXPECT_EQ(srv.retrieval().stats().queries_served, 1u);
  EXPECT_EQ(srv.retrieval().active_serves(), 1u);
}

TEST(Retrieval, DescriptorSurvivesEveryPathWhole) {
  // One chunk with every descriptor field off its default comes back equal
  // from flash recovery, from both drain schemes and from a data mule: the
  // descriptor travels as one struct, so no path can drop a field.
  auto descriptor = [](net::NodeId holder) {
    storage::ChunkMeta m;
    m.key = storage::make_chunk_key(holder, 41);
    m.event = net::EventId{holder + 5, 3};
    m.start = sim::Time::seconds_i(12);
    m.end = sim::Time::seconds_i(14);
    m.recorded_by = holder + 7;
    m.bytes = 700;
    m.is_prelude = true;
    m.ec_group = storage::make_chunk_key(holder + 7, 2);
    m.ec_index = 2;
    m.ec_k = 3;
    m.ec_n = 5;
    m.ec_orig_bytes = 2000;
    return m;
  };
  // Only full mode grants the transfers a pipelined drain pushes over.
  auto pair_world = [&](std::uint64_t seed) {
    WorldBuilder b;
    b.mode(Mode::kFull).seed(seed).lossless_radio();
    auto world = std::make_unique<World>(b.cfg);
    world->add_node({0.0, 0.0});
    world->add_node({3.0, 0.0});
    auto& holder = world->node(1);
    EXPECT_TRUE(holder.store().append({descriptor(holder.id()), {}}));
    return world;
  };

  {
    storage::Flash flash;
    storage::Eeprom eeprom;
    storage::ChunkStore store(flash, eeprom);
    ASSERT_TRUE(store.append({descriptor(1), {}}));
    store.checkpoint();
    const auto back = storage::ChunkStore::recover(flash, eeprom);
    ASSERT_EQ(back.chunk_count(), 1u);
    EXPECT_EQ(*back.head_meta(), descriptor(1)) << "recover";
  }
  for (const bool pipelined : {true, false}) {
    auto world = pair_world(pipelined ? 311 : 312);
    auto& sink = world->node(0);
    const auto want = descriptor(world->node(1).id());
    world->start();
    DrainOptions opts;
    opts.hops = 1;
    opts.pipelined = pipelined;
    sink.retrieval().start_drain(opts);
    world->run_for(sim::Time::seconds_i(20));
    ASSERT_EQ(sink.retrieval().collected().size(), 1u) << pipelined;
    EXPECT_EQ(sink.retrieval().collected()[0].meta, want)
        << (pipelined ? "pipelined drain" : "direct-reply drain");
  }
  {
    auto world = pair_world(313);
    const auto want = descriptor(world->node(1).id());
    MuleConfig mc;
    mc.speed_ft_s = 1.0;
    DataMule mule(*world, {{-2.0, 0.0}, {5.0, 0.0}}, sim::Time::seconds_i(1),
                  mc);
    world->start();
    mule.start();
    world->run_for(sim::Time::seconds_i(20));
    ASSERT_EQ(mule.collected_metas().size(), 1u);
    EXPECT_EQ(mule.collected_metas()[0], want) << "mule";
  }
}

}  // namespace
}  // namespace enviromic::core
