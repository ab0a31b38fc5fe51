// Reliable bulk transfer: fragment/ack flow, metadata and payload fidelity,
// loss recovery, duplicate handling, and abort semantics.
#include <gtest/gtest.h>

#include "world_fixture.h"

namespace enviromic::core {
namespace {

using testing::WorldBuilder;

storage::Chunk test_chunk(Node& n, std::uint32_t bytes,
                          bool with_payload = false) {
  storage::Chunk c;
  c.meta.key = n.store().next_key(n.id());
  c.meta.bytes = bytes;
  c.meta.recorded_by = n.id();
  c.meta.event = net::EventId{n.id(), 5};
  c.meta.start = sim::Time::seconds_i(3);
  c.meta.end = sim::Time::seconds_i(4);
  if (with_payload) {
    c.payload.resize(bytes);
    for (std::uint32_t i = 0; i < bytes; ++i)
      c.payload[i] = static_cast<std::uint8_t>(i * 7);
  }
  return c;
}

std::unique_ptr<World> pair_world(double loss, std::uint64_t seed,
                                  bool payloads = false) {
  WorldBuilder b;
  b.mode(Mode::kFull).seed(seed);
  b.cfg.channel.loss_probability = loss;
  b.cfg.node_defaults.flash.store_payloads = payloads;
  // Fast fragments so tests run deep sequences quickly.
  b.cfg.node_defaults.protocol.transfer_fragment_spacing = sim::Time::millis(5);
  auto world = std::make_unique<World>(b.cfg);
  world->add_node({0, 0});
  world->add_node({2, 0});
  return world;
}

TEST(BulkTransfer, MovesChunkLossless) {
  auto world = pair_world(0.0, 91);
  auto& a = world->node(0);
  auto& b = world->node(1);
  a.store().append(test_chunk(a, 1000));
  world->start();
  a.bulk().start_session(b.id(), 4);
  world->run_until(sim::Time::seconds_i(10));
  EXPECT_EQ(a.store().chunk_count(), 0u);
  EXPECT_EQ(b.store().chunk_count(), 1u);
  EXPECT_EQ(a.bulk().stats().chunks_sent, 1u);
  EXPECT_EQ(b.bulk().stats().chunks_received, 1u);
}

TEST(BulkTransfer, MetadataPreservedAcrossMigration) {
  auto world = pair_world(0.0, 92);
  auto& a = world->node(0);
  auto& b = world->node(1);
  a.store().append(test_chunk(a, 700));
  const auto key = a.store().head_meta()->key;
  world->start();
  a.bulk().start_session(b.id(), 1);
  world->run_until(sim::Time::seconds_i(10));
  ASSERT_EQ(b.store().chunk_count(), 1u);
  const auto* m = b.store().head_meta();
  EXPECT_EQ(m->key, key);
  EXPECT_EQ(m->recorded_by, a.id());
  EXPECT_EQ(m->event, (net::EventId{a.id(), 5}));
  EXPECT_EQ(m->start, sim::Time::seconds_i(3));
  EXPECT_EQ(m->bytes, 700u);
}

TEST(BulkTransfer, PayloadPreservedAcrossMigration) {
  auto world = pair_world(0.0, 93, /*payloads=*/true);
  auto& a = world->node(0);
  auto& b = world->node(1);
  a.store().append(test_chunk(a, 500, /*with_payload=*/true));
  const auto key = a.store().head_meta()->key;
  world->start();
  a.bulk().start_session(b.id(), 1);
  world->run_until(sim::Time::seconds_i(10));
  const auto payload = b.store().read_payload(key);
  ASSERT_EQ(payload.size(), 500u);
  for (std::uint32_t i = 0; i < 500; ++i)
    EXPECT_EQ(payload[i], static_cast<std::uint8_t>(i * 7));
}

TEST(BulkTransfer, MultipleChunksInOneSession) {
  auto world = pair_world(0.0, 94);
  auto& a = world->node(0);
  auto& b = world->node(1);
  for (int i = 0; i < 5; ++i) a.store().append(test_chunk(a, 400));
  world->start();
  a.bulk().start_session(b.id(), 5);
  world->run_until(sim::Time::seconds_i(20));
  EXPECT_EQ(a.store().chunk_count(), 0u);
  EXPECT_EQ(b.store().chunk_count(), 5u);
}

TEST(BulkTransfer, SessionLimitRespected) {
  auto world = pair_world(0.0, 95);
  auto& a = world->node(0);
  auto& b = world->node(1);
  for (int i = 0; i < 5; ++i) a.store().append(test_chunk(a, 400));
  world->start();
  a.bulk().start_session(b.id(), 2);
  world->run_until(sim::Time::seconds_i(20));
  EXPECT_EQ(a.store().chunk_count(), 3u);
  EXPECT_EQ(b.store().chunk_count(), 2u);
}

TEST(BulkTransfer, SurvivesModerateLoss) {
  auto world = pair_world(0.15, 96);
  auto& a = world->node(0);
  auto& b = world->node(1);
  for (int i = 0; i < 3; ++i) a.store().append(test_chunk(a, 600));
  world->start();
  // Retry sessions until everything moves (the balancer would normally
  // drive this loop).
  for (int round = 0; round < 20 && a.store().chunk_count() > 0; ++round) {
    a.bulk().start_session(b.id(), 3);
    world->run_for(sim::Time::seconds_i(15));
  }
  EXPECT_EQ(a.store().chunk_count(), 0u);
  EXPECT_EQ(b.store().chunk_count(), 3u);
  EXPECT_GT(a.bulk().stats().fragments_retried, 0u);
  // No data was lost or duplicated despite retries.
  EXPECT_EQ(b.bulk().stats().chunks_received, 3u);
}

TEST(BulkTransfer, NoDataLossEvenWhenSessionAborts) {
  // Very lossy link: sessions abort, but every chunk remains available at
  // exactly one side or the other (possibly both — never zero).
  auto world = pair_world(0.5, 97);
  auto& a = world->node(0);
  auto& b = world->node(1);
  std::vector<std::uint64_t> keys;
  for (int i = 0; i < 3; ++i) {
    auto c = test_chunk(a, 600);
    keys.push_back(c.meta.key);
    a.store().append(std::move(c));
  }
  world->start();
  for (int round = 0; round < 10; ++round) {
    a.bulk().start_session(b.id(), 3);
    world->run_for(sim::Time::seconds_i(20));
  }
  for (const auto key : keys) {
    int copies = 0;
    a.store().for_each([&](const storage::ChunkMeta& m) {
      if (m.key == key) ++copies;
    });
    b.store().for_each([&](const storage::ChunkMeta& m) {
      if (m.key == key) ++copies;
    });
    EXPECT_GE(copies, 1) << "chunk " << key << " vanished";
  }
}

TEST(BulkTransfer, OfferToFullNodeGetsNoGrant) {
  auto world = pair_world(0.0, 98);
  auto& a = world->node(0);
  auto& b = world->node(1);
  a.store().append(test_chunk(a, 600));
  // Fill the receiver completely.
  while (b.store().can_fit(60000)) b.store().append(test_chunk(b, 60000));
  while (b.store().can_fit(1)) b.store().append(test_chunk(b, 200));
  world->start();
  a.bulk().start_session(b.id(), 1);
  world->run_until(sim::Time::seconds_i(10));
  EXPECT_EQ(a.store().chunk_count(), 1u);  // nothing moved
  EXPECT_GE(a.bulk().stats().aborts, 1u);  // grant timeout
}

TEST(BulkTransfer, NoSessionWithoutChunks) {
  auto world = pair_world(0.0, 99);
  auto& a = world->node(0);
  world->start();
  a.bulk().start_session(world->node(1).id(), 4);
  EXPECT_FALSE(a.bulk().sending());
  EXPECT_EQ(a.bulk().stats().sessions, 0u);
}

TEST(BulkTransfer, HeterogeneousFragmentSizesRoundTrip) {
  // Regression: the receive path used to derive payload offsets from the
  // RECEIVER's transfer_fragment_bytes, silently corrupting reassembly when
  // the two nodes were configured with different fragment sizes. The byte
  // offset now rides in TRANSFER_DATA, so the sender's layout wins.
  WorldBuilder b;
  b.mode(Mode::kFull).seed(101);
  b.cfg.channel.loss_probability = 0.0;
  b.cfg.node_defaults.flash.store_payloads = true;
  b.cfg.node_defaults.protocol.transfer_fragment_spacing = sim::Time::millis(5);
  NodeParams sender_params = b.cfg.node_defaults;
  sender_params.protocol.transfer_fragment_bytes = 48;
  NodeParams receiver_params = b.cfg.node_defaults;
  receiver_params.protocol.transfer_fragment_bytes = 96;
  auto world = std::make_unique<World>(b.cfg);
  auto& a = world->add_node({0, 0}, sender_params);
  auto& r = world->add_node({2, 0}, receiver_params);
  a.store().append(test_chunk(a, 500, /*with_payload=*/true));
  const auto key = a.store().head_meta()->key;
  world->start();
  a.bulk().start_session(r.id(), 1);
  world->run_until(sim::Time::seconds_i(10));
  ASSERT_EQ(r.store().chunk_count(), 1u);
  const auto payload = r.store().read_payload(key);
  ASSERT_EQ(payload.size(), 500u);
  for (std::uint32_t i = 0; i < 500; ++i) {
    ASSERT_EQ(payload[i], static_cast<std::uint8_t>(i * 7)) << "byte " << i;
  }
}

TEST(BulkTransfer, WindowOneReproducesStopAndWait) {
  // transfer_window_frags = 1 degenerates to the original protocol: one
  // fragment outstanding, an ack per fragment.
  WorldBuilder wb;
  wb.mode(Mode::kFull).seed(102);
  wb.cfg.channel.loss_probability = 0.0;
  wb.cfg.node_defaults.protocol.transfer_fragment_spacing = sim::Time::millis(5);
  wb.cfg.node_defaults.protocol.transfer_window_frags = 1;
  auto world = std::make_unique<World>(wb.cfg);
  auto& a = world->add_node({0, 0});
  auto& b = world->add_node({2, 0});
  a.store().append(test_chunk(a, 1024));  // 16 fragments at 64 B
  world->start();
  a.bulk().start_session(b.id(), 1);
  world->run_until(sim::Time::seconds_i(10));
  EXPECT_EQ(b.store().chunk_count(), 1u);
  const std::size_t data_idx =
      net::type_index(net::Message{net::TransferData{}});
  const std::size_t ack_idx = net::type_index(net::Message{net::TransferAck{}});
  EXPECT_EQ(a.radio().stats().messages_sent[data_idx], 16u);
  EXPECT_EQ(b.radio().stats().messages_sent[ack_idx], 16u);
  EXPECT_EQ(a.bulk().stats().max_in_flight, 1u);
}

TEST(BulkTransfer, WindowedPipelineBatchesAcks) {
  // With the default window, in-order fragments that don't request an ack
  // are absorbed silently; only burst-final, window-closing, and chunk-final
  // fragments solicit one — strictly fewer TRANSFER_ACKs than fragments
  // (stop-and-wait sends exactly one per fragment).
  auto world = pair_world(0.0, 103);
  auto& a = world->node(0);
  auto& b = world->node(1);
  a.store().append(test_chunk(a, 2048));  // 32 fragments at 64 B
  world->start();
  a.bulk().start_session(b.id(), 1);
  world->run_until(sim::Time::seconds_i(10));
  EXPECT_EQ(b.store().chunk_count(), 1u);
  const std::size_t data_idx =
      net::type_index(net::Message{net::TransferData{}});
  const std::size_t ack_idx = net::type_index(net::Message{net::TransferAck{}});
  // CSMA can defer an ack into the paced data stream and cost a watchdog
  // retransmit, so allow a little slack over the 32 fragments — but the ack
  // count must stay well under stop-and-wait's one per fragment.
  EXPECT_GE(a.radio().stats().messages_sent[data_idx], 32u);
  EXPECT_LE(a.radio().stats().messages_sent[data_idx], 35u);
  EXPECT_LE(b.radio().stats().messages_sent[ack_idx], 16u);
  EXPECT_GT(a.bulk().stats().max_in_flight, 1u);
}

TEST(BulkTransfer, ZeroByteChunkMigrates) {
  auto world = pair_world(0.0, 100);
  auto& a = world->node(0);
  auto& b = world->node(1);
  a.store().append(test_chunk(a, 0));
  world->start();
  a.bulk().start_session(b.id(), 1);
  world->run_until(sim::Time::seconds_i(10));
  EXPECT_EQ(b.store().chunk_count(), 1u);
  EXPECT_EQ(b.store().head_meta()->bytes, 0u);
}

TEST(BulkTransfer, SackReportsHolesAcrossWordBoundary) {
  // One 100-fragment chunk fed to the receiver out of order, with a
  // duplicate, holes on both sides of fragment 64 and a fragment beyond the
  // 32-bit SACK window. Each ack names the cumulative edge and which of the
  // 32 fragments above it arrived.
  WorldBuilder b;
  b.mode(Mode::kFull).seed(101).lossless_radio();
  World world(b.cfg);
  world.add_node({0, 0});
  auto& rx = world.node(0);
  const net::NodeId peer_id = 50;
  auto peer = world.channel().create_radio(peer_id, {1, 0});
  std::vector<net::TransferAck> acks;
  peer->set_receive_handler([&](const net::Packet& p) {
    for (const auto& m : p.messages) {
      if (const auto* a = std::get_if<net::TransferAck>(&m)) acks.push_back(*a);
    }
  });
  world.start();

  constexpr std::uint32_t kFrags = 100;
  // Feeds fragment f and returns how many acks it drew (0 or 1).
  auto feed = [&](std::uint32_t f, bool ack_request = false) {
    net::TransferData d;
    d.sender = peer_id;
    d.to = rx.id();
    d.meta.key = 77;
    d.frag_index = f;
    d.frag_count = kFrags;
    d.payload_bytes = 10;
    d.byte_offset = f * 10;
    d.meta.bytes = kFrags * 10;
    d.ack_request = ack_request;
    const std::size_t before = acks.size();
    rx.bulk().handle(d);
    world.run_until(world.sched().now() + sim::Time::millis(50));
    return acks.size() - before;
  };
  // Bit i of a SACK stands for fragment cum + 1 + i.
  auto sack = [](std::uint32_t cum, std::initializer_list<std::uint32_t> got) {
    std::uint32_t bits = 0;
    for (std::uint32_t f : got) bits |= 1u << (f - cum - 1);
    return bits;
  };
  auto expect_ack = [&](std::uint32_t frag, std::uint32_t cum,
                        std::uint32_t bits) {
    ASSERT_FALSE(acks.empty());
    EXPECT_EQ(acks.back().frag_index, frag);
    EXPECT_EQ(acks.back().cum_frags, cum);
    EXPECT_EQ(acks.back().sack, bits) << "ack for fragment " << frag;
  };

  // In-order fragments are absorbed silently.
  for (std::uint32_t f = 0; f < 40; ++f) EXPECT_EQ(feed(f), 0u) << f;
  // Out of order: every arrival acks. The window covers 41..72, so it
  // straddles the bitmap's first and second 64-bit words.
  EXPECT_EQ(feed(42), 1u);
  expect_ack(42, 40, sack(40, {42}));
  EXPECT_EQ(feed(63), 1u);
  expect_ack(63, 40, sack(40, {42, 63}));
  EXPECT_EQ(feed(65), 1u);  // hole at 64
  expect_ack(65, 40, sack(40, {42, 63, 65}));
  EXPECT_EQ(feed(72), 1u);  // the window's last bit
  expect_ack(72, 40, sack(40, {42, 63, 65, 72}));
  EXPECT_EQ(feed(73), 1u);  // past contig + 32: not reported yet
  expect_ack(73, 40, sack(40, {42, 63, 65, 72}));
  EXPECT_EQ(feed(65), 1u);  // duplicate
  expect_ack(65, 40, sack(40, {42, 63, 65, 72}));
  // Filling holes moves the edge; the window slides and picks up 73.
  EXPECT_EQ(feed(40, /*ack_request=*/true), 1u);
  expect_ack(40, 41, sack(41, {42, 63, 65, 72, 73}));
  EXPECT_EQ(feed(41, /*ack_request=*/true), 1u);
  expect_ack(41, 43, sack(43, {63, 65, 72, 73}));
  EXPECT_EQ(feed(64), 1u);
  expect_ack(64, 43, sack(43, {63, 64, 65, 72, 73}));

  // The remaining holes fill in order and the last fragment completes the
  // chunk: the final ack is cumulative over all 100 fragments.
  const std::size_t before = acks.size();
  for (std::uint32_t f = 43; f < kFrags; ++f) {
    if (f == 63 || f == 64 || f == 65 || f == 72 || f == 73) continue;
    feed(f);
  }
  EXPECT_EQ(acks.size(), before + 1);
  expect_ack(kFrags - 1, kFrags, 0);
  EXPECT_EQ(rx.bulk().stats().chunks_received, 1u);
  EXPECT_EQ(rx.bulk().rx_pending(), 0u);
}

}  // namespace
}  // namespace enviromic::core
