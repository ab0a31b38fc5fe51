#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "net/channel.h"
#include "sim/scheduler.h"

namespace enviromic::net {
namespace {

using sim::Time;

struct ChannelFixture {
  sim::Scheduler sched;
  ChannelConfig cfg;
  std::unique_ptr<Channel> channel;

  explicit ChannelFixture(ChannelConfig c = make_default()) : cfg(c) {
    channel = std::make_unique<Channel>(sched, sim::Rng(31), cfg);
  }

  static ChannelConfig make_default() {
    ChannelConfig c;
    c.comm_range = 10.0;
    c.loss_probability = 0.0;
    return c;
  }

  Packet packet_from(NodeId src, NodeId dst = kBroadcast) {
    Packet p;
    p.src = src;
    p.dst = dst;
    p.messages.push_back(Sensing{});
    return p;
  }
};

TEST(Channel, DeliversWithinRange) {
  ChannelFixture f;
  auto a = f.channel->create_radio(1, {0, 0});
  auto b = f.channel->create_radio(2, {5, 0});
  int received = 0;
  b->set_receive_handler([&](const Packet&) { ++received; });
  a->send(f.packet_from(1));
  f.sched.run();
  EXPECT_EQ(received, 1);
  EXPECT_EQ(a->stats().packets_sent, 1u);
  EXPECT_EQ(b->stats().packets_received, 1u);
}

TEST(Channel, NoDeliveryBeyondRange) {
  ChannelFixture f;
  auto a = f.channel->create_radio(1, {0, 0});
  auto b = f.channel->create_radio(2, {15, 0});
  int received = 0;
  b->set_receive_handler([&](const Packet&) { ++received; });
  a->send(f.packet_from(1));
  f.sched.run();
  EXPECT_EQ(received, 0);
}

TEST(Channel, DeliveryIsDelayedByAirTime) {
  ChannelFixture f;
  auto a = f.channel->create_radio(1, {0, 0});
  auto b = f.channel->create_radio(2, {5, 0});
  Time arrival;
  b->set_receive_handler([&](const Packet&) { arrival = f.sched.now(); });
  const auto air = f.channel->air_time(f.packet_from(1).total_bytes());
  a->send(f.packet_from(1));
  f.sched.run();
  EXPECT_EQ(arrival, air);
  EXPECT_GT(air, Time::zero());
}

TEST(Channel, RadioOffMissesPackets) {
  ChannelFixture f;
  auto a = f.channel->create_radio(1, {0, 0});
  auto b = f.channel->create_radio(2, {5, 0});
  int received = 0;
  b->set_receive_handler([&](const Packet&) { ++received; });
  b->set_on(false);
  a->send(f.packet_from(1));
  f.sched.run();
  EXPECT_EQ(received, 0);
  EXPECT_EQ(b->stats().packets_missed_off, 1u);
  EXPECT_EQ(f.channel->stats().losses_radio_off, 1u);
}

TEST(Channel, OffRadioCannotSend) {
  ChannelFixture f;
  auto a = f.channel->create_radio(1, {0, 0});
  a->set_on(false);
  EXPECT_FALSE(a->send(f.packet_from(1)));
}

TEST(Channel, UnicastIsOverheardByThirdParties) {
  // Overhearing is load-bearing in EnviroMic (TASK_CONFIRM suppression).
  ChannelFixture f;
  auto a = f.channel->create_radio(1, {0, 0});
  auto b = f.channel->create_radio(2, {5, 0});
  auto c = f.channel->create_radio(3, {0, 5});
  int b_received = 0, c_received = 0;
  b->set_receive_handler([&](const Packet&) { ++b_received; });
  c->set_receive_handler([&](const Packet&) { ++c_received; });
  a->send(f.packet_from(1, /*dst=*/2));
  f.sched.run();
  EXPECT_EQ(b_received, 1);
  EXPECT_EQ(c_received, 1);
}

TEST(Channel, TransferFramesReachOnlyTheirAddressee) {
  // A unicast packet of bulk-transfer frames addressed to its dst runs only
  // the addressee's handler; a third radio in range still receives it
  // physically (counters and RX air time).
  ChannelFixture f;
  auto a = f.channel->create_radio(1, {0, 0});
  auto b = f.channel->create_radio(2, {5, 0});
  auto c = f.channel->create_radio(3, {0, 5});
  int b_received = 0, c_received = 0;
  double c_rx_s = 0.0;
  b->set_receive_handler([&](const Packet&) { ++b_received; });
  c->set_receive_handler([&](const Packet&) { ++c_received; });
  c->set_airtime_handler([&](double s, bool is_tx) {
    if (!is_tx) c_rx_s += s;
  });
  const auto transfer_to = [](NodeId dst, NodeId to) {
    Packet p;
    p.src = 1;
    p.dst = dst;
    TransferData d;
    d.sender = 1;
    d.to = to;
    d.payload_bytes = 40;
    p.messages.push_back(d);
    return p;
  };
  const Packet only_b = transfer_to(2, 2);
  a->send(only_b);
  f.sched.run();
  EXPECT_EQ(b_received, 1);
  EXPECT_EQ(c_received, 0);
  EXPECT_EQ(c->stats().packets_received, 1u);
  EXPECT_EQ(c->stats().bytes_received, only_b.total_bytes());
  EXPECT_DOUBLE_EQ(c_rx_s, f.channel->air_time(only_b.total_bytes()).to_seconds());

  // Anything a bystander might act on reaches both handlers: a piggybacked
  // beacon, a frame whose `to` is not the packet's dst, and a broadcast.
  Packet piggybacked = transfer_to(2, 2);
  piggybacked.messages.push_back(StateBeacon{});
  for (const Packet& p : {piggybacked, transfer_to(2, 3),
                          transfer_to(kBroadcast, 2)}) {
    b_received = c_received = 0;
    a->send(p);
    f.sched.run();
    EXPECT_EQ(b_received, 1);
    EXPECT_EQ(c_received, 1);
  }
  EXPECT_EQ(c->stats().packets_received, 4u);
}

TEST(Channel, LossProbabilityRoughlyHonoured) {
  auto cfg = ChannelFixture::make_default();
  cfg.loss_probability = 0.3;
  ChannelFixture f(cfg);
  auto a = f.channel->create_radio(1, {0, 0});
  auto b = f.channel->create_radio(2, {5, 0});
  int received = 0;
  b->set_receive_handler([&](const Packet&) { ++received; });
  const int n = 2000;
  for (int i = 0; i < n; ++i) {
    f.sched.after(Time::millis(i * 10), [&] { a->send(f.packet_from(1)); });
  }
  f.sched.run();
  EXPECT_NEAR(static_cast<double>(received) / n, 0.7, 0.05);
  EXPECT_EQ(b->stats().packets_lost + b->stats().packets_received,
            static_cast<std::uint64_t>(n));
}

TEST(Channel, SimultaneousSendersDeferViaCsma) {
  ChannelFixture f;
  auto a = f.channel->create_radio(1, {0, 0});
  auto b = f.channel->create_radio(2, {1, 0});
  auto c = f.channel->create_radio(3, {2, 0});
  int received = 0;
  c->set_receive_handler([&](const Packet&) { ++received; });
  // Both transmit at the same instant: the second should carrier-sense the
  // first and back off, so both eventually deliver.
  f.sched.at(Time::millis(1), [&] { a->send(f.packet_from(1)); });
  f.sched.at(Time::millis(1), [&] { b->send(f.packet_from(2)); });
  f.sched.run();
  EXPECT_EQ(received, 2);
  EXPECT_GE(a->stats().csma_backoffs + b->stats().csma_backoffs, 1u);
  EXPECT_EQ(f.channel->stats().losses_collision, 0u);
}

TEST(Channel, HiddenTerminalCollides) {
  // a and c are out of carrier-sense range of each other but both reach b.
  auto cfg = ChannelFixture::make_default();
  cfg.comm_range = 10.0;
  cfg.carrier_sense_factor = 1.0;
  ChannelFixture f(cfg);
  auto a = f.channel->create_radio(1, {0, 0});
  auto b = f.channel->create_radio(2, {9, 0});
  auto c = f.channel->create_radio(3, {18, 0});
  int received = 0;
  b->set_receive_handler([&](const Packet&) { ++received; });
  f.sched.at(Time::millis(1), [&] { a->send(f.packet_from(1)); });
  f.sched.at(Time::millis(1), [&] { c->send(f.packet_from(3)); });
  f.sched.run();
  EXPECT_EQ(received, 0);
  EXPECT_EQ(f.channel->stats().losses_collision, 2u);
}

TEST(Channel, AirTimeScalesWithSize) {
  ChannelFixture f;
  EXPECT_GT(f.channel->air_time(200), f.channel->air_time(50));
  // 250 kbps: 125 bytes = 1000 bits = 4 ms.
  EXPECT_NEAR(f.channel->air_time(125).to_seconds(), 0.004, 1e-9);
}

TEST(Channel, NeighborsOfRespectsRange) {
  ChannelFixture f;
  auto a = f.channel->create_radio(1, {0, 0});
  auto b = f.channel->create_radio(2, {5, 0});
  auto c = f.channel->create_radio(3, {50, 0});
  const auto n = f.channel->neighbors_of(1);
  ASSERT_EQ(n.size(), 1u);
  EXPECT_EQ(n[0], 2u);
  EXPECT_TRUE(f.channel->neighbors_of(3).empty());
  EXPECT_TRUE(f.channel->neighbors_of(99).empty());
}

TEST(Channel, SpatialIndexMatchesLinearNeighborQueries) {
  // Same deployment (including negative coordinates, which exercise the
  // floor-based cell partition) queried with the grid index on and off must
  // agree exactly, including neighbor order.
  auto indexed_cfg = ChannelFixture::make_default();
  auto linear_cfg = ChannelFixture::make_default();
  linear_cfg.use_spatial_index = false;
  ChannelFixture indexed(indexed_cfg);
  ChannelFixture linear(linear_cfg);

  std::vector<std::unique_ptr<Radio>> keep;
  sim::Rng rng(99);
  for (NodeId id = 1; id <= 60; ++id) {
    const sim::Position pos{rng.uniform(-40.0, 40.0), rng.uniform(-40.0, 40.0)};
    keep.push_back(indexed.channel->create_radio(id, pos));
    keep.push_back(linear.channel->create_radio(id, pos));
  }
  for (NodeId id = 1; id <= 60; ++id) {
    EXPECT_EQ(indexed.channel->neighbors_of(id), linear.channel->neighbors_of(id))
        << "node " << id;
  }
  EXPECT_TRUE(indexed.channel->spatial_index_active());
  EXPECT_FALSE(linear.channel->spatial_index_active());
}

TEST(Channel, MovedRadioIsTrackedAcrossCells) {
  // A mobile radio (data mule) must be found through the grid at its current
  // position, not the cell it was registered in.
  ChannelFixture f;
  auto a = f.channel->create_radio(1, {0, 0});
  auto b = f.channel->create_radio(2, {100, 100});
  int received = 0;
  b->set_receive_handler([&](const Packet&) { ++received; });

  a->send(f.packet_from(1));
  f.sched.run();
  EXPECT_EQ(received, 0);

  b->set_position({5, 0});
  EXPECT_EQ(f.channel->neighbors_of(1), (std::vector<NodeId>{2}));
  a->send(f.packet_from(1));
  f.sched.run();
  EXPECT_EQ(received, 1);

  b->set_position({200, 200});
  EXPECT_TRUE(f.channel->neighbors_of(1).empty());
  a->send(f.packet_from(1));
  f.sched.run();
  EXPECT_EQ(received, 1);
}

TEST(Channel, RadioDestroyedByReceiveHandlerDuringDelivery) {
  // A receive handler that tears down another radio must not derail the
  // in-progress delivery loop: the destroyed radio is skipped, everyone else
  // still hears the packet.
  ChannelFixture f;
  auto a = f.channel->create_radio(1, {0, 0});
  auto b = f.channel->create_radio(2, {1, 0});
  auto c = f.channel->create_radio(3, {2, 0});
  auto d = f.channel->create_radio(4, {3, 0});
  int c_received = 0, d_received = 0;
  b->set_receive_handler([&](const Packet&) { c.reset(); });
  c->set_receive_handler([&](const Packet&) { ++c_received; });
  d->set_receive_handler([&](const Packet&) { ++d_received; });
  a->send(f.packet_from(1));
  f.sched.run();
  EXPECT_EQ(c, nullptr);
  EXPECT_EQ(c_received, 0);  // destroyed before its delivery slot
  EXPECT_EQ(d_received, 1);  // later recipients still served
}

TEST(Channel, MassCrashDuringDeliveryServesExactlyTheSurvivors) {
  // Regression for the O(deaths x receivers) dead-list scan: a handler that
  // tears down a whole cell of radios mid-delivery must leave the loop
  // serving every survivor exactly once and no destroyed radio at all,
  // whatever the count. Once the topology counter has moved, the loop looks
  // each later snapshot entry up in the registry before touching it.
  ChannelFixture f;
  auto sender = f.channel->create_radio(1, {0, 0});
  std::vector<std::unique_ptr<Radio>> radios;
  std::vector<int> received(64, 0);
  for (NodeId id = 2; id <= 50; ++id) {
    radios.push_back(f.channel->create_radio(id, {0.1 * id, 0.0}));
    radios.back()->set_receive_handler(
        [&received, id](const Packet&) { ++received[id]; });
  }
  // The first receiver in registration order tears down every third radio
  // registered after it — 16 deaths inside one delivery loop.
  radios[0]->set_receive_handler([&](const Packet&) {
    ++received[2];
    for (std::size_t i = 1; i < radios.size(); i += 3) radios[i].reset();
  });
  sender->send(f.packet_from(1));
  f.sched.run();
  std::uint64_t live = 0;
  for (NodeId id = 2; id <= 50; ++id) {
    const std::size_t slot = static_cast<std::size_t>(id) - 2;
    const bool crashed = slot >= 1 && (slot - 1) % 3 == 0;
    if (crashed) {
      EXPECT_EQ(received[id], 0) << "delivered to dead radio " << id;
    } else {
      EXPECT_EQ(received[id], 1) << "skipped live radio " << id;
      ++live;
    }
  }
  EXPECT_EQ(f.channel->stats().deliveries, live);
}

TEST(Channel, NeighborCacheInvalidatedByMidDeliveryUnregister) {
  // A radio destroyed from inside the delivery loop unregisters itself, and
  // that must invalidate the sender's cached neighbor snapshot before the
  // next send: the dead radio may not be revisited, and a replacement
  // registered afterwards must be found. (A node that crashes or fails only
  // switches its radio off; destroying the radio is what unregisters it.)
  ChannelFixture f;
  auto sender = f.channel->create_radio(1, {0, 0});
  // The witness registers first, so the delivery loop serves it before the
  // victim and its handler can tear the victim down mid-loop.
  auto witness = f.channel->create_radio(2, {2, 0});
  auto victim = f.channel->create_radio(3, {1, 0});
  int witness_received = 0, victim_received = 0;
  // Warm the sender's neighbor cache with a first broadcast.
  witness->set_receive_handler([&](const Packet&) { ++witness_received; });
  victim->set_receive_handler([&](const Packet&) { ++victim_received; });
  sender->send(f.packet_from(1));
  f.sched.run();
  EXPECT_EQ(witness_received, 1);
  EXPECT_EQ(victim_received, 1);
  // Second broadcast: the witness's handler kills the victim mid-loop, so
  // the victim's (already-snapshotted) slot must be skipped.
  witness->set_receive_handler([&](const Packet&) {
    ++witness_received;
    victim.reset();
  });
  sender->send(f.packet_from(1));
  f.sched.run();
  EXPECT_EQ(victim, nullptr);
  EXPECT_EQ(witness_received, 2);
  EXPECT_EQ(victim_received, 1);
  // Third broadcast with no topology change since: if the mid-loop
  // unregister had not moved the topology counter, the sender's cached
  // snapshot would still hold the dangling victim pointer.
  witness->set_receive_handler([&](const Packet&) { ++witness_received; });
  sender->send(f.packet_from(1));
  f.sched.run();
  EXPECT_EQ(witness_received, 3);
  // And a radio registered afterwards is picked up by the refreshed cache.
  auto late = f.channel->create_radio(4, {3, 0});
  int late_received = 0;
  late->set_receive_handler([&](const Packet&) { ++late_received; });
  sender->send(f.packet_from(1));
  f.sched.run();
  EXPECT_EQ(witness_received, 4);
  EXPECT_EQ(late_received, 1);
  EXPECT_EQ(f.channel->stats().deliveries, 6u);
}

TEST(Channel, RadioDestroyedDuringCsmaBackoffIsDropped) {
  // A radio torn down while its packet waits out a CSMA back-off takes the
  // packet with it: the retry must not touch the freed radio, and nothing
  // goes on the air for it.
  ChannelFixture f;
  auto a = f.channel->create_radio(1, {0, 0});
  auto b = f.channel->create_radio(2, {5, 0});
  int a_received = 0;
  a->set_receive_handler([&](const Packet&) { ++a_received; });
  a->send(f.packet_from(1));  // on the air from now
  b->send(f.packet_from(2));  // senses a and backs off
  EXPECT_EQ(b->stats().csma_backoffs, 1u);
  b.reset();
  f.sched.run();
  EXPECT_EQ(f.channel->stats().transmissions, 1u);
  EXPECT_EQ(a_received, 0);
}

namespace {
void expect_same_stats(const ChannelStats& a, const ChannelStats& b) {
  EXPECT_EQ(a.transmissions, b.transmissions);
  EXPECT_EQ(a.deliveries, b.deliveries);
  EXPECT_EQ(a.losses_random, b.losses_random);
  EXPECT_EQ(a.losses_collision, b.losses_collision);
  EXPECT_EQ(a.losses_radio_off, b.losses_radio_off);
  EXPECT_EQ(a.losses_burst, b.losses_burst);
}

void expect_same_stats(const RadioStats& a, const RadioStats& b) {
  EXPECT_EQ(a.packets_sent, b.packets_sent);
  EXPECT_EQ(a.packets_received, b.packets_received);
  EXPECT_EQ(a.packets_missed_off, b.packets_missed_off);
  EXPECT_EQ(a.packets_lost, b.packets_lost);
  EXPECT_EQ(a.bytes_sent, b.bytes_sent);
  EXPECT_EQ(a.bytes_received, b.bytes_received);
  EXPECT_EQ(a.csma_backoffs, b.csma_backoffs);
  EXPECT_EQ(a.send_failures, b.send_failures);
}

/// Heterogeneous broadcast scenario: hidden-terminal collisions, random and
/// burst losses, powered-off receivers — every delivery-loop branch at once.
/// Returns (channel stats, per-radio stats in id order).
std::pair<ChannelStats, std::vector<RadioStats>> run_heterogeneous(
    bool spatial, double carrier_sense_factor) {
  auto cfg = ChannelFixture::make_default();
  cfg.use_spatial_index = spatial;
  cfg.carrier_sense_factor = carrier_sense_factor;
  cfg.loss_probability = 0.2;
  cfg.burst.enabled = true;
  cfg.burst.p_good_to_bad = 0.2;
  cfg.burst.p_bad_to_good = 0.4;
  cfg.burst.loss_bad = 0.8;
  cfg.link_asymmetry_max = 0.3;
  ChannelFixture f(cfg);
  // Hidden terminals a (id 1) and e (id 5) straddle a line of receivers.
  auto a = f.channel->create_radio(1, {0, 0});
  auto b = f.channel->create_radio(2, {6, 0});
  auto c = f.channel->create_radio(3, {9, 0});
  auto d = f.channel->create_radio(4, {12, 0});
  auto e = f.channel->create_radio(5, {18, 0});
  auto off = f.channel->create_radio(6, {3, 0});
  off->set_on(false);
  // 25 ft from a, no receiver within range: at a carrier-sense factor of 1
  // it hears and disturbs nobody; at 3 it senses a beyond 2x comm_range.
  auto far = f.channel->create_radio(7, {-25, 0});
  for (int round = 0; round < 200; ++round) {
    f.sched.after(sim::Time::millis(10 * round), [&] {
      a->send(f.packet_from(1));
      e->send(f.packet_from(5));
      far->send(f.packet_from(7));
    });
  }
  f.sched.run();
  std::vector<RadioStats> per_radio{a->stats(), b->stats(), c->stats(),
                                    d->stats(), e->stats(), off->stats(),
                                    far->stats()};
  return {f.channel->stats(), per_radio};
}
}  // namespace

TEST(Channel, BatchedDeliveryMatchesScalarPathExactly) {
  // Same seed, same scenario: the grid-indexed fan-out (cached neighbor
  // snapshot, banded interferer gather, carrier sense through the coarse
  // cells) must be bit-identical to the linear scan — same RNG draw order,
  // same counters — across every delivery-loop branch, with carrier sense
  // inside and beyond 2x comm_range.
  for (const double factor : {1.0, 3.0}) {
    SCOPED_TRACE(factor);
    const auto indexed = run_heterogeneous(true, factor);
    const auto linear = run_heterogeneous(false, factor);
    expect_same_stats(indexed.first, linear.first);
    ASSERT_EQ(indexed.second.size(), linear.second.size());
    for (std::size_t i = 0; i < indexed.second.size(); ++i) {
      SCOPED_TRACE(i);
      expect_same_stats(indexed.second[i], linear.second[i]);
    }
    if (factor == 1.0) {
      EXPECT_GT(indexed.first.losses_collision, 0u);
      EXPECT_GT(indexed.first.losses_burst, 0u);
      EXPECT_GT(indexed.first.losses_random, 0u);
      EXPECT_GT(indexed.first.losses_radio_off, 0u);
      EXPECT_GT(indexed.first.deliveries, 0u);
      EXPECT_EQ(indexed.second.back().csma_backoffs, 0u);
    } else {
      EXPECT_GT(indexed.second.back().csma_backoffs, 0u);
    }
  }
}

TEST(Channel, DeliveryOrderAtCellBoundariesIsRegistrationOrder) {
  // Receivers sitting exactly on grid-cell edges and exactly at comm_range
  // (the squared-distance boundary band) must be served in registration
  // order with the index on or off, so RNG consumers observe the same draw
  // sequence.
  std::vector<std::vector<NodeId>> orders;
  for (const bool spatial : {true, false}) {
    auto cfg = ChannelFixture::make_default();
    cfg.use_spatial_index = spatial;
    ChannelFixture f(cfg);
    auto sender = f.channel->create_radio(1, {0, 0});
    // Registration order deliberately differs from id and spatial order;
    // cell side is comm_range (10), so x in {10, -10, 0} are cell edges
    // and (10, 0) is exactly at range.
    const std::vector<std::pair<NodeId, sim::Position>> layout = {
        {7, {10.0, 0.0}},  {3, {-10.0, 0.0}}, {9, {0.0, 10.0}},
        {2, {5.0, 5.0}},   {8, {0.0, -10.0}}, {4, {10.0, 0.0}},
        {6, {-5.0, 5.0}},  {5, {0.0, 0.0}},
    };
    std::vector<std::unique_ptr<Radio>> keep;
    std::vector<NodeId> order;
    for (const auto& [id, pos] : layout) {
      keep.push_back(f.channel->create_radio(id, pos));
      keep.back()->set_receive_handler(
          [&order, id = id](const Packet&) { order.push_back(id); });
    }
    sender->send(f.packet_from(1));
    f.sched.run();
    EXPECT_EQ(order.size(), layout.size());
    orders.push_back(std::move(order));
  }
  for (std::size_t i = 1; i < orders.size(); ++i) {
    EXPECT_EQ(orders[i], orders[0]) << "config " << i;
  }
  // Registration order, by construction of the layout above.
  EXPECT_EQ(orders[0],
            (std::vector<NodeId>{7, 3, 9, 2, 8, 4, 6, 5}));
}

TEST(Channel, CollisionVerdictFollowsReceiverMovedMidDelivery) {
  // Sender s and hidden interferer x transmit at once, out of each other's
  // carrier-sense range. While s's packet is being delivered, the first
  // receiver's handler moves `in` (not yet served) into x's range and `out`
  // from x's range to clear air. Each verdict must follow the receiver's
  // position at its own turn, not where it stood when the delivery began.
  struct Outcome {
    ChannelStats stats;
    std::vector<NodeId> heard_s;
  };
  const auto run = [](bool spatial) {
    auto cfg = ChannelFixture::make_default();
    cfg.use_spatial_index = spatial;
    cfg.carrier_sense_factor = 1.0;
    ChannelFixture f(cfg);
    auto s = f.channel->create_radio(1, {0, 0});
    auto x = f.channel->create_radio(2, {18, 0});
    auto mover = f.channel->create_radio(3, {0, -5});
    auto in = f.channel->create_radio(4, {-5, 0});
    auto out = f.channel->create_radio(5, {9, 1});
    Outcome o;
    bool moved = false;
    mover->set_receive_handler([&](const Packet& p) {
      if (p.src == 1) o.heard_s.push_back(3);
      if (moved) return;
      moved = true;
      in->set_position({9, 0});
      out->set_position({-5, 0});
    });
    in->set_receive_handler([&](const Packet& p) {
      if (p.src == 1) o.heard_s.push_back(4);
    });
    out->set_receive_handler([&](const Packet& p) {
      if (p.src == 1) o.heard_s.push_back(5);
    });
    s->send(f.packet_from(1));
    x->send(f.packet_from(2));
    f.sched.run();
    o.stats = f.channel->stats();
    return o;
  };
  const Outcome indexed = run(true);
  const Outcome linear = run(false);
  expect_same_stats(indexed.stats, linear.stats);
  EXPECT_EQ(indexed.heard_s, linear.heard_s);
  // `in` collides with x at its new spot; `out` escaped x and hears s.
  EXPECT_EQ(indexed.heard_s, (std::vector<NodeId>{3, 5}));
  // s -> in, and x -> in (s interferes there too); nothing else collides.
  EXPECT_EQ(indexed.stats.losses_collision, 2u);
  EXPECT_EQ(indexed.stats.deliveries, 2u);
}

TEST(Channel, IdRebindsToNextRadioAfterUnregister) {
  ChannelFixture f;
  auto a = f.channel->create_radio(1, {0, 0});
  auto b = f.channel->create_radio(2, {5, 0});
  b.reset();
  EXPECT_TRUE(f.channel->neighbors_of(2).empty());
  EXPECT_TRUE(f.channel->neighbors_of(1).empty());
  auto b2 = f.channel->create_radio(2, {3, 0});
  EXPECT_EQ(f.channel->neighbors_of(2), (std::vector<NodeId>{1}));
  EXPECT_EQ(f.channel->neighbors_of(1), (std::vector<NodeId>{2}));
}

TEST(Channel, MessageTypeCountersTrack) {
  ChannelFixture f;
  auto a = f.channel->create_radio(1, {0, 0});
  auto b = f.channel->create_radio(2, {5, 0});
  (void)b;
  Packet p;
  p.src = 1;
  p.messages.push_back(TaskRequest{});
  p.messages.push_back(Sensing{});
  a->send(std::move(p));
  f.sched.run();
  EXPECT_EQ(a->stats().messages_sent[type_index(Message{TaskRequest{}})], 1u);
  EXPECT_EQ(a->stats().messages_sent[type_index(Message{Sensing{}})], 1u);
  EXPECT_EQ(a->stats().messages_sent[type_index(Message{Resign{}})], 0u);
}

TEST(Channel, AirtimeHandlerChargesBothDirections) {
  ChannelFixture f;
  auto a = f.channel->create_radio(1, {0, 0});
  auto b = f.channel->create_radio(2, {5, 0});
  double tx_s = 0, rx_s = 0;
  a->set_airtime_handler([&](double s, bool is_tx) {
    if (is_tx) tx_s += s;
  });
  b->set_airtime_handler([&](double s, bool is_tx) {
    if (!is_tx) rx_s += s;
  });
  a->send(f.packet_from(1));
  f.sched.run();
  EXPECT_GT(tx_s, 0.0);
  EXPECT_DOUBLE_EQ(tx_s, rx_s);
}

}  // namespace
}  // namespace enviromic::net
