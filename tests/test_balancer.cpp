// Storage balancing (paper §II-B): TTL formulas, the beta sensitivity
// curve, the migration trigger and its gates, and end-to-end balancing.
#include <gtest/gtest.h>

#include <cmath>

#include "world_fixture.h"

namespace enviromic::core {
namespace {

using testing::WorldBuilder;
using testing::add_event;

std::unique_ptr<World> idle_world(double beta = 2.0, std::uint64_t seed = 81) {
  return WorldBuilder{}.mode(Mode::kFull, beta).seed(seed).lossless_radio().grid(
      3, 3);
}

storage::Chunk stuffing(Node& n, std::uint32_t bytes) {
  storage::Chunk c;
  c.meta.key = n.store().next_key(n.id());
  c.meta.bytes = bytes;
  c.meta.recorded_by = n.id();
  return c;
}

TEST(Balancer, TtlStorageIsFreeOverRate) {
  auto world = idle_world();
  world->start();
  auto& n = world->node(0);
  // No recordings yet: EWMA is 0 but the rate floor keeps TTL finite.
  const double floor = kRateFloorBytesPerS;
  EXPECT_NEAR(n.balancer().ttl_storage_seconds(),
              static_cast<double>(n.store().free_bytes()) / floor, 1.0);
}

TEST(Balancer, TtlStorageZeroWhenFull) {
  auto world = idle_world();
  world->start();
  auto& n = world->node(0);
  while (n.store().can_fit(60000)) n.store().append(stuffing(n, 60000));
  while (n.store().can_fit(1)) n.store().append(stuffing(n, 200));
  EXPECT_EQ(n.store().free_bytes(), 0u);
  EXPECT_EQ(n.balancer().ttl_storage_seconds(), 0.0);
}

TEST(Balancer, RateEwmaFollowsRecordedBytes) {
  auto world = idle_world();
  world->start();
  auto& n = world->node(0);
  const double before = n.balancer().acquisition_rate();
  // Report one rate period's worth of recording at 1000 B/s.
  const auto period = kRateUpdatePeriod;
  world->run_until(period + sim::Time::millis(1));
  n.balancer().note_recorded_bytes(
      static_cast<std::uint64_t>(1000.0 * period.to_seconds()));
  world->run_until(period * 2 + sim::Time::millis(1));
  n.balancer().note_recorded_bytes(0);  // trigger the due update
  EXPECT_GT(n.balancer().acquisition_rate(), before);
}

TEST(Balancer, RateUpdateAfterGapIsOneSampleNotMany) {
  // A node that slept through several rate periods (down, duty-cycled, or
  // simply idle) must fold the whole gap into ONE gap-aware EWMA sample. The
  // old per-period catch-up loop fed k-1 zero-rate samples after a k-period
  // gap, collapsing the TTL_storage estimate after every reboot.
  auto world = WorldBuilder{}
                   .mode(Mode::kCooperativeOnly)
                   .seed(87)
                   .lossless_radio()
                   .grid(3, 3);
  world->start();
  auto& n = world->node(0);
  const auto period = kRateUpdatePeriod;
  const double alpha = kEwmaAlpha;
  // Prime the EWMA with one period at ~1000 B/s.
  world->run_until(period + sim::Time::millis(1));
  n.balancer().note_recorded_bytes(
      static_cast<std::uint64_t>(1000.0 * period.to_seconds()));
  const double primed = n.balancer().acquisition_rate();
  ASSERT_GT(primed, 0.0);
  // Six quiet periods, then the due update: exactly one zero-rate sample.
  world->run_until(period * 7 + sim::Time::millis(2));
  n.balancer().note_recorded_bytes(0);
  const double after = n.balancer().acquisition_rate();
  EXPECT_NEAR(after, (1.0 - alpha) * primed, primed * 1e-9);
  // The flooded behavior decayed the rate by (1-alpha)^6 instead.
  EXPECT_GT(after, std::pow(1.0 - alpha, 2) * primed);
}

TEST(Balancer, GapBytesNormalizedByElapsedPeriods) {
  // Bytes recorded across a gap are averaged over the whole gap, not crammed
  // into a single period's (inflated) rate sample.
  auto world = WorldBuilder{}
                   .mode(Mode::kCooperativeOnly)
                   .seed(88)
                   .lossless_radio()
                   .grid(3, 3);
  world->start();
  auto& n = world->node(0);
  const auto period = kRateUpdatePeriod;
  const double alpha = kEwmaAlpha;
  world->run_until(period + sim::Time::millis(1));
  n.balancer().note_recorded_bytes(
      static_cast<std::uint64_t>(1000.0 * period.to_seconds()));
  const double primed = n.balancer().acquisition_rate();
  // Four periods elapse carrying 8000 B/s worth of bytes in total: the one
  // gap-aware sample is 8000/4 = 2000 B/s.
  world->run_until(period * 5 + sim::Time::millis(2));
  n.balancer().note_recorded_bytes(
      static_cast<std::uint64_t>(8000.0 * period.to_seconds()));
  const double expected = (1.0 - alpha) * primed + alpha * 2000.0;
  EXPECT_NEAR(n.balancer().acquisition_rate(), expected, expected * 1e-6);
}

TEST(Balancer, BetaRisesWithTtlUpToBetaMax) {
  auto world = idle_world(/*beta=*/3.0);
  world->start();
  auto& n = world->node(0);
  // Empty store + floor rate => long TTL => beta at beta_max.
  EXPECT_NEAR(n.balancer().beta(), 3.0, 1e-9);
  // Full store => TTL 0 => beta -> 1 (most sensitive).
  while (n.store().can_fit(60000)) n.store().append(stuffing(n, 60000));
  while (n.store().can_fit(1)) n.store().append(stuffing(n, 200));
  EXPECT_NEAR(n.balancer().beta(), 1.0, 1e-9);
}

TEST(Balancer, TtlEnergyUsesEnergyModel) {
  auto world = idle_world();
  world->start();
  auto& n = world->node(0);
  const double expected = n.energy().ttl_energy_seconds(
      std::max(n.balancer().acquisition_rate(), 0.0));
  EXPECT_NEAR(n.balancer().ttl_energy_seconds(), expected, expected * 0.01);
}

TEST(Balancer, NeighborStateFromBeacons) {
  auto world = idle_world();
  world->start();
  // Let balancer ticks exchange STATE_BEACONs.
  world->run_until(sim::Time::seconds_i(20));
  auto& n = world->node(4);  // centre node hears everyone
  net::StateBeacon b;
  b.sender = 99;
  b.ttl_storage_s = 123.0;
  b.free_bytes = 1000;
  n.balancer().handle(b);  // direct injection also works
  SUCCEED();
}

TEST(Balancer, MigratesFromLoadedToEmptyNode) {
  auto world = idle_world(2.0, 82);
  // Pre-load node 1 heavily before start.
  auto& hot = world->node(0);
  for (int i = 0; i < 120; ++i) hot.store().append(stuffing(hot, 2730));
  // Give it a high perceived acquisition rate so TTL is short.
  hot.balancer().note_recorded_bytes(0);
  world->start();
  // Simulate rate history: pump the EWMA via note_recorded_bytes over time.
  for (int t = 1; t <= 4; ++t) {
    world->run_until(sim::Time::seconds_i(10 * t));
    hot.balancer().note_recorded_bytes(30000);
  }
  world->run_until(sim::Time::seconds_i(240));
  // Data must have moved off the hot node to neighbours.
  EXPECT_LT(hot.store().chunk_count(), 120u);
  std::uint64_t elsewhere = 0;
  for (std::size_t i = 1; i < world->node_count(); ++i) {
    elsewhere += world->node(i).store().chunk_count();
  }
  EXPECT_GT(elsewhere, 0u);
  EXPECT_GT(hot.balancer().stats().bytes_pushed, 0u);
}

TEST(Balancer, NoMigrationInCooperativeOnlyMode) {
  auto world = WorldBuilder{}
                   .mode(Mode::kCooperativeOnly)
                   .seed(83)
                   .lossless_radio()
                   .grid(3, 3);
  auto& hot = world->node(0);
  for (int i = 0; i < 120; ++i) hot.store().append(stuffing(hot, 2730));
  world->start();
  world->run_until(sim::Time::seconds_i(120));
  EXPECT_EQ(hot.store().chunk_count(), 120u);
  EXPECT_EQ(hot.balancer().stats().bytes_pushed, 0u);
}

TEST(Balancer, EnergyGateBlocksMigrationWhenBatteryCritical) {
  WorldBuilder b;
  b.mode(Mode::kFull).seed(84).lossless_radio();
  // A nearly dead battery: TTL_energy << TTL_storage.
  b.cfg.node_defaults.energy.battery_joules = 0.5;
  auto world = b.grid(3, 3);
  auto& hot = world->node(0);
  for (int i = 0; i < 120; ++i) hot.store().append(stuffing(hot, 2730));
  world->start();
  for (int t = 1; t <= 4; ++t) {
    world->run_until(sim::Time::seconds_i(10 * t));
    hot.balancer().note_recorded_bytes(30000);
  }
  world->run_until(sim::Time::seconds_i(180));
  // The paper's rule: when TTL_energy is the bottleneck, store locally.
  EXPECT_EQ(hot.balancer().stats().bytes_pushed, 0u);
}

TEST(Balancer, QuietNodeDoesNotPush) {
  auto world = idle_world(2.0, 85);
  world->start();
  world->run_until(sim::Time::seconds_i(120));
  for (std::size_t i = 0; i < world->node_count(); ++i) {
    EXPECT_EQ(world->node(i).balancer().stats().bytes_pushed, 0u);
  }
}

TEST(Balancer, SessionCooldownLimitsRate) {
  auto world = idle_world(2.0, 86);
  auto& hot = world->node(0);
  for (int i = 0; i < 150; ++i) hot.store().append(stuffing(hot, 2730));
  world->start();
  for (int t = 1; t <= 3; ++t) {
    world->run_until(sim::Time::seconds_i(10 * t));
    hot.balancer().note_recorded_bytes(40000);
  }
  world->run_until(sim::Time::seconds_i(120));
  // With a 45 s cooldown and 8 chunks/session, at most ~3 sessions have
  // completed by t=120 — the hot node cannot have drained fully.
  EXPECT_LE(hot.balancer().stats().sessions_started, 4u);
  EXPECT_GT(hot.store().chunk_count(), 100u);
}

}  // namespace
}  // namespace enviromic::core
