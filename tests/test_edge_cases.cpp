// Focused edge cases across modules that the mainline suites do not reach.
#include <gtest/gtest.h>

#include "world_fixture.h"

namespace enviromic {
namespace {

using core::Mode;
using testing::WorldBuilder;
using testing::add_event;

TEST(EdgeCase, PayloadSpanningRingWrapReadsBackIntact) {
  storage::FlashConfig fc;
  fc.capacity_bytes = 4 * 1024;  // 16 blocks
  fc.store_payloads = true;
  storage::Flash flash(fc);
  storage::Eeprom eeprom;
  storage::ChunkStore store(flash, eeprom);
  // Fill 12 blocks, pop 2 chunks (8 blocks), then append a chunk that wraps
  // the ring boundary.
  for (int i = 0; i < 3; ++i) {
    storage::Chunk c;
    c.meta.key = store.next_key(1);
    c.meta.bytes = 1000;  // 4 blocks each
    c.payload.assign(1000, static_cast<std::uint8_t>(i));
    ASSERT_TRUE(store.append(std::move(c)));
  }
  store.pop_head();
  store.pop_head();
  storage::Chunk wrap;
  wrap.meta.key = store.next_key(1);
  wrap.meta.bytes = 2000;  // 8 blocks: crosses block 15 -> 0
  wrap.payload.resize(2000);
  for (std::size_t i = 0; i < 2000; ++i)
    wrap.payload[i] = static_cast<std::uint8_t>(i % 251);
  const auto key = wrap.meta.key;
  ASSERT_TRUE(store.append(std::move(wrap)));
  const auto back = store.read_payload(key);
  ASSERT_EQ(back.size(), 2000u);
  for (std::size_t i = 0; i < 2000; ++i)
    ASSERT_EQ(back[i], static_cast<std::uint8_t>(i % 251)) << i;
}

TEST(EdgeCase, ChannelSendGivesUpAfterMaxBackoffs) {
  // A permanently busy medium (a neighbour transmitting a huge packet)
  // exhausts CSMA retries.
  sim::Scheduler sched;
  net::ChannelConfig cfg;
  cfg.loss_probability = 0.0;
  cfg.max_retries = 2;
  cfg.backoff_window = sim::Time::millis(1);
  net::Channel channel(sched, sim::Rng(5), cfg);
  auto a = channel.create_radio(1, {0, 0});
  auto b = channel.create_radio(2, {1, 0});
  // A giant packet from b occupies the air for a long time.
  net::Packet big;
  big.src = 2;
  net::TransferData d;
  d.payload_bytes = 60000;  // ~2 s of air time
  big.messages.push_back(d);
  b->send(std::move(big));
  sched.run_until(sim::Time::millis(1));
  net::Packet small;
  small.src = 1;
  small.messages.push_back(net::Sensing{});
  a->send(std::move(small));
  sched.run_until(sim::Time::millis(100));
  EXPECT_GE(a->stats().csma_backoffs, 2u);
  EXPECT_EQ(a->stats().send_failures, 1u);
}

TEST(EdgeCase, DetectorWithZeroMarginStillUsesBackground) {
  // margin 0: any signal above the ambient EWMA triggers; the detector must
  // not oscillate wildly in silence (background tracks exactly).
  sim::Scheduler sched;
  acoustic::SoundField field(0.02);
  acoustic::Microphone mic(field, {0, 0});
  acoustic::DetectorConfig cfg;
  cfg.margin = 0.0;
  acoustic::Detector det(sched, mic, sim::Rng(9), cfg);
  int onsets = 0;
  det.set_onset_handler([&] { ++onsets; });
  det.start();
  // Poll every kPollInterval, as the World's detector pump does.
  for (sim::Time t = acoustic::kPollInterval; t <= sim::Time::seconds_i(30);
       t += acoustic::kPollInterval) {
    sched.run_until(t);
    det.poll_once();
  }
  EXPECT_EQ(onsets, 0);  // level == background, never strictly above
}

TEST(EdgeCase, EventExactlyAtCommRangeBoundary) {
  // Hearers right at the audible-range boundary are excluded (strict <).
  acoustic::SoundField field(0.0);
  field.add_source(acoustic::Source(
      0, std::make_shared<acoustic::StaticTrajectory>(sim::Position{0, 0}),
      std::make_shared<acoustic::ConstantWave>(1.0), sim::Time::zero(),
      sim::Time::seconds_i(10), 1.0, 2.0));
  const auto& s = field.sources()[0];
  EXPECT_EQ(s.amplitude_at({2.0, 0}, sim::Time::seconds_i(1)), 0.0);
  EXPECT_GT(s.amplitude_at({1.999, 0}, sim::Time::seconds_i(1)), 0.0);
}

TEST(EdgeCase, BackToBackEventsReuseNothing) {
  // Two events separated by just over the detector's silence hold must
  // produce two files with distinct ids.
  auto world = WorldBuilder{}
                   .mode(Mode::kCooperativeOnly)
                   .seed(291)
                   .perfect_detection()
                   .lossless_radio()
                   .grid(4, 4);
  add_event(*world, {3, 3}, 5.0, 9.0);
  add_event(*world, {3, 3}, 10.0, 14.0);  // 1 s gap > 400 ms hold
  world->start();
  world->run_until(sim::Time::seconds_i(20));
  const auto files = world->drain_all();
  std::set<net::EventId> coordinated;
  for (const auto& ev : files.events()) {
    if (ev.valid()) coordinated.insert(ev);
  }
  EXPECT_GE(coordinated.size(), 2u);
}

TEST(EdgeCase, SnapshotStableWhenCalledRepeatedly) {
  auto world = WorldBuilder{}
                   .mode(Mode::kCooperativeOnly)
                   .seed(292)
                   .perfect_detection()
                   .lossless_radio()
                   .grid(4, 4);
  add_event(*world, {3, 3}, 5.0, 10.0);
  world->start();
  world->run_until(sim::Time::seconds_i(15));
  const auto a = world->snapshot();
  const auto b = world->snapshot();
  EXPECT_EQ(a.miss_ratio, b.miss_ratio);
  EXPECT_EQ(a.covered_unique, b.covered_unique);
  EXPECT_EQ(a.total_messages, b.total_messages);
}

TEST(EdgeCase, MobileEventFasterThanHandoffStillPartiallyCovered) {
  // A source sprinting across the grid (4 grid lengths/s) outruns clean
  // hand-offs; coverage degrades but the system keeps functioning.
  WorldBuilder b;
  b.mode(Mode::kCooperativeOnly).seed(293).perfect_detection().lossless_radio();
  auto world = b.grid(8, 2);
  core::MobileEventConfig ev;
  ev.from = {-2, 1};
  ev.to = {18, 1};
  ev.speed = 8.0;
  ev.start = sim::Time::seconds_i(3);
  ev.duration = sim::Time::seconds(2.5);
  ev.audible_range = 2.2;
  core::add_mobile_event(*world, ev);
  world->start();
  world->run_until(sim::Time::seconds_i(10));
  util::IntervalSet rec;
  for (const auto& act : world->metrics().recording_log()) {
    if (act.appended) rec.add(act.start, act.end);
  }
  EXPECT_GT(rec.measure_within(ev.start, ev.start + ev.duration).to_seconds(),
            0.5);
}

TEST(EdgeCase, ZeroCapacityEventPlanHorizon) {
  // An event plan over a zero-length horizon schedules nothing.
  auto world = WorldBuilder{}.mode(Mode::kCooperativeOnly).seed(294).grid(2, 2);
  core::IndoorEventPlanConfig cfg;
  cfg.horizon = sim::Time::zero();
  cfg.generators = {{1, 1}};
  const auto plan =
      core::schedule_indoor_events(*world, cfg, sim::Rng(1));
  EXPECT_TRUE(plan.events.empty());
  EXPECT_EQ(plan.total_event_time, sim::Time::zero());
}

}  // namespace
}  // namespace enviromic
