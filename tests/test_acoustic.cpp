#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "acoustic/field.h"
#include "acoustic/microphone.h"
#include "acoustic/mobility.h"
#include "acoustic/sampler.h"
#include "acoustic/source.h"
#include "acoustic/waveform.h"

namespace enviromic::acoustic {
namespace {

using sim::Position;
using sim::Time;

// --- Waveforms ---------------------------------------------------------------

TEST(Waveform, ConstantIsConstant) {
  ConstantWave w(0.8);
  EXPECT_DOUBLE_EQ(w.amplitude(0.0), 0.8);
  EXPECT_DOUBLE_EQ(w.amplitude(123.4), 0.8);
}

TEST(Waveform, ToneStaysInUnitRange) {
  ToneWave w(3.0, 0.5, 0.3);
  for (double t = 0; t < 5.0; t += 0.01) {
    const double a = w.amplitude(t);
    EXPECT_GE(a, 0.0);
    EXPECT_LE(a, 1.0);
  }
}

TEST(Waveform, VoiceDeterministicAndBounded) {
  VoiceWave a(42), b(42), c(43);
  bool any_diff = false;
  for (double t = 0; t < 3.0; t += 0.005) {
    EXPECT_DOUBLE_EQ(a.amplitude(t), b.amplitude(t));
    if (a.amplitude(t) != c.amplitude(t)) any_diff = true;
    EXPECT_GE(a.amplitude(t), 0.0);
    EXPECT_LE(a.amplitude(t), 1.0);
  }
  EXPECT_TRUE(any_diff);
}

TEST(Waveform, VoiceHasPausesAndSyllables) {
  VoiceWave w(7);
  int loud = 0, quiet = 0;
  for (double t = 0; t < 20.0; t += 0.01) {
    (w.amplitude(t) > 0.2 ? loud : quiet)++;
  }
  EXPECT_GT(loud, 100);
  EXPECT_GT(quiet, 100);
}

TEST(Waveform, VoiceNegativeTimeSilent) {
  VoiceWave w(5);
  EXPECT_EQ(w.amplitude(-1.0), 0.0);
}

TEST(Waveform, RumbleStaysPositiveAndBounded) {
  RumbleWave w(99);
  for (double t = 0; t < 10.0; t += 0.05) {
    EXPECT_GT(w.amplitude(t), 0.3);  // sustained machinery noise
    EXPECT_LE(w.amplitude(t), 1.0);
  }
}

// --- Mobility ------------------------------------------------------------------

TEST(Mobility, StaticStaysPut) {
  StaticTrajectory t({3, 4});
  EXPECT_EQ(t.position(0.0), (Position{3, 4}));
  EXPECT_EQ(t.position(100.0), (Position{3, 4}));
}

TEST(Mobility, LinearMovesAtVelocity) {
  LinearTrajectory t({0, 0}, 2.0, -1.0);
  const auto p = t.position(3.0);
  EXPECT_DOUBLE_EQ(p.x, 6.0);
  EXPECT_DOUBLE_EQ(p.y, -3.0);
}

TEST(Mobility, WaypointVisitsPointsInOrder) {
  WaypointTrajectory t({{0, 0}, {10, 0}, {10, 10}}, 1.0);
  EXPECT_EQ(t.position(0.0), (Position{0, 0}));
  const auto mid = t.position(5.0);
  EXPECT_DOUBLE_EQ(mid.x, 5.0);
  EXPECT_DOUBLE_EQ(mid.y, 0.0);
  const auto corner = t.position(10.0);
  EXPECT_NEAR(corner.x, 10.0, 1e-9);
  EXPECT_NEAR(corner.y, 0.0, 1e-9);
  const auto second_leg = t.position(15.0);
  EXPECT_NEAR(second_leg.x, 10.0, 1e-9);
  EXPECT_NEAR(second_leg.y, 5.0, 1e-9);
}

TEST(Mobility, WaypointHoldsAtEnd) {
  WaypointTrajectory t({{0, 0}, {4, 0}}, 2.0);
  EXPECT_EQ(t.position(100.0), (Position{4, 0}));
}

TEST(Mobility, WaypointNegativeTimeClamps) {
  WaypointTrajectory t({{1, 1}, {2, 2}}, 1.0);
  EXPECT_EQ(t.position(-5.0), (Position{1, 1}));
}

// --- Source + field -----------------------------------------------------------

Source make_source(Position at, Time start, Time end, double loud,
                   double range, SourceId id = 0) {
  return Source(id, std::make_shared<StaticTrajectory>(at),
                std::make_shared<ConstantWave>(1.0), start, end, loud, range);
}

TEST(Source, InactiveOutsideWindow) {
  auto s = make_source({0, 0}, Time::seconds_i(5), Time::seconds_i(10), 1, 3);
  EXPECT_FALSE(s.active_at(Time::seconds_i(4)));
  EXPECT_TRUE(s.active_at(Time::seconds_i(5)));
  EXPECT_TRUE(s.active_at(Time::seconds_i(9)));
  EXPECT_FALSE(s.active_at(Time::seconds_i(10)));  // half-open
  EXPECT_EQ(s.amplitude_at({0, 0}, Time::seconds_i(4)), 0.0);
}

TEST(Source, AmplitudeFadesWithDistance) {
  auto s = make_source({0, 0}, Time::zero(), Time::seconds_i(10), 1.0, 4.0);
  const Time t = Time::seconds_i(1);
  const double at0 = s.amplitude_at({0, 0}, t);
  const double at2 = s.amplitude_at({2, 0}, t);
  const double at4 = s.amplitude_at({4, 0}, t);
  EXPECT_DOUBLE_EQ(at0, 1.0);
  EXPECT_GT(at0, at2);
  EXPECT_GT(at2, 0.0);
  EXPECT_EQ(at4, 0.0);  // at the range edge
}

TEST(Source, MobileSourcePositionTracks) {
  Source s(1, std::make_shared<LinearTrajectory>(Position{0, 0}, 1.0, 0.0),
           std::make_shared<ConstantWave>(1.0), Time::seconds_i(10),
           Time::seconds_i(20), 1.0, 2.0);
  EXPECT_DOUBLE_EQ(s.position_at(Time::seconds_i(15)).x, 5.0);
  // Before start, trajectory clamps to its origin.
  EXPECT_DOUBLE_EQ(s.position_at(Time::seconds_i(5)).x, 0.0);
}

TEST(SoundField, SumsConcurrentSources) {
  SoundField f(0.0);
  f.add_source(make_source({0, 0}, Time::zero(), Time::seconds_i(10), 0.5, 5, 0));
  f.add_source(make_source({0, 0}, Time::zero(), Time::seconds_i(10), 0.3, 5, 1));
  EXPECT_DOUBLE_EQ(f.signal_at({0, 0}, Time::seconds_i(1)), 0.8);
}

TEST(SoundField, LevelIncludesBackground) {
  SoundField f(0.07);
  EXPECT_DOUBLE_EQ(f.level_at({5, 5}, Time::zero()), 0.07);
}

TEST(SoundField, TimeIndexMatchesScanOverEverySource) {
  // The time index answers every query; a scan over every source is its
  // oracle. Sources join one at a time (the index rebuilds after each), so
  // small and large fields alike are compared bit for bit.
  SoundField f(0.02);
  const std::vector<Position> listeners = {
      {0, 0}, {4.5, 1.5}, {7, 6}, {13, 2}, {30, 30}};
  const Time tick = Time::ticks(1);
  for (int k = 0; k < 20; ++k) {
    const Time start = Time::millis(700 * k);
    // Source 7 has zero length; windows of 1.5-4.2 s overlap their
    // neighbours and span several one-second buckets.
    const Time end = k == 7 ? start : start + Time::millis(1500 + 900 * (k % 4));
    const Position at{3.0 * (k % 5), 3.0 * (k / 5)};
    std::shared_ptr<const Trajectory> traj;
    if (k % 3 == 0) {
      traj = std::make_shared<LinearTrajectory>(at, 1.5, -0.5);
    } else {
      traj = std::make_shared<StaticTrajectory>(at);
    }
    f.add_source(Source(static_cast<SourceId>(k), traj,
                        std::make_shared<ToneWave>(3.0 + k, 0.5 + 0.1 * k),
                        start, end, 0.4 + 0.05 * k, 4.0 + (k % 3)));

    std::vector<Time> times;
    Time last_end = Time::zero();
    for (const auto& s : f.sources()) {
      for (const Time edge : {s.start(), s.end()}) {
        times.push_back(edge - tick);
        times.push_back(edge);
        times.push_back(edge + tick);
      }
      times.push_back(
          Time::ticks((s.start().raw_ticks() + s.end().raw_ticks()) / 2));
      last_end = std::max(last_end, s.end());
    }
    times.push_back(last_end + Time::seconds_i(1));

    for (const Time t : times) {
      for (const Position& p : listeners) {
        double sum = 0.0;
        for (const auto& s : f.sources()) sum += s.amplitude_at(p, t);
        EXPECT_EQ(f.signal_at(p, t), sum)
            << k + 1 << " sources, t=" << t.raw_ticks() << " ticks";
      }
    }
  }
}

// --- Microphone + sampler -------------------------------------------------------

TEST(Microphone, SilenceReadsNearCenter) {
  SoundField f(0.0);
  Microphone mic(f, {0, 0});
  EXPECT_EQ(mic.sample(Time::seconds_i(1)), 128);
}

TEST(Microphone, AdcRoundsHalfStepsUp) {
  // 12.5 ms is 5.25 periods of the 420 Hz carrier (its crest) and 37.5 ms
  // is 15.75 (its trough), so a level of 0.5 reads exactly 128 + 63.5 and
  // 128 - 63.5; both round up to the next step. Levels clip at 1.
  const Time crest = Time::ticks(Time::kTicksPerSecond / 80);
  const Time trough = Time::ticks(3 * Time::kTicksPerSecond / 80);
  EXPECT_EQ(adc_sample(0.5, crest), 192);
  EXPECT_EQ(adc_sample(0.5, trough), 65);
  EXPECT_EQ(adc_sample(3.0, crest), 255);
  EXPECT_EQ(adc_sample(3.0, trough), 1);
  EXPECT_EQ(adc_sample(0.5, Time::zero()), 128);
}

TEST(Microphone, LoudSignalSwingsAdc) {
  SoundField f(0.0);
  f.add_source(make_source({0, 0}, Time::zero(), Time::seconds_i(10), 1.0, 5));
  Microphone mic(f, {0, 0});
  int lo = 255, hi = 0;
  for (int i = 0; i < 2000; ++i) {
    const auto v = mic.sample(Time::millis(i));
    lo = std::min<int>(lo, v);
    hi = std::max<int>(hi, v);
  }
  EXPECT_LT(lo, 40);
  EXPECT_GT(hi, 215);
}

TEST(Sampler, BytesForMatchesRate) {
  // 2730 Hz, 1 B/sample
  EXPECT_EQ(bytes_for(Time::seconds_i(1)), 2730u);
  EXPECT_EQ(bytes_for(Time::seconds_i(10)), 27300u);
  EXPECT_EQ(bytes_for(Time::zero()), 0u);
}

TEST(Sampler, CaptureProducesRequestedSamples) {
  SoundField f(0.0);
  Microphone mic(f, {0, 0});
  const auto data = capture(mic, Time::seconds_i(1), Time::seconds_i(2));
  EXPECT_EQ(data.size(), 2730u);
  const auto none = capture(mic, Time::seconds_i(2), Time::seconds_i(1));
  EXPECT_TRUE(none.empty());
}

TEST(JitterSampler, UncontendedIsExactlyNominal) {
  JitterSampler js{sim::Rng(1)};
  const auto iv = js.observe_intervals(Time::zero(), 100);
  for (auto v : iv) EXPECT_EQ(v, 10);
}

TEST(JitterSampler, ContendedJumpsWithinPaperRange) {
  JitterSampler js{sim::Rng(2)};
  js.note_radio_activity(Time::zero(), Time::seconds_i(10));
  const auto iv = js.observe_intervals(Time::zero(), 200);
  bool any_jitter = false;
  for (auto v : iv) {
    EXPECT_GE(v, 9);
    EXPECT_LE(v, 16);
    if (v != 10) any_jitter = true;
  }
  EXPECT_TRUE(any_jitter);
}

TEST(JitterSampler, ContentionEndsAfterProcessingTail) {
  JitterSampler::Config cfg;
  cfg.processing_tail = Time::millis(5);
  JitterSampler js{sim::Rng(3), cfg};
  js.note_radio_activity(Time::zero(), Time::millis(1));
  // Start sampling well past the activity + tail: no jitter.
  const auto iv = js.observe_intervals(Time::millis(100), 50);
  for (auto v : iv) EXPECT_EQ(v, 10);
}

}  // namespace
}  // namespace enviromic::acoustic
