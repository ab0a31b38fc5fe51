#include <gtest/gtest.h>

#include <memory>

#include "acoustic/detector.h"
#include "acoustic/mobility.h"
#include "acoustic/waveform.h"
#include "sim/scheduler.h"

namespace enviromic::acoustic {
namespace {

using sim::Position;
using sim::Time;

struct DetectorFixture {
  sim::Scheduler sched;
  SoundField field{0.02};
  Microphone mic{field, {0, 0}};
  int onsets = 0;
  int offsets = 0;

  Detector make(DetectorConfig cfg = {}) {
    Detector d(sched, mic, sim::Rng(55), cfg);
    return d;
  }

  /// Start `d` and poll it every kPollInterval from one repeating event, as
  /// the World's detector pump does.
  void start(Detector& d) {
    d.start();
    sched.after(kPollInterval, [this, &d] { pump(d); });
  }

  void pump(Detector& d) {
    sched.after(kPollInterval, [this, &d] { pump(d); });
    d.poll_once();
  }

  void add_event(double start_s, double end_s, double loudness = 1.0,
                 double range = 5.0) {
    field.add_source(Source(
        static_cast<SourceId>(field.sources().size()),
        std::make_shared<StaticTrajectory>(Position{0, 0}),
        std::make_shared<ConstantWave>(1.0), Time::seconds(start_s),
        Time::seconds(end_s), loudness, range));
  }
};

TEST(Detector, QuietMeansNoEvent) {
  DetectorFixture f;
  auto d = f.make();
  d.set_onset_handler([&] { ++f.onsets; });
  f.start(d);
  f.sched.run_until(Time::seconds_i(10));
  EXPECT_EQ(f.onsets, 0);
  EXPECT_FALSE(d.event_present());
}

TEST(Detector, DetectsOnsetAndOffset) {
  DetectorFixture f;
  f.add_event(2.0, 6.0);
  auto d = f.make();
  d.set_onset_handler([&] { ++f.onsets; });
  d.set_offset_handler([&] { ++f.offsets; });
  f.start(d);
  f.sched.run_until(Time::seconds_i(10));
  EXPECT_EQ(f.onsets, 1);
  EXPECT_EQ(f.offsets, 1);
  EXPECT_FALSE(d.event_present());
}

TEST(Detector, OnsetLatencyIsAtMostAFewPolls) {
  DetectorFixture f;
  f.add_event(2.0, 6.0);
  DetectorConfig cfg;
  cfg.detect_probability = 1.0;
  auto d = f.make(cfg);
  Time onset_at;
  d.set_onset_handler([&] { onset_at = f.sched.now(); });
  f.start(d);
  f.sched.run_until(Time::seconds_i(10));
  EXPECT_GE(onset_at, Time::seconds_i(2));
  EXPECT_LE(onset_at, Time::seconds(2.0) + kPollInterval * 2);
}

TEST(Detector, HysteresisBridgesShortSilence) {
  DetectorFixture f;
  // Two bursts separated by 200 ms — less than the 400 ms silence hold.
  f.add_event(2.0, 3.0);
  f.add_event(3.2, 4.2);
  DetectorConfig cfg;
  cfg.detect_probability = 1.0;
  auto d = f.make(cfg);
  d.set_onset_handler([&] { ++f.onsets; });
  d.set_offset_handler([&] { ++f.offsets; });
  f.start(d);
  f.sched.run_until(Time::seconds_i(8));
  EXPECT_EQ(f.onsets, 1);  // one fused event
  EXPECT_EQ(f.offsets, 1);
}

TEST(Detector, SeparateEventsGiveSeparateOnsets) {
  DetectorFixture f;
  f.add_event(2.0, 3.0);
  f.add_event(6.0, 7.0);
  DetectorConfig cfg;
  cfg.detect_probability = 1.0;
  auto d = f.make(cfg);
  d.set_onset_handler([&] { ++f.onsets; });
  d.set_offset_handler([&] { ++f.offsets; });
  f.start(d);
  f.sched.run_until(Time::seconds_i(10));
  EXPECT_EQ(f.onsets, 2);
  EXPECT_EQ(f.offsets, 2);
}

TEST(Detector, BackgroundTracksAmbientWhileQuiet) {
  DetectorFixture f;
  auto d = f.make();
  f.start(d);
  f.sched.run_until(Time::seconds_i(30));
  EXPECT_NEAR(d.background(), 0.02, 0.01);
}

TEST(Detector, LoudEventDoesNotPoisonBackground) {
  DetectorFixture f;
  f.add_event(2.0, 20.0);  // long loud event
  auto d = f.make();
  f.start(d);
  f.sched.run_until(Time::seconds_i(19));
  // Background must not have drifted toward the 1.0 signal level.
  EXPECT_LT(d.background(), 0.1);
  EXPECT_TRUE(d.event_present());
}

TEST(Detector, DisabledDetectorStaysSilent) {
  DetectorFixture f;
  f.add_event(1.0, 5.0);
  auto d = f.make();
  d.set_onset_handler([&] { ++f.onsets; });
  d.set_enabled(false);
  f.start(d);
  f.sched.run_until(Time::seconds_i(8));
  EXPECT_EQ(f.onsets, 0);
}

TEST(Detector, SubThresholdSignalIgnored) {
  DetectorFixture f;
  f.add_event(1.0, 5.0, /*loudness=*/0.03);  // below margin of 0.08
  auto d = f.make();
  d.set_onset_handler([&] { ++f.onsets; });
  f.start(d);
  f.sched.run_until(Time::seconds_i(8));
  EXPECT_EQ(f.onsets, 0);
}

TEST(Detector, LastSignalReflectsExcessOverBackground) {
  DetectorFixture f;
  f.add_event(1.0, 10.0, 1.0);
  DetectorConfig cfg;
  cfg.detect_probability = 1.0;
  auto d = f.make(cfg);
  f.start(d);
  f.sched.run_until(Time::seconds_i(5));
  EXPECT_GT(d.last_signal(), 0.8);
}

TEST(Detector, ProbabilisticDetectionEventuallyFires) {
  DetectorFixture f;
  f.add_event(1.0, 10.0);
  DetectorConfig cfg;
  cfg.detect_probability = 0.3;  // unreliable per poll
  auto d = f.make(cfg);
  d.set_onset_handler([&] { ++f.onsets; });
  f.start(d);
  f.sched.run_until(Time::seconds_i(9));
  EXPECT_GE(f.onsets, 1);
}

}  // namespace
}  // namespace enviromic::acoustic
