// Telemetry: the recorder, sampling cadence, exporters, and declarative
// health probes.
//
// The determinism contract (sampled runs bit-identical to dark runs) lives
// in test_determinism; this file covers the recorder itself — the columnar
// registry semantics, the exactness of the run_chaos sampling cadence at
// interval boundaries, the recorder a run hands back, the well-formedness
// of the CSV/JSONL exports, and the trip/no-trip behaviour of health
// probes.
#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "core/experiment.h"
#include "sim/telemetry.h"

namespace enviromic {
namespace {

using core::ChaosRunConfig;
using core::HealthProbe;
using core::parse_health_probe;
using core::run_chaos;
using sim::SeriesKind;
using sim::SeriesScope;
using sim::Telemetry;

ChaosRunConfig small_chaos(std::uint64_t seed) {
  ChaosRunConfig cfg;
  cfg.seed = seed;
  cfg.horizon = sim::Time::seconds_i(60);
  cfg.grace = sim::Time::seconds_i(60);
  cfg.flight_recorder = false;
  cfg.payload_census = false;
  return cfg;
}

TEST(Telemetry, RegistryLifecycle) {
  Telemetry tel;
  EXPECT_EQ(tel.series_count(), 0u);
  EXPECT_EQ(tel.find("fill"), sim::kInvalidSeries);

  const auto fill = tel.register_series("fill", SeriesKind::kGauge,
                                        SeriesScope::kGlobal, "B");
  const auto per = tel.register_series("per", SeriesKind::kCounter,
                                       SeriesScope::kPerNode);
  EXPECT_NE(fill, per);
  EXPECT_EQ(tel.series_count(), 2u);
  // Re-registering is idempotent: same id back, no new series.
  EXPECT_EQ(tel.register_series("fill", SeriesKind::kGauge,
                                SeriesScope::kGlobal, "B"),
            fill);
  EXPECT_EQ(tel.series_count(), 2u);
  EXPECT_EQ(tel.find("fill"), fill);

  tel.begin_sample(sim::Time::seconds_i(1));
  tel.record(fill, 0, 10.0);
  tel.record(per, 3, 1.0);
  tel.record(per, 1, 2.0);
  tel.begin_sample(sim::Time::seconds_i(2));
  tel.record(fill, 0, 20.0);
  tel.record(fill, 0, 25.0);  // last write wins within a row
  EXPECT_EQ(tel.sample_count(), 2u);
  EXPECT_EQ(tel.latest(fill), 25.0);
  EXPECT_EQ(tel.latest(per, 3), 1.0);
  EXPECT_TRUE(std::isnan(tel.latest(per, 7)));  // node never recorded

  // Column order: registration order, node ascending within a series.
  const auto names = tel.column_names();
  ASSERT_EQ(names.size(), 3u);
  EXPECT_EQ(names[0], "fill");
  EXPECT_EQ(names[1], "per[1]");
  EXPECT_EQ(names[2], "per[3]");

  // Rewinds are refused; the recorder is append-only.
  tel.begin_sample(sim::Time::seconds_i(1));
  EXPECT_EQ(tel.sample_count(), 2u);

  const auto win = tel.window(fill, 0, 8);
  ASSERT_EQ(win.size(), 2u);
  EXPECT_EQ(win[0].second, 10.0);
  EXPECT_EQ(win[1].second, 25.0);
}

TEST(Telemetry, ChaosSamplingCadenceIsExact) {
  // series_interval = 30 s over a 60+60 s run: boundary samples at 30, 60,
  // 90 and the final sample at end-of-run, no duplicates, no drift.
  ChaosRunConfig cfg = small_chaos(17);
  cfg.series_interval = sim::Time::seconds_i(30);
  const auto res = run_chaos(cfg);
  const Telemetry& tel = res.telemetry;
  const auto& times = tel.times();
  ASSERT_EQ(times.size(), 4u);
  EXPECT_EQ(times[0], sim::Time::seconds_i(30));
  EXPECT_EQ(times[1], sim::Time::seconds_i(60));
  EXPECT_EQ(times[2], sim::Time::seconds_i(90));
  EXPECT_EQ(times[3], sim::Time::seconds_i(120));
  // Every sample filled the standard global gauges.
  const auto id = tel.find("flash_used_bytes");
  ASSERT_NE(id, sim::kInvalidSeries);
  EXPECT_EQ(tel.window(id, 0, 100).size(), 4u);
}

TEST(Telemetry, DarkRecorderMeansNoSamples) {
  // A run with no series cadence and no health probe binds no probes and
  // returns an empty recorder.
  const auto res = run_chaos(small_chaos(17));
  EXPECT_EQ(res.telemetry.sample_count(), 0u);
  EXPECT_EQ(res.telemetry.series_count(), 0u);
}

TEST(Telemetry, CsvExportIsWellFormed) {
  Telemetry tel;
  const auto a = tel.register_series("a", SeriesKind::kGauge,
                                     SeriesScope::kGlobal, "B");
  const auto b = tel.register_series("b", SeriesKind::kCounter,
                                     SeriesScope::kPerNode);
  tel.begin_sample(sim::Time::seconds_i(1));
  tel.record(a, 0, 1.5);
  tel.record(b, 2, 3.0);
  tel.begin_sample(sim::Time::seconds_i(2));
  tel.record(b, 2, 4.0);  // `a` skips this row -> empty cell
  std::ostringstream out;
  tel.export_csv(out);
  EXPECT_EQ(out.str(),
            "t_s,a,b[2]\n"
            "1,1.5,3\n"
            "2,,4\n");
}

TEST(Telemetry, JsonlExportIsWellFormed) {
  Telemetry tel;
  const auto a = tel.register_series("a", SeriesKind::kGauge,
                                     SeriesScope::kGlobal, "J");
  tel.begin_sample(sim::Time::seconds_i(1));
  tel.record(a, 0, 7.0);
  std::ostringstream out;
  tel.export_jsonl(out);
  EXPECT_EQ(out.str(),
            "{\"telemetry_schema\": 1, \"columns\": [{\"name\": \"a\", "
            "\"series\": \"a\", \"kind\": \"gauge\", \"unit\": \"J\"}]}\n"
            "{\"t_s\": 1, \"values\": {\"a\": 7}}\n");
}

TEST(Telemetry, ParseHealthProbeKnownAndUnknown) {
  HealthProbe p;
  std::string err;
  ASSERT_TRUE(parse_health_probe("wear_spread_max=100", &p, &err)) << err;
  EXPECT_EQ(p.gauge, "flash_wear_spread");
  EXPECT_FALSE(p.is_floor);
  EXPECT_EQ(p.threshold, 100.0);
  ASSERT_TRUE(parse_health_probe("battery_floor=5.5", &p, &err)) << err;
  EXPECT_EQ(p.gauge, "battery_min_j");
  EXPECT_TRUE(p.is_floor);
  EXPECT_FALSE(parse_health_probe("nope=1", &p, &err));
  EXPECT_NE(err.find("nope"), std::string::npos);
  EXPECT_FALSE(parse_health_probe("battery_floor=abc", &p, &err));
  EXPECT_FALSE(parse_health_probe("noequals", &p, &err));
}

TEST(Telemetry, HealthProbeTripsOnceAndLandsInResult) {
  // battery_floor at an impossible height trips on the very first sample;
  // the probe stays tripped every sample after, but only the first trip is
  // recorded (no one entry per sample spam).
  ChaosRunConfig cfg = small_chaos(17);
  cfg.series_interval = sim::Time::seconds_i(10);
  HealthProbe p;
  std::string err;
  ASSERT_TRUE(parse_health_probe("battery_floor=1e9", &p, &err)) << err;
  cfg.health_probes.push_back(p);
  testing::internal::CaptureStderr();
  const auto res = run_chaos(cfg);
  const std::string log = testing::internal::GetCapturedStderr();
  ASSERT_EQ(res.health_trips.size(), 1u);
  EXPECT_EQ(res.health_trips[0].probe, "battery_floor");
  EXPECT_EQ(res.health_trips[0].gauge, "battery_min_j");
  EXPECT_EQ(res.health_trips[0].at, sim::Time::seconds_i(10));
  EXPECT_LT(res.health_trips[0].value, 1e9);
  // The trip dumped the offending gauge window to stderr.
  EXPECT_NE(log.find("health probe 'battery_floor' tripped"),
            std::string::npos);
  EXPECT_NE(log.find("battery_min_j"), std::string::npos);
  // The run kept sampling after the trip: 10 s cadence over 120 s.
  EXPECT_EQ(res.telemetry.sample_count(), 12u);
}

TEST(Telemetry, HealthProbeNoTripOnHealthyRun) {
  ChaosRunConfig cfg = small_chaos(17);
  HealthProbe p;
  std::string err;
  // A floor of 1 J is unreachable in 120 s from a full battery; note no
  // series_interval — probes alone force the 1 s default cadence.
  ASSERT_TRUE(parse_health_probe("battery_floor=1", &p, &err)) << err;
  cfg.health_probes.push_back(p);
  const auto res = run_chaos(cfg);
  EXPECT_TRUE(res.health_trips.empty());
  EXPECT_EQ(res.telemetry.sample_count(), 120u);
}

}  // namespace
}  // namespace enviromic
