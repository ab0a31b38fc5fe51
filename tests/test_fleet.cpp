// Fleet runner: merged-report determinism across -j, worker-crash isolation,
// timeout/retry semantics, resume, seed derivation, the strict CLI parsing
// boundary, and the CLI scenarios' observer and output flags (library units
// plus end-to-end binary regressions).
#include <gtest/gtest.h>

#include <sys/wait.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/fleet.h"
#include "storage/erasure.h"
#include "util/parse.h"

namespace {

using namespace enviromic;
using core::FleetSpec;

FleetSpec selftest_spec() {
  FleetSpec spec;
  spec.scenario = "selftest";
  spec.seeds_per_point = 3;
  spec.sweep.push_back({"x", {1.0, 2.0}});
  return spec;
}

// --- Seed derivation ---------------------------------------------------------

TEST(DeriveRunSeed, RunZeroIsTheBaseSeed) {
  EXPECT_EQ(core::derive_run_seed(7, 0), 7u);
  EXPECT_EQ(core::derive_run_seed(0, 0), 0u);
  EXPECT_EQ(core::derive_run_seed(0xdeadbeef, 0), 0xdeadbeefu);
}

TEST(DeriveRunSeed, AdjacentBaseSeedsShareNoWorlds) {
  // The old rule (seed + r) made seed 7 run 1 the same world as seed 8
  // run 0. No pair in a seeds x runs neighbourhood may collide now.
  std::vector<std::uint64_t> seen;
  for (std::uint64_t base = 7; base < 15; ++base) {
    for (std::uint64_t r = 0; r < 8; ++r) {
      seen.push_back(core::derive_run_seed(base, r));
    }
  }
  std::sort(seen.begin(), seen.end());
  EXPECT_EQ(std::adjacent_find(seen.begin(), seen.end()), seen.end());
}

TEST(DeriveRunSeed, Deterministic) {
  EXPECT_EQ(core::derive_run_seed(42, 3), core::derive_run_seed(42, 3));
  EXPECT_NE(core::derive_run_seed(42, 3), core::derive_run_seed(42, 4));
}

// --- Strict numeric parsing --------------------------------------------------

TEST(StrictParse, U64AcceptsOnlyWholeUnsignedLiterals) {
  std::uint64_t v = 0;
  EXPECT_TRUE(util::parse_u64("0", &v));
  EXPECT_EQ(v, 0u);
  EXPECT_TRUE(util::parse_u64("18446744073709551615", &v));
  EXPECT_EQ(v, UINT64_MAX);
  EXPECT_FALSE(util::parse_u64("", &v));
  EXPECT_FALSE(util::parse_u64("garbage", &v));
  EXPECT_FALSE(util::parse_u64("12x", &v));      // trailing junk
  EXPECT_FALSE(util::parse_u64(" 12", &v));      // leading whitespace
  EXPECT_FALSE(util::parse_u64("-1", &v));       // sign
  EXPECT_FALSE(util::parse_u64("+1", &v));
  EXPECT_FALSE(util::parse_u64("1e3", &v));      // not an integer literal
  EXPECT_FALSE(util::parse_u64("18446744073709551616", &v));  // 2^64
}

TEST(StrictParse, IntRangeAndJunk) {
  int v = 0;
  EXPECT_TRUE(util::parse_int("-70", &v));
  EXPECT_EQ(v, -70);
  EXPECT_TRUE(util::parse_int("2147483647", &v));
  EXPECT_FALSE(util::parse_int("2147483648", &v));   // > INT_MAX
  EXPECT_FALSE(util::parse_int("-2147483649", &v));  // < INT_MIN
  EXPECT_FALSE(util::parse_int("3x", &v));           // atoi accepted this
  EXPECT_FALSE(util::parse_int("", &v));
  EXPECT_FALSE(util::parse_int("1.5", &v));
}

TEST(StrictParse, DoubleRejectsJunkAndNonFinite) {
  double v = 0.0;
  EXPECT_TRUE(util::parse_double("2.5", &v));
  EXPECT_DOUBLE_EQ(v, 2.5);
  EXPECT_TRUE(util::parse_double("-1e-3", &v));
  EXPECT_FALSE(util::parse_double("", &v));
  EXPECT_FALSE(util::parse_double("abc", &v));
  EXPECT_FALSE(util::parse_double("2.5s", &v));  // atof accepted this
  EXPECT_FALSE(util::parse_double(" 2.5", &v));
  EXPECT_FALSE(util::parse_double("inf", &v));
  EXPECT_FALSE(util::parse_double("nan", &v));
  EXPECT_FALSE(util::parse_double("1e999", &v));  // overflows to inf
}

// --- Erasure geometry validation ---------------------------------------------

TEST(ErasureGeometry, ValidateNamesTheConstraint) {
  std::string err;
  EXPECT_TRUE(storage::ErasureCodec::validate_geometry(3, 5, &err));
  EXPECT_TRUE(storage::ErasureCodec::validate_geometry(1, 1, &err));
  EXPECT_TRUE(storage::ErasureCodec::validate_geometry(255, 255, &err));

  EXPECT_FALSE(storage::ErasureCodec::validate_geometry(0, 5, &err));
  EXPECT_NE(err.find("k >= 1"), std::string::npos) << err;
  EXPECT_FALSE(storage::ErasureCodec::validate_geometry(6, 4, &err));
  EXPECT_NE(err.find("n < k"), std::string::npos) << err;
  EXPECT_FALSE(storage::ErasureCodec::validate_geometry(3, 300, &err));
  EXPECT_NE(err.find("GF(2^8)"), std::string::npos) << err;
}

// --- Spec expansion and validation -------------------------------------------

TEST(FleetSpecTest, PointsAreTheCrossProductFirstAxisSlowest) {
  FleetSpec spec;
  spec.sweep.push_back({"a", {1.0, 2.0}});
  spec.sweep.push_back({"b", {10.0, 20.0, 30.0}});
  const auto points = core::fleet_points(spec);
  ASSERT_EQ(points.size(), 6u);
  EXPECT_EQ(points[0].label, "a=1,b=10");
  EXPECT_EQ(points[1].label, "a=1,b=20");
  EXPECT_EQ(points[3].label, "a=2,b=10");
  EXPECT_EQ(points[5].label, "a=2,b=30");
}

TEST(FleetSpecTest, RejectsUnknownScenarioAndParameters) {
  FleetSpec spec;
  std::string err;
  spec.scenario = "bogus";
  EXPECT_FALSE(core::validate_fleet_spec(spec, &err));

  spec.scenario = "chaos";
  spec.sweep.push_back({"not_a_knob", {1.0}});
  EXPECT_FALSE(core::validate_fleet_spec(spec, &err));
  EXPECT_NE(err.find("not_a_knob"), std::string::npos) << err;

  spec.sweep.clear();
  spec.fixed.emplace_back("crash", 0.2);
  EXPECT_TRUE(core::validate_fleet_spec(spec, &err));
}

TEST(FleetSpecTest, RejectsBadCodedGeometryInASweep) {
  FleetSpec spec;
  spec.scenario = "chaos";
  spec.fixed.emplace_back("coded", 1.0);
  spec.fixed.emplace_back("coded_k", 3.0);
  spec.sweep.push_back({"coded_n", {5.0, 2.0}});  // n=2 < k=3 at one point
  std::string err;
  EXPECT_FALSE(core::validate_fleet_spec(spec, &err));
  EXPECT_NE(err.find("n < k"), std::string::npos) << err;
}

// --- Campaign determinism and failure semantics ------------------------------

TEST(FleetRun, ReportBytesIdenticalAcrossJobCounts) {
  FleetSpec spec = selftest_spec();
  spec.jobs = 1;
  const auto r1 = core::run_fleet(spec);
  ASSERT_TRUE(r1.ok()) << r1.error;
  spec.jobs = 8;
  const auto r8 = core::run_fleet(spec);
  ASSERT_TRUE(r8.ok()) << r8.error;
  EXPECT_EQ(r1.report_json, r8.report_json);
  EXPECT_EQ(r1.report_csv, r8.report_csv);
  EXPECT_EQ(r1.failed, 0);
  EXPECT_EQ(r8.failed, 0);
  EXPECT_EQ(r1.worlds, 6);
}

TEST(FleetRun, WorkerCrashIsARecordedRowNotAHarnessDeath) {
  FleetSpec spec;
  spec.scenario = "selftest";
  spec.seeds_per_point = 2;
  spec.fixed.emplace_back("crash", 1.0);
  spec.retries = 1;
  const auto res = core::run_fleet(spec);
  ASSERT_TRUE(res.ok()) << res.error;
  EXPECT_EQ(res.failed, 2);
  EXPECT_EQ(res.retried, 2);  // each world got its one retry
  ASSERT_EQ(res.rows.size(), 2u);
  for (const auto& row : res.rows) {
    EXPECT_EQ(row.status, "crashed");
    EXPECT_TRUE(row.metrics.empty());
  }
}

TEST(FleetRun, TimeoutKillsAndRecordsAfterRetries) {
  FleetSpec spec;
  spec.scenario = "selftest";
  spec.seeds_per_point = 1;
  spec.fixed.emplace_back("hang_s", 30.0);
  spec.timeout_s = 0.2;
  spec.retries = 0;
  const auto res = core::run_fleet(spec);
  ASSERT_TRUE(res.ok()) << res.error;
  ASSERT_EQ(res.rows.size(), 1u);
  EXPECT_EQ(res.rows[0].status, "timeout");
  EXPECT_EQ(res.failed, 1);
}

TEST(FleetRun, RetryRecoversAWorldThatOnlyHangsOnItsFirstAttempt) {
  FleetSpec spec;
  spec.scenario = "selftest";
  spec.seeds_per_point = 2;
  spec.fixed.emplace_back("hang_first_s", 30.0);
  spec.timeout_s = 0.3;
  spec.retries = 1;
  const auto res = core::run_fleet(spec);
  ASSERT_TRUE(res.ok()) << res.error;
  EXPECT_EQ(res.failed, 0);
  EXPECT_EQ(res.retried, 2);
  for (const auto& row : res.rows) EXPECT_EQ(row.status, "ok");

  // A retried campaign still produces the same bytes as an untroubled one.
  FleetSpec clean = spec;
  clean.fixed.clear();
  const auto ref = core::run_fleet(clean);
  EXPECT_EQ(res.report_json, ref.report_json);
}

TEST(FleetRun, ResumeSkipsCompletedWorldsAndKeepsTheBytes) {
  FleetSpec spec = selftest_spec();
  const auto fresh = core::run_fleet(spec);
  ASSERT_TRUE(fresh.ok()) << fresh.error;

  const auto resumed = core::run_fleet(spec, fresh.report_json);
  ASSERT_TRUE(resumed.ok()) << resumed.error;
  EXPECT_EQ(resumed.resumed, fresh.worlds);
  EXPECT_EQ(resumed.launched, 0);
  EXPECT_EQ(resumed.report_json, fresh.report_json);
  EXPECT_EQ(resumed.report_csv, fresh.report_csv);
}

TEST(FleetRun, ResumeRerunsOnlyTheMissingPoints) {
  // Produce a report for half the grid, then resume the full grid: only
  // the new point's worlds launch and the merged bytes equal a fresh full
  // run's.
  FleetSpec half = selftest_spec();
  half.sweep[0].values = {1.0};
  const auto partial = core::run_fleet(half);
  ASSERT_TRUE(partial.ok()) << partial.error;

  FleetSpec full = selftest_spec();
  const auto resumed = core::run_fleet(full, partial.report_json);
  ASSERT_TRUE(resumed.ok()) << resumed.error;
  EXPECT_EQ(resumed.resumed, 3);
  EXPECT_EQ(resumed.launched, 3);

  const auto fresh = core::run_fleet(full);
  EXPECT_EQ(resumed.report_json, fresh.report_json);
}

TEST(FleetRun, ChaosCampaignIsByteIdenticalAcrossJobCounts) {
  FleetSpec spec;
  spec.scenario = "chaos";
  spec.seeds_per_point = 2;
  spec.faults_spec = "crash=0.3,downtime=30";
  spec.fixed.emplace_back("horizon", 120.0);
  spec.jobs = 1;
  const auto r1 = core::run_fleet(spec);
  ASSERT_TRUE(r1.ok()) << r1.error;
  EXPECT_EQ(r1.failed, 0);
  spec.jobs = 2;
  const auto r2 = core::run_fleet(spec);
  ASSERT_TRUE(r2.ok()) << r2.error;
  EXPECT_EQ(r1.report_json, r2.report_json);
  // The record carries the invariant verdict as a metric.
  EXPECT_NE(r1.report_json.find("\"invariants_hold\": 1"), std::string::npos);
}

TEST(FleetRun, SeriesBandsAreByteIdenticalAcrossJobCounts) {
  // Telemetry series collection: every chaos worker samples on the same
  // cadence into its own per-world file, and the parent's merged percentile
  // bands must be byte-identical whatever -j (files are keyed by point and
  // seed index, never by arrival).
  char dir1[] = "/tmp/enviromic_series1_XXXXXX";
  char dir2[] = "/tmp/enviromic_series2_XXXXXX";
  ASSERT_NE(mkdtemp(dir1), nullptr);
  ASSERT_NE(mkdtemp(dir2), nullptr);
  FleetSpec spec;
  spec.scenario = "chaos";
  spec.seeds_per_point = 2;
  spec.fixed.emplace_back("horizon", 40.0);
  spec.fixed.emplace_back("grace", 20.0);
  spec.fixed.emplace_back("grid_nx", 3.0);
  spec.fixed.emplace_back("grid_ny", 2.0);
  spec.fixed.emplace_back("census", 0.0);
  spec.series_interval_s = 10.0;
  spec.series_dir = dir1;
  spec.jobs = 1;
  const auto r1 = core::run_fleet(spec);
  ASSERT_TRUE(r1.ok()) << r1.error;
  ASSERT_EQ(r1.failed, 0);
  spec.series_dir = dir2;
  spec.jobs = 2;
  const auto r2 = core::run_fleet(spec);
  ASSERT_TRUE(r2.ok()) << r2.error;
  EXPECT_FALSE(r1.series_report.empty());
  EXPECT_EQ(r1.series_report, r2.series_report);
  // Header plus one row per (sample, gauge); all seeds contributed.
  EXPECT_EQ(r1.series_report.compare(0, 31, "point,t_s,series,p10,p50,p90,n\n"),
            0);
  EXPECT_NE(r1.series_report.find(",flash_used_bytes,"), std::string::npos);
  EXPECT_NE(r1.series_report.find(",2\n"), std::string::npos);

  // Every simulated scenario samples through the same run loop: an indoor
  // campaign's bands are just as byte-stable across -j.
  FleetSpec indoor;
  indoor.scenario = "indoor";
  indoor.seeds_per_point = 2;
  indoor.fixed.emplace_back("horizon", 40.0);
  indoor.fixed.emplace_back("grid_nx", 4.0);
  indoor.fixed.emplace_back("grid_ny", 3.0);
  indoor.series_interval_s = 10.0;
  indoor.series_dir = dir1;
  indoor.jobs = 1;
  const auto i1 = core::run_fleet(indoor);
  ASSERT_TRUE(i1.ok()) << i1.error;
  ASSERT_EQ(i1.failed, 0);
  indoor.series_dir = dir2;
  indoor.jobs = 2;
  const auto i2 = core::run_fleet(indoor);
  ASSERT_TRUE(i2.ok()) << i2.error;
  EXPECT_NE(i1.series_report.find(",flash_used_bytes,"), std::string::npos);
  EXPECT_EQ(i1.series_report, i2.series_report);
}

TEST(FleetSpecTest, RejectsBadSeriesSpecs) {
  FleetSpec spec;
  spec.scenario = "chaos";
  spec.series_interval_s = 1.0;  // interval without a directory
  std::string err;
  EXPECT_FALSE(core::validate_fleet_spec(spec, &err));
  spec.series_dir = "/tmp";
  EXPECT_TRUE(core::validate_fleet_spec(spec, &err)) << err;
  spec.scenario = "selftest";
  EXPECT_FALSE(core::validate_fleet_spec(spec, &err));
  spec.scenario = "chaos";
  spec.series_interval_s = 0.0;  // directory without an interval
  EXPECT_FALSE(core::validate_fleet_spec(spec, &err));
}

// --- Binary-level regressions (strict argument rejection, end to end) --------

int run_binary(const std::string& cmd) {
  const int status = std::system((cmd + " >/dev/null 2>&1").c_str());
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

TEST(CliRejection, GarbageNumericArgumentsExitTwo) {
  const std::string cli = ENVIROMIC_CLI_PATH;
  EXPECT_EQ(run_binary(cli + " --seed garbage"), 2);
  EXPECT_EQ(run_binary(cli + " --seed -1"), 2);
  EXPECT_EQ(run_binary(cli + " --seed 1e3"), 2);
  EXPECT_EQ(run_binary(cli + " --scenario mobile --runs 3x"), 2);
  EXPECT_EQ(run_binary(cli + " --beta nope"), 2);
  EXPECT_EQ(run_binary(cli + " --horizon 10s"), 2);
  EXPECT_EQ(run_binary(cli + " --dta 70ms"), 2);
  EXPECT_EQ(run_binary(cli + " --series-interval 0"), 2);
  EXPECT_EQ(run_binary(cli + " --series-interval -5"), 2);
  EXPECT_EQ(run_binary(cli + " --series-interval fast"), 2);
  EXPECT_EQ(run_binary(cli + " --probe nope=1"), 2);
  EXPECT_EQ(run_binary(cli + " --probe battery_floor=low"), 2);
}

TEST(CliRejection, SeriesWithRepeatedRunsExitsTwo) {
  // A series covers exactly one run; repeated runs used to merge into one
  // corrupted file (later runs' rows overwrote the first run's last row).
  const std::string cli = ENVIROMIC_CLI_PATH;
  const std::string path = ::testing::TempDir() + "cli_mobile_runs.csv";
  std::remove(path.c_str());
  EXPECT_EQ(run_binary(cli + " --scenario mobile --runs 3 --series " + path +
                       " --series-interval 3"),
            2);
  EXPECT_EQ(run_binary(cli + " --scenario mobile --runs 2 --series " + path),
            2);
  EXPECT_EQ(run_binary(cli + " --scenario mobile --runs 2 --series-interval 1"),
            2);
  std::ifstream written(path);
  EXPECT_FALSE(written.good());
}

TEST(CliRejection, TraceWithRepeatedRunsExitsTwo) {
  // A trace records one run; repeated runs used to write every world into
  // one file whose sim time ran backwards at each new run. A profile covers
  // one run too.
  const std::string cli = ENVIROMIC_CLI_PATH;
  const std::string path = ::testing::TempDir() + "cli_mobile_runs.jsonl";
  std::remove(path.c_str());
  EXPECT_EQ(run_binary(cli + " --scenario mobile --runs 3 --trace " + path),
            2);
  std::ifstream written(path);
  EXPECT_FALSE(written.good());
  EXPECT_EQ(run_binary(cli + " --scenario mobile --runs 3 --profile"), 2);
}

TEST(CliRejection, BadErasureGeometryExitsTwo) {
  const std::string cli = ENVIROMIC_CLI_PATH;
  EXPECT_EQ(run_binary(cli + " --coded-k 0"), 2);
  EXPECT_EQ(run_binary(cli + " --coded-n 300"), 2);
  EXPECT_EQ(run_binary(cli + " --coded-k 6 --coded-n 4"), 2);
}

TEST(CliRejection, ScenarioForeignFlagsExitTwo) {
  // A flag its scenario does not read used to be dropped silently: an
  // outdoor run given --mode printed the full system's line and exited 0.
  const std::string cli = ENVIROMIC_CLI_PATH;
  EXPECT_EQ(run_binary(cli + " --scenario outdoor --mode uncoordinated "
                             "--horizon 300"),
            2);
  EXPECT_EQ(run_binary(cli + " --scenario indoor --runs 3 --drain-sinks 2 "
                             "--trc 0.5"),
            2);
  EXPECT_EQ(run_binary(cli + " --scenario outdoor --faults crash=0.3"), 2);
  EXPECT_EQ(run_binary(cli + " --faults crash=0.3 --scenario indoor"), 2);
  EXPECT_EQ(run_binary(cli + " --scenario voice --horizon 60"), 2);
  EXPECT_EQ(run_binary(cli + " --scenario mobile --csv"), 2);
  EXPECT_EQ(run_binary(cli + " --scenario chaos --gossip"), 2);
  EXPECT_EQ(run_binary(cli + " --faults crash=0.3 --sample 30"), 2);
  // The diagnostic names the flag and the scenario.
  const std::string err = ::testing::TempDir() + "cli_foreign_flag.err";
  const int status = std::system(
      (cli + " --scenario outdoor --mode uncoordinated >/dev/null 2>" + err)
          .c_str());
  EXPECT_EQ(WIFEXITED(status) ? WEXITSTATUS(status) : -1, 2);
  std::ifstream in(err);
  std::ostringstream text;
  text << in.rdbuf();
  EXPECT_NE(text.str().find("--mode is not read by the outdoor scenario"),
            std::string::npos)
      << text.str();
}

TEST(CliRejection, FleetBinaryRejectsBadArguments) {
  const std::string fleet = ENVIROMIC_FLEET_PATH;
  EXPECT_EQ(run_binary(fleet + " --seed garbage"), 2);
  EXPECT_EQ(run_binary(fleet + " --seeds 0"), 2);
  EXPECT_EQ(run_binary(fleet + " --scenario bogus"), 2);
  EXPECT_EQ(run_binary(fleet + " --scenario chaos --sweep bogus=1,2"), 2);
  EXPECT_EQ(run_binary(fleet + " --sweep crash=0.1,x2"), 2);
  EXPECT_EQ(run_binary(fleet + " --coded-k 0 --coded-n 5"), 2);
  EXPECT_EQ(run_binary(fleet + " --coded-k 4 --coded-n 2"), 2);
  EXPECT_EQ(run_binary(fleet + " --series-interval 0"), 2);
  EXPECT_EQ(run_binary(fleet + " --series-interval 1"), 2);  // no --series-dir
  EXPECT_EQ(run_binary(fleet +
                       " --scenario selftest --series-interval 1 "
                       "--series-dir /tmp"),
            2);
}

TEST(CliRejection, FleetRejectsOutdoorTimeScale) {
  // run_outdoor has no time-scale knob, so the name is an unknown outdoor
  // parameter like any other and the campaign never starts.
  FleetSpec spec;
  spec.scenario = "outdoor";
  spec.sweep.push_back({"time_scale", {0.25, 1.0}});
  std::string err;
  EXPECT_FALSE(core::validate_fleet_spec(spec, &err));
  EXPECT_NE(err.find("unknown outdoor parameter 'time_scale'"),
            std::string::npos)
      << err;
  const std::string fleet = ENVIROMIC_FLEET_PATH;
  EXPECT_EQ(run_binary(fleet +
                       " --scenario outdoor --seeds 1 "
                       "--sweep time_scale=0.25,1 --horizon 300"),
            2);
}

TEST(CliRejection, ValidArgumentsStillRun) {
  const std::string fleet = ENVIROMIC_FLEET_PATH;
  EXPECT_EQ(run_binary(fleet + " --scenario selftest --seeds 2 -j 2"), 0);
}

// --- Every CLI scenario honours the observers and its output flags ---------

/// Run a binary and capture its stdout (stderr is discarded).
int run_capture(const std::string& cmd, std::string* out) {
  std::FILE* p = ::popen((cmd + " 2>/dev/null").c_str(), "r");
  if (p == nullptr) return -1;
  char buf[4096];
  for (std::size_t n; (n = std::fread(buf, 1, sizeof buf, p)) > 0;)
    out->append(buf, n);
  const int status = ::pclose(p);
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

TEST(CliScenarios, GossipIndoorRunPrintsTheStandardLineAndRecord) {
  // --gossip is a balancing strategy of the one indoor runner, so --json
  // and the standard summary line apply to it like to any indoor run.
  std::string out;
  EXPECT_EQ(run_capture(std::string(ENVIROMIC_CLI_PATH) +
                            " --scenario indoor --gossip --horizon 600 "
                            "--json -",
                        &out),
            0);
  EXPECT_NE(out.find("{\"scenario\": \"indoor\""), std::string::npos) << out;
  EXPECT_NE(out.find("\"total_messages\": 3276,"), std::string::npos) << out;
  EXPECT_NE(out.find("indoor[full beta=2] t=600s miss=0.072 redundancy=0.037 "
                     "messages=3276"),
            std::string::npos)
      << out;
}

TEST(CliScenarios, UnwritableJsonPathExitsOne) {
  const std::string cli = ENVIROMIC_CLI_PATH;
  EXPECT_EQ(run_binary(cli + " --scenario voice --json /nonexistent/dir/x.jsonl"),
            1);
}

TEST(CliScenarios, IndoorWritesTelemetrySeries) {
  const std::string path = ::testing::TempDir() + "cli_indoor_series.csv";
  std::remove(path.c_str());
  EXPECT_EQ(run_binary(std::string(ENVIROMIC_CLI_PATH) +
                       " --scenario indoor --horizon 120 --sample 60 "
                       "--series " + path),
            0);
  const std::string csv = read_file(path);
  EXPECT_EQ(csv.rfind("t_s,", 0), 0u);
  EXPECT_GT(std::count(csv.begin(), csv.end(), '\n'), 1);  // header + samples
  std::remove(path.c_str());
}

TEST(CliScenarios, OutdoorHealthProbeTripsAndExitsOne) {
  std::string out;
  EXPECT_EQ(run_capture(std::string(ENVIROMIC_CLI_PATH) +
                            " --scenario outdoor --horizon 120 "
                            "--probe battery_floor=1e9",
                        &out),
            1);
  EXPECT_NE(out.find("health trip: battery_floor"), std::string::npos) << out;
}

TEST(CliScenarios, VoiceTraceCarriesCounterSamples) {
  const std::string path = ::testing::TempDir() + "cli_voice_trace.json";
  std::remove(path.c_str());
  EXPECT_EQ(run_binary(std::string(ENVIROMIC_CLI_PATH) +
                       " --scenario voice --trace " + path +
                       " --series-interval 1"),
            0);
  EXPECT_NE(read_file(path).find("\"ph\":\"C\""), std::string::npos);
  std::remove(path.c_str());
}

TEST(CliScenarios, OutdoorTraceCarriesSeriesCounterTracks) {
  // The series cadence alone (no --series file) draws the run's telemetry
  // into the trace: 30 s over 120 s is four samples, and every one of them
  // fills the global gauges on the world process.
  const std::string path = ::testing::TempDir() + "cli_outdoor_trace.json";
  std::remove(path.c_str());
  EXPECT_EQ(run_binary(std::string(ENVIROMIC_CLI_PATH) +
                       " --scenario outdoor --horizon 120 --trace " + path +
                       " --series-interval 30"),
            0);
  const std::string json = read_file(path);
  const std::string battery_min = "\"name\":\"battery_min_j\",\"ph\":\"C\"";
  std::size_t samples = 0;
  for (auto at = json.find(battery_min); at != std::string::npos;
       at = json.find(battery_min, at + 1)) {
    ++samples;
  }
  EXPECT_EQ(samples, 4u);
  EXPECT_NE(json.find("\"name\":\"node_battery_j\",\"ph\":\"C\",\"pid\":1,"),
            std::string::npos);
  EXPECT_NE(json.find("\"args\":{\"name\":\"world\"}"), std::string::npos);
  std::remove(path.c_str());
}

}  // namespace
