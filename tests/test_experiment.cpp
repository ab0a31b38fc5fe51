// The canned experiment runners: small-scale sanity plus the paper's
// qualitative claims at reduced horizons (full-scale runs live in bench/).
#include <gtest/gtest.h>

#include "enviromic.h"

namespace enviromic::core {
namespace {

TEST(Experiment, MobileRunProducesSeamlessTimeline) {
  MobileRunConfig cfg;
  cfg.seed = 151;
  const auto res = run_mobile(cfg);
  EXPECT_GT(res.recordings.size(), 5u);
  EXPECT_LT(res.miss_ratio, 0.25);
  // Distinct recorders take over as the source moves.
  std::set<net::NodeId> nodes;
  for (const auto& r : res.recordings) nodes.insert(r.node);
  EXPECT_GE(nodes.size(), 3u);
}

TEST(Experiment, MobileMissShrinksWithDta) {
  // The Fig 6 trend, averaged over a few seeds at two extreme settings.
  double small_dta = 0, large_dta = 0;
  const int runs = 10;
  for (int r = 0; r < runs; ++r) {
    MobileRunConfig cfg;
    cfg.seed = 160 + static_cast<std::uint64_t>(r);
    cfg.task_period = sim::Time::seconds(0.5);
    cfg.task_assign_delay = sim::Time::millis(10);
    small_dta += run_mobile(cfg).miss_ratio / runs;
    cfg.task_assign_delay = sim::Time::millis(90);
    large_dta += run_mobile(cfg).miss_ratio / runs;
  }
  EXPECT_GT(small_dta, large_dta);
}

TEST(Experiment, MobilePlateauNearPaperStartupFraction) {
  // At Dta=70ms the miss ratio is dominated by the ~0.7 s election over the
  // 9 s event: ~8% (paper §IV-A).
  double sum = 0;
  const int runs = 12;
  for (int r = 0; r < runs; ++r) {
    MobileRunConfig cfg;
    cfg.seed = 180 + static_cast<std::uint64_t>(r);
    sum += run_mobile(cfg).miss_ratio / runs;
  }
  EXPECT_GT(sum, 0.03);
  EXPECT_LT(sum, 0.16);
}

TEST(Experiment, IndoorShortRunOrdersModes) {
  auto run = [](Mode m, double beta) {
    IndoorRunConfig cfg;
    cfg.mode = m;
    cfg.beta_max = beta;
    cfg.seed = 152;
    cfg.horizon = sim::Time::seconds_i(1200);
    cfg.sample_period = sim::Time::seconds_i(300);
    cfg.flash_scale = 0.12;  // shrink so saturation happens within 20 min
    return run_indoor(cfg);
  };
  const auto baseline = run(Mode::kUncoordinated, 2.0);
  const auto coop = run(Mode::kCooperativeOnly, 2.0);
  const auto full = run(Mode::kFull, 2.0);
  const double m_base = baseline.series.back().miss_ratio;
  const double m_coop = coop.series.back().miss_ratio;
  const double m_full = full.series.back().miss_ratio;
  EXPECT_GT(m_base, m_coop);
  EXPECT_GT(m_coop, m_full);
  // Redundancy: baseline near its 0.75 bound, cooperative far lower.
  EXPECT_GT(baseline.series.back().redundancy_ratio, 0.5);
  EXPECT_LT(coop.series.back().redundancy_ratio, 0.2);
  // Message counts: baseline none; balancing adds transfer traffic.
  EXPECT_EQ(baseline.series.back().total_messages, 0u);
  EXPECT_GT(full.series.back().total_messages,
            coop.series.back().total_messages);
  EXPECT_GT(full.series.back().transfer_messages, 0u);
  EXPECT_EQ(coop.series.back().transfer_messages, 0u);
}

TEST(Experiment, IndoorSeriesIsSampledAtCadence) {
  IndoorRunConfig cfg;
  cfg.seed = 153;
  cfg.horizon = sim::Time::seconds_i(600);
  cfg.sample_period = sim::Time::seconds_i(120);
  const auto res = run_indoor(cfg);
  ASSERT_EQ(res.series.size(), 5u);
  EXPECT_EQ(res.series[0].t, sim::Time::seconds_i(120));
  EXPECT_EQ(res.series[4].t, sim::Time::seconds_i(600));
  EXPECT_EQ(res.positions.size(), 48u);
}

TEST(Experiment, VoiceStitchingResemblesReference) {
  VoiceRunConfig cfg;
  cfg.seed = 154;
  const auto res = run_voice(cfg);
  EXPECT_EQ(res.reference.size(), res.stitched.size());
  EXPECT_GT(res.stitched_coverage, 0.6);
  EXPECT_GT(res.envelope_correlation, 0.35);
}

TEST(Experiment, OutdoorShortRunProducesActivity) {
  OutdoorRunConfig cfg;
  cfg.seed = 155;
  cfg.horizon = sim::Time::seconds_i(900);  // 15 minutes
  cfg.plan.include_spikes = false;
  cfg.nodes = 16;
  const auto res = run_outdoor(cfg);
  EXPECT_EQ(res.positions.size(), 16u);
  EXPECT_EQ(res.recorded_seconds_per_minute.size(), 16u);
  double total = 0;
  for (double v : res.recorded_seconds_per_minute) total += v;
  EXPECT_GT(total, 10.0);
  EXPECT_NE(res.hottest, net::kInvalidNode);
}

TEST(Experiment, PaperNodeParamsMatchPaperDefaults) {
  const auto p = paper_node_params(Mode::kFull, 3.0);
  EXPECT_EQ(p.protocol.mode, Mode::kFull);
  EXPECT_DOUBLE_EQ(p.protocol.beta_max, 3.0);
  EXPECT_EQ(p.protocol.task_period, sim::Time::seconds_i(1));
  EXPECT_EQ(p.protocol.task_assign_delay, sim::Time::millis(70));
  EXPECT_EQ(p.flash.capacity_bytes, 512u * 1024u);
  EXPECT_EQ(storage::kBlockSize, 256u);
  EXPECT_DOUBLE_EQ(acoustic::kSampleRateHz, 2730.0);
}

TEST(ScenarioTable, NamesEachScenarioParameterAndFlagOnce) {
  EXPECT_EQ(scenario_names(), (std::vector<std::string>{
                                  "chaos", "indoor", "mobile", "outdoor",
                                  "voice"}));
  EXPECT_TRUE(param_names("voice").empty());
  EXPECT_TRUE(param_names("bogus").empty());
  EXPECT_EQ(scenarios_declaring("horizon"),
            (std::vector<std::string>{"chaos", "indoor", "outdoor"}));
  EXPECT_EQ(scenarios_declaring("sample"), std::vector<std::string>{"indoor"});
  // The fault keys are chaos's leading parameters, so the CLI's usage,
  // --faults and the fleet's --set read one list.
  const auto keys = fault_keys();
  const auto chaos = param_names("chaos");
  ASSERT_FALSE(keys.empty());
  ASSERT_LT(keys.size(), chaos.size());
  EXPECT_EQ(keys, std::vector<std::string>(chaos.begin(),
                                           chaos.begin() + keys.size()));
  EXPECT_EQ(keys.front(), "crash");
  EXPECT_EQ(keys.back(), "asym");
  // Every parameter flag sets a parameter that some scenario declares.
  const std::string usage = param_flag_usage();
  EXPECT_NE(usage.find("--sample <seconds>"), std::string::npos) << usage;
  EXPECT_EQ(usage.find("[]"), std::string::npos) << usage;
  EXPECT_EQ(find_param_flag("--seed"), nullptr);

  ParamValues values;
  std::string err;
  const ParamFlag* mode = find_param_flag("--mode");
  ASSERT_NE(mode, nullptr);
  EXPECT_TRUE(add_param_flag(*mode, "coop", values, err)) << err;
  EXPECT_FALSE(add_param_flag(*mode, "bogus", values, err));
  EXPECT_NE(err.find("--mode"), std::string::npos) << err;
  EXPECT_FALSE(add_param_flag(*mode, "coop|full", values, err));
  const ParamFlag* coded_k = find_param_flag("--coded-k");
  ASSERT_NE(coded_k, nullptr);
  EXPECT_FALSE(add_param_flag(*coded_k, "2.0", values, err));
  EXPECT_TRUE(add_param_flag(*coded_k, "2", values, err)) << err;
  const ParamFlag* gossip = find_param_flag("--gossip");
  ASSERT_NE(gossip, nullptr);
  EXPECT_TRUE(add_param_flag(*gossip, nullptr, values, err)) << err;
  EXPECT_EQ(values, (ParamValues{{"mode", 1.0}, {"coded_k", 2.0},
                                 {"gossip", 1.0}}));
}

TEST(ScenarioTable, ConfigureRunsTheCrossFieldChecks) {
  std::string err;
  IndoorRunConfig indoor;
  EXPECT_FALSE(configure(indoor, "", {{"horizon", 40.0}}, err));
  EXPECT_NE(err.find("horizon"), std::string::npos) << err;
  EXPECT_NE(err.find("sample"), std::string::npos) << err;
  indoor = {};
  EXPECT_TRUE(configure(indoor, "", {{"horizon", 40.0}, {"sample", 0.0}}, err))
      << err;
  EXPECT_EQ(indoor.sample_period, sim::Time::zero());
  EXPECT_FALSE(configure(indoor, "", {{"sample", -5.0}}, err));

  ChaosRunConfig chaos;
  EXPECT_FALSE(configure(chaos, "", {{"coded_k", 4.0}, {"coded_n", 2.0}}, err));
  EXPECT_NE(err.find("n < k"), std::string::npos) << err;

  VoiceRunConfig voice;
  EXPECT_TRUE(configure(voice, "", {}, err)) << err;
  EXPECT_FALSE(configure(voice, "crash=0.1", {}, err));
  EXPECT_FALSE(configure(voice, "", {{"horizon", 60.0}}, err));
  EXPECT_NE(err.find("unknown voice parameter 'horizon'"), std::string::npos)
      << err;
}

}  // namespace
}  // namespace enviromic::core
