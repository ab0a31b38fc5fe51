// enviromic_cli — run any of the paper's scenarios from the command line.
//
//   enviromic_cli --scenario indoor --mode full --beta 2 --horizon 1200
//   enviromic_cli --scenario mobile --trc 0.5 --dta 30 --runs 15
//   enviromic_cli --scenario outdoor --seed 9 --csv
//   enviromic_cli --scenario voice
//   enviromic_cli --scenario chaos --faults crash=0.3,downtime=60
//
// Prints the scenario's headline metrics; --csv emits the time series for
// plotting, --contours renders the spatial storage distribution.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <iterator>
#include <string>
#include <type_traits>
#include <vector>

#include "enviromic.h"
#include "storage/erasure.h"
#include "util/parse.h"

using namespace enviromic;

namespace {

/// A scenario parameter a flag sets, applied through core::set_param.
struct Setting {
  const char* flag;
  const char* name;
  double value;
};

struct Args {
  std::string scenario = "indoor";
  std::uint64_t seed = 7;
  double sample_s = 60.0;
  int runs = 1;
  bool csv = false;
  bool contours = false;
  std::vector<Setting> settings;  //!< in command-line order
  std::string faults;             //!< every --faults spec, comma-joined
  std::string drain_resource = "/chunks/all";
  std::string trace_path;
  std::string series_path;
  double series_interval_s = 0.0;
  std::vector<core::HealthProbe> probes;
  bool profile = false;
  std::string json_path;
  std::vector<std::string> given;  //!< every flag on the command line
};

/// The flags that set a scenario parameter, and the parameter each sets. A
/// word flag's value is one of its words, and the parameter takes that
/// word's index; a flag over a whole-number parameter takes an integer.
struct ParamFlag {
  const char* flag;
  const char* name;
  bool integer = false;
  std::vector<std::string> words = {};
};
const ParamFlag kParamFlags[] = {
    {"--beta", "beta"}, {"--horizon", "horizon"}, {"--trc", "trc"},
    {"--dta", "dta", true}, {"--coded-k", "coded_k", true},
    {"--coded-n", "coded_n", true}, {"--drain-sinks", "drain_sinks", true},
    {"--drain-hops", "drain_hops", true},
    {"--mode", "mode", true, {"uncoordinated", "coop", "full"}},
    {"--storage-policy", "coded", true, {"migrate", "coded"}},
};

/// The flags only some scenarios read that set no scenario parameter, and
/// the scenarios that read them; a parameter flag is read by the scenarios
/// whose core::param_names hold its parameter. Every scenario reads
/// --scenario, --seed, --json and the observer flags (--trace, --series,
/// --series-interval, --probe, --profile).
struct ScopedFlag {
  const char* flag;
  std::vector<std::string> scenarios;
};
const ScopedFlag kScopedFlags[] = {
    {"--sample", {"indoor"}},
    {"--csv", {"indoor", "outdoor"}},
    {"--contours", {"indoor"}},
    {"--runs", {"mobile"}},
    {"--faults", {"chaos"}},
    {"--drain-resource", {"chaos"}},
};
const char* const kScenarios[] = {"indoor", "outdoor", "mobile", "voice",
                                  "chaos"};

// Strict flag-value parsers: reject non-numeric, trailing-junk, and
// out-of-range input with a diagnostic naming the flag, then exit 2 (the
// same status parse() failures produce). `--seed garbage` used to be seed 0.
std::uint64_t flag_u64(const char* flag, const char* value) {
  std::uint64_t v = 0;
  if (!util::parse_u64(value, &v)) {
    std::fprintf(stderr, "bad %s '%s': expected an unsigned integer\n", flag,
                 value);
    std::exit(2);
  }
  return v;
}

int flag_int(const char* flag, const char* value) {
  int v = 0;
  if (!util::parse_int(value, &v)) {
    std::fprintf(stderr, "bad %s '%s': expected an integer\n", flag, value);
    std::exit(2);
  }
  return v;
}

double flag_double(const char* flag, const char* value) {
  double v = 0.0;
  if (!util::parse_double(value, &v)) {
    std::fprintf(stderr, "bad %s '%s': expected a number\n", flag, value);
    std::exit(2);
  }
  return v;
}

void usage() {
  std::puts(
      "usage: enviromic_cli [options]\n"
      "  --scenario indoor|outdoor|mobile|voice|chaos (default indoor, or\n"
      "      chaos when --faults is given)\n"
      "Every scenario reads --scenario, --seed, --json, --trace, --series,\n"
      "--series-interval, --probe and --profile. A [bracket] names the\n"
      "scenarios that read a flag; any other scenario exits 2 on it.\n"
      "  --mode uncoordinated|coop|full  [indoor] (default full)\n"
      "  --beta <beta_max>               [indoor outdoor chaos] (default 2)\n"
      "  --gossip                        [indoor] global balancing strategy\n"
      "  --seed <n>                      (default 7)\n"
      "  --horizon <seconds>             [indoor outdoor chaos] (4400)\n"
      "  --sample <seconds>              [indoor] snapshot period (60)\n"
      "  --storage-policy migrate|coded  [chaos] (default migrate)\n"
      "  --coded-k <k>  --coded-n <n>    [chaos] erasure geometry (3 of 5)\n"
      "  --trc <seconds>  --dta <ms>     [mobile] task period and delay\n"
      "  --runs <n>                      [mobile] repetitions; a trace,\n"
      "      series or profile records one run, so --trace, --series,\n"
      "      --series-interval and --profile need --runs 1\n"
      "      (enviromic_fleet --series-dir merges seeds' series)\n"
      "  --csv                           [indoor outdoor] CSV time series\n"
      "  --json <path|->                          append one JSON record per\n"
      "      run ({\"scenario\",\"seed\",\"metrics\"}; - = stdout)\n"
      "  --contours                      [indoor] storage contour at end\n"
      "  --trace <path>                           record the run's protocol\n"
      "      trace (one ring of up to 2^20 records, oldest overwritten);\n"
      "      .jsonl extension dumps raw records, anything else writes\n"
      "      Chrome-trace JSON (open in Perfetto / chrome://tracing), with\n"
      "      the telemetry series as counter tracks\n"
      "  --series <path>                          telemetry time series;\n"
      "      .jsonl extension dumps JSONL, anything else CSV (one column\n"
      "      per gauge, per-node gauges as name[node])\n"
      "  --series-interval <seconds>              telemetry sampling cadence\n"
      "      (> 0; default 1 when --series is given)\n"
      "  --probe <name>=<value>                   declarative health probe,\n"
      "      repeatable; a trip dumps the flight-recorder tail and exits 1.\n"
      "      names: wear_spread_max miss_ratio_max battery_floor\n"
      "             window_stalls_max channel_busy_max\n"
      "  --profile                                print the run loop's host\n"
      "      time per component after the summary (fires, self ms, %);\n"
      "      never in --json, whose records stay byte-comparable\n"
      "  --faults k=v[,k=v...]           [chaos] fault plan; implies chaos\n"
      "      keys: crash downtime permanent lose_data brownout brownout_len\n"
      "            clockstep clockstep_max burst pgb pbg loss_bad loss_good\n"
      "            asym   (e.g. --faults crash=0.3,downtime=60,burst=1)\n"
      "  --drain-sinks <0..4>            [chaos] corner sinks that flood\n"
      "      spanning-tree drain queries at the horizon (0 = off)\n"
      "  --drain-hops <n>                [chaos] drain flood depth (4)\n"
      "  --drain-resource <path>         [chaos] what the sinks ask for:\n"
      "      /chunks/all | /chunks/time/<from>-<to> | /chunks/source/<id>\n");
}

bool parse(int argc, char** argv, Args& args) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    args.given.push_back(a);
    auto next = [&](const char* what) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", what);
        std::exit(2);
      }
      return argv[++i];
    };
    const auto param = std::find_if(
        std::begin(kParamFlags), std::end(kParamFlags),
        [&a](const ParamFlag& p) { return a == p.flag; });
    if (a == "--scenario") {
      args.scenario = next("--scenario");
    } else if (param != std::end(kParamFlags)) {
      const char* v = next(param->flag);
      const auto& words = param->words;
      const auto word = std::find(words.begin(), words.end(), v);
      if (!words.empty() && word == words.end()) {
        std::fprintf(stderr, "unknown %s '%s'\n", param->flag, v);
        return false;
      }
      const double value = !words.empty() ? word - words.begin()
                           : param->integer ? flag_int(param->flag, v)
                                            : flag_double(param->flag, v);
      args.settings.push_back({param->flag, param->name, value});
    } else if (a == "--gossip") {
      args.settings.push_back({"--gossip", "gossip", 1.0});
    } else if (a == "--seed") {
      args.seed = flag_u64("--seed", next("--seed"));
    } else if (a == "--sample") {
      args.sample_s = flag_double("--sample", next("--sample"));
    } else if (a == "--runs") {
      args.runs = flag_int("--runs", next("--runs"));
      if (args.runs < 1) {
        std::fprintf(stderr, "bad --runs %d (need >= 1)\n", args.runs);
        return false;
      }
    } else if (a == "--faults") {
      // Repeated specs apply in order, as one joined spec.
      args.faults += std::string(",") + next("--faults");
    } else if (a == "--drain-resource") {
      args.drain_resource = next("--drain-resource");
      if (!core::parse_resource(args.drain_resource)) {
        std::fprintf(stderr,
                     "bad --drain-resource '%s': expected /chunks/all, "
                     "/chunks/time/<from>-<to>, or /chunks/source/<id>\n",
                     args.drain_resource.c_str());
        return false;
      }
    } else if (a == "--trace") {
      args.trace_path = next("--trace");
    } else if (a == "--json") {
      args.json_path = next("--json");
    } else if (a == "--series") {
      args.series_path = next("--series");
    } else if (a == "--series-interval") {
      args.series_interval_s =
          flag_double("--series-interval", next("--series-interval"));
      if (args.series_interval_s <= 0.0) {
        std::fprintf(stderr, "bad --series-interval %g (need > 0)\n",
                     args.series_interval_s);
        return false;
      }
    } else if (a == "--probe") {
      core::HealthProbe p;
      std::string err;
      if (!core::parse_health_probe(next("--probe"), &p, &err)) {
        std::fprintf(stderr, "bad --probe: %s\n", err.c_str());
        return false;
      }
      args.probes.push_back(std::move(p));
    } else if (a == "--profile") {
      args.profile = true;
    } else if (a == "--csv") {
      args.csv = true;
    } else if (a == "--contours") {
      args.contours = true;
    } else if (a == "--help" || a == "-h") {
      usage();
      std::exit(0);
    } else {
      std::fprintf(stderr, "unknown option %s\n", a.c_str());
      return false;
    }
  }
  if (args.runs > 1 && (!args.trace_path.empty() || !args.series_path.empty() ||
                        args.series_interval_s > 0.0 || args.profile)) {
    std::fprintf(stderr,
                 "--trace, --series, --series-interval and --profile record "
                 "one run; for multi-seed series use enviromic_fleet "
                 "--series-dir\n");
    return false;
  }
  // Every flag must be one its scenario reads.
  auto given = [&args](const char* flag) {
    return std::count(args.given.begin(), args.given.end(), flag) > 0;
  };
  if (given("--faults") && !given("--scenario")) args.scenario = "chaos";
  if (std::find(std::begin(kScenarios), std::end(kScenarios),
                args.scenario) == std::end(kScenarios)) {
    std::fprintf(stderr, "unknown scenario '%s'\n", args.scenario.c_str());
    return false;
  }
  auto read_by = [&args](const char* flag,
                         const std::vector<std::string>& readers) {
    if (std::count(readers.begin(), readers.end(), args.scenario)) return true;
    std::string names;
    for (const auto& r : readers) names += (names.empty() ? "" : " ") + r;
    std::fprintf(stderr, "%s is not read by the %s scenario (only by: %s)\n",
                 flag, args.scenario.c_str(), names.c_str());
    return false;
  };
  for (const auto& [scoped, readers] : kScopedFlags) {
    if (given(scoped) && !read_by(scoped, readers)) return false;
  }
  for (const Setting& s : args.settings) {
    std::vector<std::string> readers;
    for (const char* sc : kScenarios) {
      const auto names = core::param_names(sc);
      if (std::find(names.begin(), names.end(), s.name) != names.end())
        readers.push_back(sc);
    }
    if (!read_by(s.flag, readers)) return false;
  }
  return true;
}

/// Append one run's machine-readable record to --json PATH ("-" = stdout).
/// Returns false when the file cannot be opened; the run then exits 1.
bool emit_json_record(const Args& args, const std::string& scenario,
                      std::uint64_t seed, const core::RunRecord& rec) {
  if (args.json_path.empty()) return true;
  const std::string line = core::run_record_json(scenario, seed, rec) + "\n";
  if (args.json_path == "-") {
    std::fwrite(line.data(), 1, line.size(), stdout);
    return true;
  }
  std::FILE* f = std::fopen(args.json_path.c_str(), "a");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open --json %s\n", args.json_path.c_str());
    return false;
  }
  std::fwrite(line.data(), 1, line.size(), f);
  std::fclose(f);
  return true;
}

/// The scenario config the command line describes: the observers, the seed,
/// the CLI's defaults (a 4400 s horizon; without --faults, chaos's default
/// storm), every parameter flag through core::set_param, then chaos's fault
/// spec and erasure geometry. A refused value exits 2 before anything runs.
template <class Config>
Config configured(const Args& args) {
  Config cfg;
  core::RunObservers& obs = cfg;
  obs.trace = !args.trace_path.empty();
  if (args.series_interval_s > 0.0) {
    obs.series_interval = sim::Time::seconds(args.series_interval_s);
  } else if (!args.series_path.empty()) {
    obs.series_interval = sim::Time::seconds_i(1);
  }
  obs.health_probes = args.probes;
  obs.profile = args.profile;
  cfg.seed = args.seed;
  if constexpr (requires { cfg.horizon; }) {
    cfg.horizon = sim::Time::seconds_i(4400);
  }
  std::string err;
  auto refuse = [&err](const std::string& what) {
    std::fprintf(stderr, "%s: %s\n", what.c_str(), err.c_str());
    usage();
    std::exit(2);
  };
  if constexpr (!std::is_same_v<Config, core::VoiceRunConfig>) {
    for (const Setting& s : args.settings)
      if (!core::set_param(cfg, s.name, s.value, err)) refuse(s.flag);
  }
  if constexpr (std::is_same_v<Config, core::ChaosRunConfig>) {
    cfg.drain_resource = args.drain_resource;
    const std::string spec =
        args.faults.empty() ? "crash=0.3,downtime=60,burst=1" : args.faults;
    if (!core::parse_fault_spec(spec, cfg, err)) refuse("bad --faults spec");
    if (!storage::ErasureCodec::validate_geometry(cfg.coded_k, cfg.coded_n,
                                                  &err))
      refuse("bad erasure geometry");
  }
  return cfg;
}

/// Print the run loop's host-time attribution, one line per profiler tag.
void report_profile(const sim::Profiler::Report& rep) {
  std::printf("profile: %.1f ms over %llu callbacks\n", rep.total_ms,
              static_cast<unsigned long long>(rep.fires));
  for (const auto& line : rep.lines) {
    std::printf("  %-18s %10llu fires %10.1f ms %6.2f%%\n", line.tag,
                static_cast<unsigned long long>(line.fires), line.self_ms,
                line.pct);
  }
}

/// Print a run's health-probe trips; true when there were none.
bool report_trips(const std::vector<core::HealthTrip>& trips) {
  for (const auto& t : trips) {
    std::printf("  health trip: %s (%s = %g vs threshold %g) at t=%.1fs\n",
                t.probe.c_str(), t.gauge.c_str(), t.value, t.threshold,
                t.at.to_seconds());
  }
  return trips.empty();
}

int run_indoor_cli(const Args& args, core::RunOutputs& run) {
  auto cfg = configured<core::IndoorRunConfig>(args);
  cfg.sample_period = sim::Time::seconds(args.sample_s);
  auto res = core::run_indoor(cfg);
  const bool json_ok =
      emit_json_record(args, "indoor", cfg.seed, core::indoor_run_record(res));
  run = std::move(res);  // main takes the telemetry, trace and profile
  if (args.csv) {
    util::Table t({"t_s", "miss", "redundancy", "messages"});
    for (const auto& s : res.series) {
      t.add_row({util::fmt(s.t.to_seconds(), 0), util::fmt(s.miss_ratio),
                 util::fmt(s.redundancy_ratio),
                 util::fmt(static_cast<long long>(s.total_messages))});
    }
    t.print_csv(std::cout);
  }
  const auto& last = res.series.back();
  std::printf("indoor[%s beta=%.0f] t=%.0fs miss=%.3f redundancy=%.3f "
              "messages=%llu\n",
              core::mode_name(cfg.mode), cfg.beta_max, last.t.to_seconds(),
              last.miss_ratio, last.redundancy_ratio,
              static_cast<unsigned long long>(last.total_messages));
  if (args.contours) {
    util::Grid grid(static_cast<std::size_t>(res.grid_nx),
                    static_cast<std::size_t>(res.grid_ny));
    for (std::size_t i = 0; i < last.per_node_used_bytes.size(); ++i) {
      grid.at(i % res.grid_nx, i / res.grid_nx) =
          static_cast<double>(last.per_node_used_bytes[i]);
    }
    util::render_contour(std::cout, grid, "storage occupancy (bytes)");
  }
  return report_trips(run.health_trips) && json_ok ? 0 : 1;
}

int run_mobile_cli(const Args& args, core::RunOutputs& run) {
  std::vector<double> misses;
  std::vector<core::HealthTrip> trips;
  bool json_ok = true;
  const auto base = configured<core::MobileRunConfig>(args);
  for (int r = 0; r < args.runs; ++r) {
    auto cfg = base;
    // Run 0 stays on the base seed; later runs are splitmix64-derived so
    // adjacent base seeds never share worlds (seed 7 run 1 used to be the
    // same world as seed 8 run 0 under the old `seed + r` rule).
    cfg.seed = core::derive_run_seed(args.seed, static_cast<std::uint64_t>(r));
    auto res = core::run_mobile(cfg);
    json_ok = emit_json_record(args, "mobile", cfg.seed,
                               core::mobile_run_record(res)) &&
              json_ok;
    misses.push_back(res.miss_ratio);
    trips.insert(trips.end(), res.health_trips.begin(),
                 res.health_trips.end());
    if (args.runs == 1) run = std::move(res);
  }
  std::printf("mobile[Trc=%.1fs Dta=%dms] runs=%d miss=%.3f ci90=%.3f\n",
              base.task_period.to_seconds(),
              static_cast<int>(base.task_assign_delay.to_millis()), args.runs,
              util::mean(misses), util::ci90_halfwidth(misses));
  return report_trips(trips) && json_ok ? 0 : 1;
}

int run_outdoor_cli(const Args& args, core::RunOutputs& run) {
  auto cfg = configured<core::OutdoorRunConfig>(args);
  auto res = core::run_outdoor(cfg);
  const bool json_ok = emit_json_record(args, "outdoor", cfg.seed,
                                        core::outdoor_run_record(res));
  run = std::move(res);  // main takes the telemetry, trace and profile
  if (args.csv) {
    util::Table t({"minute", "recorded_s"});
    for (std::size_t m = 0; m < res.recorded_seconds_per_minute.size(); ++m) {
      t.add_row({util::fmt(static_cast<long long>(m)),
                 util::fmt(res.recorded_seconds_per_minute[m], 1)});
    }
    t.print_csv(std::cout);
  }
  std::printf("outdoor nodes=%zu miss=%.3f hottest=node%u\n",
              res.positions.size(), res.final_snapshot.miss_ratio,
              res.hottest);
  return report_trips(run.health_trips) && json_ok ? 0 : 1;
}

int run_voice_cli(const Args& args, core::RunOutputs& run) {
  auto cfg = configured<core::VoiceRunConfig>(args);
  auto res = core::run_voice(cfg);
  const bool json_ok =
      emit_json_record(args, "voice", cfg.seed, core::voice_run_record(res));
  run = std::move(res);  // main takes the telemetry, trace and profile
  std::printf("voice coverage=%.1f%% envelope_correlation=%.3f\n",
              res.stitched_coverage * 100.0, res.envelope_correlation);
  return report_trips(run.health_trips) && json_ok ? 0 : 1;
}

int run_chaos_cli(const Args& args, core::RunOutputs& run) {
  auto cfg = configured<core::ChaosRunConfig>(args);
  auto res = core::run_chaos(cfg);
  const bool json_ok =
      emit_json_record(args, "chaos", cfg.seed, core::chaos_run_record(res));
  run = std::move(res);  // main takes the telemetry, trace and profile
  const auto& f = res.final_snapshot.faults;
  std::printf("chaos[seed=%llu] nodes=%zu chunks=%llu miss=%.3f\n",
              static_cast<unsigned long long>(cfg.seed), res.nodes,
              static_cast<unsigned long long>(res.live_chunks),
              res.final_snapshot.miss_ratio);
  std::printf(
      "  faults: crashes=%u reboots=%u permanent=%u brownouts=%u "
      "clock_steps=%u downtime=%.0fs\n",
      f.crashes, f.reboots, f.permanent_failures, f.brownouts, f.clock_steps,
      f.downtime_total.to_seconds());
  std::printf(
      "  recovery: chunks_recovered=%llu mismatches=%llu down_at_end=%u "
      "lost=%u\n",
      static_cast<unsigned long long>(f.chunks_recovered),
      static_cast<unsigned long long>(f.recovery_mismatches),
      res.nodes_down_at_end, res.nodes_lost);
  std::printf(
      "  transfers: aborts=%u duplicate_risks=%u rx_expired=%u "
      "stuck_tx=%u stuck_rx=%u\n",
      res.final_snapshot.transfer_aborts,
      res.final_snapshot.transfer_duplicate_risks,
      res.final_snapshot.transfer_rx_expired, res.stuck_tx_sessions,
      res.stuck_rx_sessions);
  std::printf(
      "  transfer window: frags_retried=%u window_stalls=%u max_in_flight=%u\n",
      res.final_snapshot.transfer_fragments_retried,
      res.final_snapshot.transfer_window_stalls,
      res.final_snapshot.transfer_max_in_flight);
  std::printf(
      "  wear[min=%llu max=%llu spread=%llu] energy[total=%.1fJ min=%.1fJ]\n",
      static_cast<unsigned long long>(res.final_snapshot.wear_min),
      static_cast<unsigned long long>(res.final_snapshot.wear_max),
      static_cast<unsigned long long>(res.final_snapshot.wear_spread),
      res.final_snapshot.battery_total_j, res.final_snapshot.battery_min_j);
  const double overhead =
      res.census_original_bytes > 0
          ? static_cast<double>(res.census_stored_bytes) /
                static_cast<double>(res.census_original_bytes)
          : 1.0;
  std::printf(
      "  payloads[%s]: total=%llu reconstructible=%llu lost_to_death=%llu "
      "overhead=%.2fx\n",
      core::policy_name(cfg.storage_policy),
      static_cast<unsigned long long>(res.payloads_total),
      static_cast<unsigned long long>(res.payloads_reconstructible),
      static_cast<unsigned long long>(res.payloads_lost_to_death), overhead);
  if (res.retrieval_sinks > 0) {
    std::printf(
        "  retrieval[%s sinks=%u hops=%d]: eligible=%llu collected=%llu "
        "late=%llu miss=%.3f span=%.1fs double_uploads=%llu relayed=%u "
        "descriptor_acks=%u relay_fallbacks=%u\n",
        cfg.drain_resource.c_str(), res.retrieval_sinks, cfg.drain_hops,
        static_cast<unsigned long long>(res.retrieval_eligible),
        static_cast<unsigned long long>(res.retrieval_collected),
        static_cast<unsigned long long>(res.retrieval_late_arrivals),
        res.retrieval_miss_ratio, res.retrieval_drain_span.to_seconds(),
        static_cast<unsigned long long>(res.retrieval_double_uploads),
        res.final_snapshot.retrieval_chunks_relayed,
        res.final_snapshot.retrieval_descriptor_acks,
        res.final_snapshot.retrieval_relay_fallbacks);
  }
  if (cfg.storage_policy == core::StoragePolicy::kCoded) {
    std::printf(
        "  coded[k=%d n=%d]: chunks=%u frags_placed=%u frags_failed=%u "
        "released=%u kept=%u decode: reconstructed=%llu partial=%llu\n",
        cfg.coded_k, cfg.coded_n, res.coded.chunks_coded,
        res.coded.fragments_placed, res.coded.fragments_failed,
        res.coded.originals_released, res.coded.originals_kept,
        static_cast<unsigned long long>(res.decode.groups_reconstructed),
        static_cast<unsigned long long>(res.decode.groups_partial));
  }
  std::printf(
      "  invariants: stores_recoverable=%d retrieval_exact_once=%d "
      "counters_consistent=%d => %s\n",
      res.stores_recoverable ? 1 : 0, res.retrieval_exact_once ? 1 : 0,
      res.counters_consistent ? 1 : 0,
      res.invariants_hold() ? "OK" : "VIOLATED");
  return report_trips(run.health_trips) && res.invariants_hold() && json_ok ? 0 : 1;
}

}  // namespace

/// Runs the chosen scenario, one parse() admitted; `run` receives the run's
/// telemetry, trace and profile.
int dispatch(const Args& args, core::RunOutputs& run) {
  if (args.scenario == "chaos") return run_chaos_cli(args, run);
  if (args.scenario == "indoor") return run_indoor_cli(args, run);
  if (args.scenario == "mobile") return run_mobile_cli(args, run);
  if (args.scenario == "outdoor") return run_outdoor_cli(args, run);
  return run_voice_cli(args, run);
}

int main(int argc, char** argv) {
  Args args;
  if (!parse(argc, argv, args)) {
    usage();
    return 2;
  }
  auto ends_with_jsonl = [](const std::string& p) {
    return p.size() >= 6 && p.compare(p.size() - 6, 6, ".jsonl") == 0;
  };
  core::RunOutputs run;
  int rc = dispatch(args, run);
  if (args.profile) report_profile(run.profile);
  const sim::Telemetry& series = run.telemetry;
  if (!args.trace_path.empty()) {
    const sim::Trace& trace = run.trace;
    const bool ok = ends_with_jsonl(args.trace_path)
                        ? trace.export_jsonl(args.trace_path)
                        : trace.export_chrome_trace(args.trace_path, series);
    if (!ok) {
      std::fprintf(stderr, "failed to write trace to %s\n",
                   args.trace_path.c_str());
      if (rc == 0) rc = 1;
    } else {
      std::fprintf(stderr, "trace: %llu records (%zu kept) -> %s\n",
                   static_cast<unsigned long long>(trace.total_recorded()),
                   trace.size(), args.trace_path.c_str());
    }
  }
  if (!args.series_path.empty()) {
    const bool ok = ends_with_jsonl(args.series_path)
                        ? series.export_jsonl(args.series_path)
                        : series.export_csv(args.series_path);
    if (!ok) {
      std::fprintf(stderr, "failed to write series to %s\n",
                   args.series_path.c_str());
      if (rc == 0) rc = 1;
    } else {
      std::fprintf(stderr, "series: %zu samples x %zu series -> %s\n",
                   series.sample_count(), series.series_count(),
                   args.series_path.c_str());
    }
  }
  return rc;
}
