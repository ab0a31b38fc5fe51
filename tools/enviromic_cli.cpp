// enviromic_cli — run any of the paper's scenarios from the command line.
//
//   enviromic_cli --scenario indoor --mode full --beta 2 --horizon 1200
//   enviromic_cli --scenario mobile --trc 0.5 --dta 30
//   enviromic_cli --scenario outdoor --seed 9 --csv
//   enviromic_cli --scenario voice
//   enviromic_cli --scenario chaos --faults crash=0.3,downtime=60
//
// Runs one world and prints the scenario's headline metrics; --csv emits
// the time series for plotting, --contours renders the spatial storage
// distribution. A seed range is a campaign: enviromic_fleet --seeds.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "enviromic.h"
#include "util/parse.h"

using namespace enviromic;

namespace {

struct Args {
  std::string scenario = "indoor";
  std::uint64_t seed = 7;
  bool csv = false;
  bool contours = false;
  core::ParamValues settings;     //!< parameter flags, in command-line order
  std::string faults;             //!< every --faults spec, comma-joined
  std::string drain_resource = "/chunks/all";  //!< as given, for the summary
  core::ResourceSelector drain_selector = core::ResourceSelector::all();
  std::string trace_path;
  std::string series_path;
  double series_interval_s = 0.0;
  std::vector<core::HealthProbe> probes;
  bool profile = false;
  std::string json_path;
  std::vector<std::string> given;  //!< every flag on the command line
};

/// The flags only some scenarios read that set no scenario parameter, and
/// the scenarios that read them; a parameter flag is read by the scenarios
/// that declare its parameter (core::scenarios_declaring). Every scenario
/// reads --scenario, --seed, --json and the observer flags (--trace,
/// --series, --series-interval, --probe, --profile).
struct ScopedFlag {
  const char* flag;
  std::vector<std::string> scenarios;
};
const ScopedFlag kScopedFlags[] = {
    {"--csv", {"indoor", "outdoor"}},
    {"--contours", {"indoor"}},
    {"--faults", {"chaos"}},
    {"--drain-resource", {"chaos"}},
};

/// Print a diagnostic and exit 2, the bad-argument status.
[[noreturn]] void die(const std::string& msg) {
  std::fprintf(stderr, "%s\n", msg.c_str());
  std::exit(2);
}

/// `lead` followed by `items`, space-separated and wrapped at 72 columns
/// under the lead's width; no final newline.
std::string wrapped(const std::string& lead,
                    const std::vector<std::string>& items) {
  std::string text;
  std::string line = lead;
  for (const auto& item : items) {
    if (line.size() + 1 + item.size() > 72) {
      text += line + "\n";
      line = std::string(lead.size(), ' ');
    }
    line += " " + item;
  }
  return text + line;
}

/// Print the usage text on `out`: stdout for --help, stderr on a refusal,
/// so a `--json -` reader never gets it mixed into its records.
void usage(std::FILE* out) {
  std::string scenarios;
  for (const auto& name : core::scenario_names())
    scenarios += (scenarios.empty() ? "" : "|") + name;
  const std::string keys = wrapped("      keys:", core::fault_keys());
  std::vector<std::string> probes;
  for (const auto& kind : core::kHealthProbes) probes.push_back(kind.name);
  const std::string text =
      "usage: enviromic_cli [options]\n"
      "  --scenario " + scenarios + " (default indoor, or\n"
      "      chaos when --faults is given)\n"
      "Every scenario reads --scenario, --seed, --json, --trace, --series,\n"
      "--series-interval, --probe and --profile. A [bracket] names the\n"
      "scenarios that read a flag; any other scenario exits 2 on it.\n"
      "  --seed <n>                      the world's seed (default 7; a\n"
      "      seed range is a campaign: enviromic_fleet --seeds)\n"
      "  --csv                           [indoor outdoor] CSV time series\n"
      "  --json <path|->                          append the run's JSON\n"
      "      record ({\"scenario\",\"seed\",\"metrics\"}; - = stdout)\n"
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
      "      repeatable; a trip dumps the flight-recorder tail and exits 1.\n" +
      wrapped("      names:", probes) + "\n"
      "  --profile                                print the run loop's host\n"
      "      time per component after the summary (fires, self ms, %);\n"
      "      never in --json, whose records stay byte-comparable\n"
      "  --faults k=v[,k=v...]           [chaos] fault plan; implies chaos\n" +
      keys + "   (without it: crash=0.3,downtime=60,burst=1)\n"
      "  --drain-resource <path>         [chaos] what the sinks ask for:\n"
      "      /chunks/all | /chunks/time/<from>-<to> | /chunks/source/<id>\n"
      "      (time bounds in seconds, at most 1e9); needs --drain-sinks\n"
      "Parameter flags, the same in enviromic_fleet (here the horizon\n"
      "defaults to 4400 s in every scenario):\n" +
      core::param_flag_usage();
  std::fputs(text.c_str(), out);
}

bool parse(int argc, char** argv, Args& args) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    args.given.push_back(a);
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) die("missing value for " + a);
      return argv[++i];
    };
    auto number = [&](auto* out) {
      std::string err;
      if (!util::parse_flag_value(a.c_str(), next(), out, &err)) die(err);
    };
    if (a == "--scenario") {
      args.scenario = next();
    } else if (const core::ParamFlag* pf = core::find_param_flag(a)) {
      std::string err;
      const char* text = *pf->value ? next() : nullptr;
      if (!core::add_param_flag(*pf, text, args.settings, err)) die(err);
    } else if (a == "--seed") {
      number(&args.seed);
    } else if (a == "--faults") {
      // Repeated specs apply in order, as one joined spec.
      args.faults += std::string(",") + next();
    } else if (a == "--drain-resource") {
      args.drain_resource = next();
      const auto sel = core::parse_resource(args.drain_resource);
      if (!sel) {
        std::fprintf(stderr,
                     "bad --drain-resource '%s': expected /chunks/all, "
                     "/chunks/time/<from>-<to> (seconds, at most 1e9), or "
                     "/chunks/source/<id>\n",
                     args.drain_resource.c_str());
        return false;
      }
      args.drain_selector = *sel;
    } else if (a == "--trace") {
      args.trace_path = next();
    } else if (a == "--json") {
      args.json_path = next();
    } else if (a == "--series") {
      args.series_path = next();
    } else if (a == "--series-interval") {
      number(&args.series_interval_s);
      if (args.series_interval_s <= 0.0) {
        std::fprintf(stderr, "bad --series-interval %g (need > 0)\n",
                     args.series_interval_s);
        return false;
      }
    } else if (a == "--probe") {
      core::HealthProbe p;
      std::string err;
      if (!core::parse_health_probe(next(), &p, &err)) {
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
      usage(stdout);
      std::exit(0);
    } else {
      std::fprintf(stderr, "unknown option %s\n", a.c_str());
      return false;
    }
  }
  // Every flag must be one its scenario reads.
  auto given = [&args](const char* flag) {
    return std::count(args.given.begin(), args.given.end(), flag) > 0;
  };
  if (given("--faults") && !given("--scenario")) args.scenario = "chaos";
  if (!core::with_scenario(args.scenario, [](const auto&) {})) {
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
  for (const auto& flag : args.given) {
    const core::ParamFlag* pf = core::find_param_flag(flag);
    if (pf && !read_by(pf->flag, core::scenarios_declaring(pf->name)))
      return false;
  }
  return true;
}

/// Append the run's machine-readable record to --json PATH ("-" = stdout).
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

/// The scenario's default world with the observers and the seed, through
/// core::configure with the CLI's defaults before the settings: a 4400 s
/// horizon and, without --faults, the storm crash=0.3,downtime=60,burst=1,
/// where the scenario declares them. A refusal exits 2 before any run.
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
  if constexpr (requires { cfg.drain_resource; }) {
    cfg.drain_resource = args.drain_selector;
  }
  core::ParamValues defaults = {{"horizon", 4400.0}};
  if (args.faults.empty())
    defaults.insert(defaults.end(),
                    {{"crash", 0.3}, {"downtime", 60.0}, {"burst", 1.0}});
  const auto declared = core::param_names(args.scenario);
  core::ParamValues values;
  for (const auto& d : defaults)
    if (std::count(declared.begin(), declared.end(), d.first))
      values.push_back(d);
  values.insert(values.end(), args.settings.begin(), args.settings.end());
  std::string err;
  if (!core::configure(cfg, args.faults, values, err)) {
    std::fprintf(stderr, "%s\n", err.c_str());
    usage(stderr);
    std::exit(2);
  }
  // The selector is read only by a drain, and a world without sinks runs
  // none: refuse the flag like any other flag the run does not read.
  if constexpr (requires { cfg.drain_sinks; }) {
    if (cfg.drain_sinks == 0 && std::count(args.given.begin(), args.given.end(),
                                           "--drain-resource")) {
      std::fprintf(stderr,
                   "--drain-resource is not read without a drain "
                   "(set --drain-sinks 1..4)\n");
      usage(stderr);
      std::exit(2);
    }
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

// --- Scenario summaries: what a scenario prints after its run ----------------
// One overload per scenario; each returns false when the run failed its own
// end-state check.

bool summarize(const Args& args, const core::IndoorRunConfig& cfg,
               const core::IndoorRunResult& res) {
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
  return true;
}

bool summarize(const Args&, const core::MobileRunConfig& cfg,
               const core::MobileRunResult& res) {
  std::printf("mobile[Trc=%.1fs Dta=%dms] miss=%.3f\n",
              cfg.task_period.to_seconds(),
              static_cast<int>(cfg.task_assign_delay.to_millis()),
              res.miss_ratio);
  return true;
}

bool summarize(const Args& args, const core::OutdoorRunConfig&,
               const core::OutdoorRunResult& res) {
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
  return true;
}

bool summarize(const Args&, const core::VoiceRunConfig&,
               const core::VoiceRunResult& res) {
  std::printf("voice coverage=%.1f%% envelope_correlation=%.3f\n",
              res.stitched_coverage * 100.0, res.envelope_correlation);
  return true;
}

bool summarize(const Args& args, const core::ChaosRunConfig& cfg,
               const core::ChaosRunResult& res) {
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
        args.drain_resource.c_str(), res.retrieval_sinks, cfg.drain_hops,
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
  std::printf("  invariants:");
  for (const auto& v : res.verdicts()) std::printf(" %s=%d", v.name, v.held);
  std::printf(" => %s\n", res.invariants_hold() ? "OK" : "VIOLATED");
  return res.invariants_hold();
}

/// Run the scenario on --seed and append its --json record; then print the
/// summary and every health trip. `run` receives the run's telemetry, trace
/// and profile. 0 when the record was written and the run tripped and
/// failed nothing.
template <class Config, class Result>
int run_scenario(const Args& args,
                 const core::Scenario<Config, Result>& scenario,
                 core::RunOutputs& run) {
  const Config cfg = configured<Config>(args);
  Result res = scenario.run(cfg);
  bool ok = emit_json_record(args, scenario.name, cfg.seed,
                             scenario.record(res));
  ok = summarize(args, cfg, res) && ok;
  ok = report_trips(res.health_trips) && ok;
  run = std::move(res);
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse(argc, argv, args)) {
    usage(stderr);
    return 2;
  }
  auto ends_with_jsonl = [](const std::string& p) {
    return p.size() >= 6 && p.compare(p.size() - 6, 6, ".jsonl") == 0;
  };
  core::RunOutputs run;
  int rc = 0;
  core::with_scenario(args.scenario, [&](const auto& scenario) {
    rc = run_scenario(args, scenario, run);
  });
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
