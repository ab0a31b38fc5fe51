// enviromic_fleet — deterministic multi-process campaign runner.
//
//   enviromic_fleet --scenario chaos --seeds 16 -j 8
//       --faults crash=0.3,downtime=60 --set horizon=300 --out campaign.json
//   enviromic_fleet --scenario chaos --sweep crash=0.1,0.3,0.5 --seeds 8
//       --out campaign.json --csv campaign.csv
//   enviromic_fleet ... --resume campaign.json --out campaign.json
//
// Expands a campaign spec (scenario, parameter sweep axes, seed range,
// fault config) into the cross product of parameter points x seeds, forks
// one worker process per world up to -j concurrent, and merges the results
// into one deterministic report: byte-identical for the same spec whatever
// -j, the completion order, or worker retries, because rows are sorted by
// (parameter point, seed index) and never by arrival. A crashed or hung
// worker is a recorded row, not a harness death.
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/fleet.h"
#include "util/parse.h"

using namespace enviromic;

namespace {

/// Print the usage text on `out`: stdout for --help, stderr on a refusal.
void usage(std::FILE* out) {
  std::string scenarios;
  for (const auto& name : core::scenario_names()) scenarios += name + "|";
  const std::string text =
      "usage: enviromic_fleet [options]\n"
      "  --scenario " + scenarios + "selftest  (default chaos)\n"
      "  --seed <n>                base seed (default 7); world seeds are\n"
      "      derive_run_seed(base, i), each an enviromic_cli --seed world\n"
      "  --seeds <n>               worlds per parameter point (default 8)\n"
      "  --sweep name=v1,v2,...    sweep axis; repeat for a grid (cross\n"
      "      product, first axis slowest)\n"
      "  --set name=value          fixed parameter for every world; repeat\n"
      "  --faults k=v[,k=v...]     chaos fault spec (enviromic_cli --faults)\n"
      "  -j, --jobs <n>            concurrent worker processes (default 1)\n"
      "  --timeout-s <seconds>     per-attempt wall-clock budget (0 = none)\n"
      "  --retries <n>             extra attempts per failed world (default 1)\n"
      "  --out <path|->            write the merged JSON report (default -)\n"
      "  --csv <path>              also write the per-world CSV rows\n"
      "  --resume <path>           reuse ok rows from a previous JSON report\n"
      "  --series-interval <s>     sample telemetry every <s> simulated\n"
      "      seconds in every world (> 0; needs --series-dir)\n"
      "  --series-dir <dir>        per-world series files land here as\n"
      "      world_p<point>_s<seed_index>.csv (kept for --resume)\n"
      "  --series-out <path>       write the merged cross-seed percentile\n"
      "      bands (point,t_s,series,p10,p50,p90,n); default\n"
      "      <series-dir>/merged_bands.csv\n"
      "\n"
      "exit: 0 all worlds ok, 1 some world failed, 2 bad arguments\n"
      "\n"
      "Parameter flags, the same in enviromic_cli; each is a --set:\n" +
      core::param_flag_usage() +
      "\n"
      "parameters (--set, --sweep; chaos lists its --faults keys first):\n";
  std::fputs(text.c_str(), out);
  for (const auto& scenario : core::scenario_names()) {
    const auto names = core::param_names(scenario);
    std::string line = scenario + (names.empty() ? ": (none)" : ":");
    for (const auto& name : names) {
      if (line.size() + 1 + name.size() > 72) {
        std::fprintf(out, "%s\n", line.c_str());
        line = " ";
      }
      line += " " + name;
    }
    std::fprintf(out, "%s\n", line.c_str());
  }
}

[[noreturn]] void die(const std::string& msg) {
  std::fprintf(stderr, "enviromic_fleet: %s\n", msg.c_str());
  std::exit(2);
}

/// Split "name=v1,v2,..." (--sweep; --set takes one value) into an axis with
/// strictly parsed values.
core::FleetAxis parse_axis(const char* flag, const std::string& spec) {
  const auto eq = spec.find('=');
  if (eq == std::string::npos || eq == 0) {
    die(std::string("bad ") + flag + " '" + spec + "': expected name=v1,v2,...");
  }
  core::FleetAxis axis;
  axis.name = spec.substr(0, eq);
  std::size_t pos = eq + 1;
  while (pos <= spec.size()) {
    auto comma = spec.find(',', pos);
    if (comma == std::string::npos) comma = spec.size();
    const std::string tok = spec.substr(pos, comma - pos);
    double v = 0.0;
    if (!util::parse_double(tok.c_str(), &v)) {
      die(std::string("bad ") + flag + " value '" + tok + "' in '" + spec +
          "': expected a number");
    }
    axis.values.push_back(v);
    pos = comma + 1;
  }
  return axis;
}

}  // namespace

int main(int argc, char** argv) {
  core::FleetSpec spec;
  std::string out_path = "-";
  std::string csv_path;
  std::string resume_path;
  std::string series_out_path;

  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) die("missing value for " + a);
      return argv[++i];
    };
    auto number = [&](auto* out) {
      std::string err;
      if (!util::parse_flag_value(a.c_str(), next(), out, &err)) die(err);
    };
    if (a == "--scenario") {
      spec.scenario = next();
    } else if (const core::ParamFlag* pf = core::find_param_flag(a)) {
      std::string err;
      const char* text = *pf->value ? next() : nullptr;
      if (!core::add_param_flag(*pf, text, spec.fixed, err)) die(err);
    } else if (a == "--seed") {
      number(&spec.base_seed);
    } else if (a == "--seeds") {
      number(&spec.seeds_per_point);
      if (spec.seeds_per_point < 1) die("bad --seeds: need >= 1");
    } else if (a == "--sweep") {
      spec.sweep.push_back(parse_axis("--sweep", next()));
    } else if (a == "--set") {
      const core::FleetAxis set = parse_axis("--set", next());
      if (set.values.size() != 1) die("bad --set: expected name=value");
      spec.fixed.emplace_back(set.name, set.values.front());
    } else if (a == "--faults") {
      // Repeated specs apply in order, as one joined spec (as in the CLI).
      spec.faults_spec += std::string(",") + next();
    } else if (a == "-j" || a == "--jobs") {
      number(&spec.jobs);
      if (spec.jobs < 1) die("bad --jobs: need >= 1");
    } else if (a == "--timeout-s") {
      number(&spec.timeout_s);
      if (spec.timeout_s < 0.0) die("bad --timeout-s: need >= 0");
    } else if (a == "--retries") {
      number(&spec.retries);
      if (spec.retries < 0) die("bad --retries: need >= 0");
    } else if (a == "--out") {
      out_path = next();
    } else if (a == "--csv") {
      csv_path = next();
    } else if (a == "--resume") {
      resume_path = next();
    } else if (a == "--series-interval") {
      number(&spec.series_interval_s);
      if (spec.series_interval_s <= 0.0) {
        die("bad --series-interval: need > 0");
      }
    } else if (a == "--series-dir") {
      spec.series_dir = next();
    } else if (a == "--series-out") {
      series_out_path = next();
    } else if (a == "--help" || a == "-h") {
      usage(stdout);
      return 0;
    } else {
      std::fprintf(stderr, "unknown option %s\n", a.c_str());
      usage(stderr);
      return 2;
    }
  }

  std::string resume_report;
  if (!resume_path.empty()) {
    std::ifstream in(resume_path);
    if (!in) die("cannot read --resume " + resume_path);
    std::ostringstream buf;
    buf << in.rdbuf();
    resume_report = buf.str();
  }

  const auto result = core::run_fleet(spec, resume_report);
  if (!result.ok()) die(result.error);

  if (out_path == "-") {
    std::fwrite(result.report_json.data(), 1, result.report_json.size(),
                stdout);
  } else {
    std::ofstream out(out_path, std::ios::trunc);
    if (!out) die("cannot write --out " + out_path);
    out << result.report_json;
  }
  if (!csv_path.empty()) {
    std::ofstream out(csv_path, std::ios::trunc);
    if (!out) die("cannot write --csv " + csv_path);
    out << result.report_csv;
  }
  if (!result.series_report.empty()) {
    if (series_out_path.empty()) {
      series_out_path = spec.series_dir + "/merged_bands.csv";
    }
    std::ofstream out(series_out_path, std::ios::trunc);
    if (!out) die("cannot write --series-out " + series_out_path);
    out << result.series_report;
  }
  std::fprintf(stderr,
               "fleet: %d worlds (%d resumed), %d launched, %d retried, "
               "%d failed\n",
               result.worlds, result.resumed, result.launched, result.retried,
               result.failed);
  return result.failed == 0 ? 0 : 1;
}
