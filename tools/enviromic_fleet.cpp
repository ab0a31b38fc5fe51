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
#include <algorithm>
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

void usage() {
  std::puts(
      "usage: enviromic_fleet [options]\n"
      "  --scenario chaos|indoor|mobile|outdoor|selftest  (default chaos)\n"
      "  --seed <n>                base seed (default 7); world seeds are\n"
      "      derive_run_seed(base, i) like enviromic_cli --runs\n"
      "  --seeds <n>               worlds per parameter point (default 8)\n"
      "  --sweep name=v1,v2,...    sweep axis; repeat for a grid (cross\n"
      "      product, first axis slowest)\n"
      "  --set name=value          fixed parameter for every world; repeat\n"
      "  --faults k=v[,k=v...]     chaos fault spec (parse_fault_spec keys)\n"
      "  --horizon <seconds>       sugar for --set horizon=<s>\n"
      "  --beta <beta_max>         sugar for --set beta=<v>\n"
      "  --storage-policy migrate|coded   sugar for --set coded=0|1\n"
      "  --coded-k <k> --coded-n <n>      erasure geometry (3 of 5)\n"
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
      "parameters (--set, --sweep; chaos lists its --faults keys first):");
  for (const char* scenario : {"chaos", "indoor", "mobile", "outdoor"}) {
    std::string line = std::string(scenario) + ":";
    for (const auto& name : core::param_names(scenario)) {
      if (line.size() + 1 + name.size() > 72) {
        std::puts(line.c_str());
        line = " ";
      }
      line += " " + name;
    }
    std::puts(line.c_str());
  }
}

[[noreturn]] void die(const std::string& msg) {
  std::fprintf(stderr, "enviromic_fleet: %s\n", msg.c_str());
  std::exit(2);
}

std::uint64_t flag_u64(const char* flag, const char* value) {
  std::uint64_t v = 0;
  if (!util::parse_u64(value, &v)) {
    die(std::string("bad ") + flag + " '" + value +
        "': expected an unsigned integer");
  }
  return v;
}

int flag_int(const char* flag, const char* value) {
  int v = 0;
  if (!util::parse_int(value, &v)) {
    die(std::string("bad ") + flag + " '" + value + "': expected an integer");
  }
  return v;
}

double flag_double(const char* flag, const char* value) {
  double v = 0.0;
  if (!util::parse_double(value, &v)) {
    die(std::string("bad ") + flag + " '" + value + "': expected a number");
  }
  return v;
}

/// Split "name=v1,v2,..." into an axis with strictly parsed values.
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

void set_fixed(core::FleetSpec& spec, const std::string& name, double value) {
  spec.fixed.emplace_back(name, value);
}

}  // namespace

int main(int argc, char** argv) {
  core::FleetSpec spec;
  std::string out_path = "-";
  std::string csv_path;
  std::string resume_path;
  std::string series_out_path;
  bool have_geometry = false;

  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&](const char* what) -> const char* {
      if (i + 1 >= argc) die(std::string("missing value for ") + what);
      return argv[++i];
    };
    if (a == "--scenario") {
      spec.scenario = next("--scenario");
    } else if (a == "--seed") {
      spec.base_seed = flag_u64("--seed", next("--seed"));
    } else if (a == "--seeds") {
      spec.seeds_per_point = flag_int("--seeds", next("--seeds"));
      if (spec.seeds_per_point < 1) die("bad --seeds: need >= 1");
    } else if (a == "--sweep") {
      spec.sweep.push_back(parse_axis("--sweep", next("--sweep")));
    } else if (a == "--set") {
      const std::string kv = next("--set");
      const auto eq = kv.find('=');
      if (eq == std::string::npos || eq == 0) {
        die("bad --set '" + kv + "': expected name=value");
      }
      double v = 0.0;
      if (!util::parse_double(kv.c_str() + eq + 1, &v)) {
        die("bad --set '" + kv + "': expected a number after '='");
      }
      set_fixed(spec, kv.substr(0, eq), v);
    } else if (a == "--faults") {
      spec.faults_spec = next("--faults");
    } else if (a == "--horizon") {
      set_fixed(spec, "horizon", flag_double("--horizon", next("--horizon")));
    } else if (a == "--beta") {
      set_fixed(spec, "beta", flag_double("--beta", next("--beta")));
    } else if (a == "--storage-policy") {
      const std::string p = next("--storage-policy");
      if (p != "migrate" && p != "coded") {
        die("unknown storage policy '" + p + "'");
      }
      set_fixed(spec, "coded", p == "coded" ? 1.0 : 0.0);
    } else if (a == "--coded-k") {
      set_fixed(spec, "coded_k", flag_int("--coded-k", next("--coded-k")));
      have_geometry = true;
    } else if (a == "--coded-n") {
      set_fixed(spec, "coded_n", flag_int("--coded-n", next("--coded-n")));
      have_geometry = true;
    } else if (a == "-j" || a == "--jobs") {
      spec.jobs = flag_int("--jobs", next("--jobs"));
      if (spec.jobs < 1) die("bad --jobs: need >= 1");
    } else if (a == "--timeout-s") {
      spec.timeout_s = flag_double("--timeout-s", next("--timeout-s"));
      if (spec.timeout_s < 0.0) die("bad --timeout-s: need >= 0");
    } else if (a == "--retries") {
      spec.retries = flag_int("--retries", next("--retries"));
      if (spec.retries < 0) die("bad --retries: need >= 0");
    } else if (a == "--out") {
      out_path = next("--out");
    } else if (a == "--csv") {
      csv_path = next("--csv");
    } else if (a == "--resume") {
      resume_path = next("--resume");
    } else if (a == "--series-interval") {
      spec.series_interval_s =
          flag_double("--series-interval", next("--series-interval"));
      if (spec.series_interval_s <= 0.0) {
        die("bad --series-interval: need > 0");
      }
    } else if (a == "--series-dir") {
      spec.series_dir = next("--series-dir");
    } else if (a == "--series-out") {
      series_out_path = next("--series-out");
    } else if (a == "--help" || a == "-h") {
      usage();
      return 0;
    } else {
      std::fprintf(stderr, "unknown option %s\n", a.c_str());
      usage();
      return 2;
    }
  }

  // Geometry flags imply coded storage unless a policy was set;
  // validate_fleet_spec checks the geometry of every point.
  if (have_geometry &&
      std::none_of(spec.fixed.begin(), spec.fixed.end(),
                   [](const auto& p) { return p.first == "coded"; })) {
    set_fixed(spec, "coded", 1.0);
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
