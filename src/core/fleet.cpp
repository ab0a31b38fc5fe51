#include "core/fleet.h"

#include <poll.h>
#include <signal.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <fstream>
#include <map>
#include <stdexcept>
#include <type_traits>

#include "sim/telemetry.h"
#include "util/csv.h"
#include "util/parse.h"

namespace enviromic::core {

namespace {

using Clock = std::chrono::steady_clock;

// --- Parameter application ---------------------------------------------------

std::string axis_value_str(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.12g", v);
  return buf;
}

bool selftest_param_known(const std::string& name) {
  return name == "crash" || name == "exit" || name == "hang_s" ||
         name == "hang_first_s" || name == "x" || name == "y";
}

/// The effective parameter list of one world: fixed overrides first, then
/// the point's axis values (axes win on name collision by coming later).
std::vector<std::pair<std::string, double>> world_params(
    const FleetSpec& spec, const FleetPoint& point) {
  auto params = spec.fixed;
  params.insert(params.end(), point.params.begin(), point.params.end());
  return params;
}

double param_or(const std::vector<std::pair<std::string, double>>& params,
                const std::string& name, double fallback) {
  double v = fallback;
  for (const auto& [k, val] : params) {
    if (k == name) v = val;  // last writer wins
  }
  return v;
}

/// Build one world's config from its scenario's defaults through
/// core::configure (the fault spec, then the fixed parameters, then the
/// point's axes, then the scenario's checks) and hand the table entry and
/// the config to `use`. False, with `error` naming the point, when the
/// point is refused. validate_fleet_spec runs this for every point before
/// any fork, and each worker again for its own world.
template <class Use>
bool configure_world(const FleetSpec& spec, const FleetPoint& point,
                     std::string& error, Use&& use) {
  bool ok = false;
  const bool known = with_scenario(spec.scenario, [&](const auto& scenario) {
    typename std::decay_t<decltype(scenario)>::Config cfg;
    ok = configure(cfg, spec.faults_spec, world_params(spec, point), error);
    if (ok) {
      use(scenario, cfg);
    } else if (!point.label.empty()) {
      error = point.label + ": " + error;
    }
  });
  if (!known) error = "unknown scenario '" + spec.scenario + "'";
  return ok;
}

// --- Worker wire protocol ----------------------------------------------------
//
// The child writes one line per metric, then a terminator, and exits 0:
//   m <name> <util::format_double literal>\n
//   ...
//   end ok\n
// Anything else — a missing terminator, a nonzero exit, a signal death, a
// SIGKILL from the timeout — marks the attempt failed.

void write_all(int fd, const std::string& s) {
  std::size_t off = 0;
  while (off < s.size()) {
    const ssize_t n = ::write(fd, s.data() + off, s.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    off += static_cast<std::size_t>(n);
  }
}

/// Parse the child's buffered output. Returns true when the terminator was
/// seen and every metric line was well formed.
bool parse_worker_output(
    const std::string& buf,
    std::vector<std::pair<std::string, std::string>>* metrics) {
  metrics->clear();
  std::size_t pos = 0;
  bool done = false;
  while (pos < buf.size()) {
    const std::size_t eol = buf.find('\n', pos);
    if (eol == std::string::npos) break;
    const std::string line = buf.substr(pos, eol - pos);
    pos = eol + 1;
    if (line == "end ok") {
      done = true;
      break;
    }
    if (line.rfind("m ", 0) != 0) return false;
    const std::size_t sp = line.find(' ', 2);
    if (sp == std::string::npos) return false;
    metrics->emplace_back(line.substr(2, sp - 2), line.substr(sp + 1));
  }
  return done;
}

// --- Report building ---------------------------------------------------------

void csv_field(std::string& out, const std::string& s) {
  out += util::csv_escape(s);
}

double percentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const auto n = sorted.size();
  auto idx = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(n)));
  if (idx > 0) --idx;  // nearest-rank, 1-based -> 0-based
  if (idx >= n) idx = n - 1;
  return sorted[idx];
}

/// Metric column order for the CSV and the aggregate blocks: the union of
/// the ok rows' names in first-seen order, each new name placed after the
/// name it follows in its row (a chaos record that drained grows a
/// retrieval block). Rows that share one layout keep it exactly.
std::vector<std::string> metric_names(const std::vector<FleetRow>& rows) {
  std::vector<std::string> names;
  for (const auto& row : rows) {
    if (row.status != "ok") continue;
    auto at = names.begin();  // insertion point: after the previous name
    for (const auto& [name, value] : row.metrics) {
      auto found = std::find(names.begin(), names.end(), name);
      if (found == names.end()) found = names.insert(at, name);
      at = found + 1;
    }
  }
  return names;
}

void build_report(const FleetSpec& spec,
                  const std::vector<FleetPoint>& points, FleetResult* out) {
  const auto names = metric_names(out->rows);

  // JSON. Rows are emitted one per line on purpose: the resume path parses
  // them back line by line.
  std::string& j = out->report_json;
  j.clear();
  j += "{\n";
  j += "  \"fleet\": \"enviromic_fleet\",\n";
  j += "  \"schema\": 1,\n";
  j += "  \"scenario\": \"" + spec.scenario + "\",\n";
  j += "  \"base_seed\": " + std::to_string(spec.base_seed) + ",\n";
  j += "  \"seeds_per_point\": " + std::to_string(spec.seeds_per_point) +
       ",\n";
  j += "  \"points\": " + std::to_string(points.size()) + ",\n";
  j += "  \"worlds\": " + std::to_string(out->worlds) + ",\n";
  j += "  \"ok\": " + std::to_string(out->worlds - out->failed) + ",\n";
  j += "  \"failed\": " + std::to_string(out->failed) + ",\n";
  j += "  \"rows\": [\n";
  for (std::size_t i = 0; i < out->rows.size(); ++i) {
    const auto& row = out->rows[i];
    j += "    {\"point\": \"" + row.point_label +
         "\", \"seed_index\": " + std::to_string(row.seed_index) +
         ", \"seed\": " + std::to_string(row.seed) + ", \"status\": \"" +
         row.status + "\", \"metrics\": {";
    for (std::size_t m = 0; m < row.metrics.size(); ++m) {
      if (m != 0) j += ", ";
      j += "\"" + row.metrics[m].first + "\": " + row.metrics[m].second;
    }
    j += "}}";
    if (i + 1 != out->rows.size()) j += ",";
    j += "\n";
  }
  j += "  ],\n";
  j += "  \"aggregates\": [\n";
  for (std::size_t pi = 0; pi < points.size(); ++pi) {
    // Values per metric over this point's ok rows, in seed order.
    std::map<std::string, std::vector<double>> values;
    int n_ok = 0;
    for (const auto& row : out->rows) {
      if (row.point != pi || row.status != "ok") continue;
      ++n_ok;
      for (const auto& [name, literal] : row.metrics) {
        values[name].push_back(std::strtod(literal.c_str(), nullptr));
      }
    }
    j += "    {\"point\": \"" + points[pi].label +
         "\", \"n_ok\": " + std::to_string(n_ok) + ", \"metrics\": {";
    bool first = true;
    for (const auto& name : names) {
      auto it = values.find(name);
      if (it == values.end()) continue;
      auto v = it->second;
      std::sort(v.begin(), v.end());
      double sum = 0.0;
      for (double x : v) sum += x;
      const double mean = v.empty() ? 0.0 : sum / static_cast<double>(v.size());
      if (!first) j += ", ";
      first = false;
      j += "\"" + name + "\": {\"mean\": " + util::format_double(mean) +
           ", \"min\": " + util::format_double(v.empty() ? 0.0 : v.front()) +
           ", \"max\": " + util::format_double(v.empty() ? 0.0 : v.back()) +
           ", \"p50\": " + util::format_double(percentile(v, 50.0)) +
           ", \"p90\": " + util::format_double(percentile(v, 90.0)) + "}";
    }
    j += "}}";
    if (pi + 1 != points.size()) j += ",";
    j += "\n";
  }
  j += "  ]\n";
  j += "}\n";

  // CSV: one row per world, aggregate-free (the JSON carries those).
  std::string& c = out->report_csv;
  c.clear();
  c += "point,seed_index,seed,status";
  for (const auto& name : names) c += "," + name;
  c += "\n";
  for (const auto& row : out->rows) {
    csv_field(c, row.point_label);
    c += "," + std::to_string(row.seed_index) + "," +
         std::to_string(row.seed) + "," + row.status;
    // Cells are written by name: a name missing from the row (every name
    // of a failed row) leaves its cell empty.
    for (const auto& name : names) {
      c += ",";
      const auto cell = std::find_if(
          row.metrics.begin(), row.metrics.end(),
          [&name](const auto& metric) { return metric.first == name; });
      if (cell != row.metrics.end()) c += cell->second;
    }
    c += "\n";
  }
}

// --- Resume: re-parse our own report rows ------------------------------------

bool extract_string(const std::string& line, const std::string& key,
                    std::string* out) {
  const std::string pat = "\"" + key + "\": \"";
  const auto at = line.find(pat);
  if (at == std::string::npos) return false;
  const auto start = at + pat.size();
  const auto end = line.find('"', start);
  if (end == std::string::npos) return false;
  *out = line.substr(start, end - start);
  return true;
}

bool extract_u64(const std::string& line, const std::string& key,
                 std::uint64_t* out) {
  const std::string pat = "\"" + key + "\": ";
  const auto at = line.find(pat);
  if (at == std::string::npos) return false;
  return std::sscanf(line.c_str() + at + pat.size(), "%llu",
                     reinterpret_cast<unsigned long long*>(out)) == 1;
}

/// Parse the ok rows of a previous report_json into (point label,
/// seed_index) -> metrics. Rigid by design: it only reads the format
/// build_report writes.
std::map<std::pair<std::string, std::uint64_t>, FleetRow> parse_resume_rows(
    const std::string& report, const std::string& scenario) {
  std::map<std::pair<std::string, std::uint64_t>, FleetRow> rows;
  std::string prev_scenario;
  if (!extract_string(report, "scenario", &prev_scenario) ||
      prev_scenario != scenario) {
    return rows;  // different campaign shape: nothing reusable
  }
  const auto rows_at = report.find("\"rows\": [");
  if (rows_at == std::string::npos) return rows;
  std::size_t pos = report.find('\n', rows_at);
  while (pos != std::string::npos) {
    const auto eol = report.find('\n', pos + 1);
    if (eol == std::string::npos) break;
    const std::string line = report.substr(pos + 1, eol - pos - 1);
    pos = eol;
    if (line.find("{\"point\"") == std::string::npos) break;  // "]," ends rows
    FleetRow row;
    std::string status;
    if (!extract_string(line, "point", &row.point_label) ||
        !extract_u64(line, "seed_index", &row.seed_index) ||
        !extract_u64(line, "seed", &row.seed) ||
        !extract_string(line, "status", &status) ||
        status != "ok") {
      continue;  // failed rows are re-run, malformed rows ignored
    }
    row.status = status;
    const std::string mpat = "\"metrics\": {";
    const auto mat = line.find(mpat);
    if (mat == std::string::npos) continue;
    const auto mend = line.rfind("}}");
    if (mend == std::string::npos || mend < mat) continue;
    std::string body = line.substr(mat + mpat.size(), mend - mat - mpat.size());
    std::size_t mp = 0;
    bool bad = false;
    while (mp < body.size()) {
      if (body[mp] != '"') { bad = true; break; }
      const auto q = body.find('"', mp + 1);
      if (q == std::string::npos || body.compare(q, 3, "\": ") != 0) {
        bad = true;
        break;
      }
      const std::string name = body.substr(mp + 1, q - mp - 1);
      const auto vstart = q + 3;
      auto vend = body.find(", \"", vstart);
      if (vend == std::string::npos) vend = body.size();
      row.metrics.emplace_back(name, body.substr(vstart, vend - vstart));
      mp = vend == body.size() ? vend : vend + 2;
    }
    if (!bad) rows.emplace(std::make_pair(row.point_label, row.seed_index),
                           std::move(row));
  }
  return rows;
}

// --- Telemetry series collection ---------------------------------------------

bool fleet_series_enabled(const FleetSpec& spec) {
  return spec.series_interval_s > 0.0 && !spec.series_dir.empty();
}

std::string series_world_path(const FleetSpec& spec, std::size_t point,
                              std::uint64_t seed_index) {
  return spec.series_dir + "/world_p" + std::to_string(point) + "_s" +
         std::to_string(seed_index) + ".csv";
}

/// One per-world series file, parsed back: the header cells and the raw
/// value literals per row (empty literal = gauge missing at that sample).
struct ParsedSeries {
  std::vector<std::string> header;  //!< header[0] == "t_s"
  std::vector<std::vector<std::string>> rows;
};

std::vector<std::string> split_csv_line(const std::string& line) {
  // Telemetry series cells are gauge names and number literals — never
  // quoted — so a plain comma split round-trips them exactly.
  std::vector<std::string> cells;
  std::size_t pos = 0;
  while (pos <= line.size()) {
    auto comma = line.find(',', pos);
    if (comma == std::string::npos) comma = line.size();
    cells.push_back(line.substr(pos, comma - pos));
    pos = comma + 1;
  }
  return cells;
}

bool load_series_file(const std::string& path, ParsedSeries* out) {
  std::ifstream in(path);
  if (!in) return false;
  std::string line;
  if (!std::getline(in, line)) return false;
  out->header = split_csv_line(line);
  if (out->header.empty() || out->header[0] != "t_s") return false;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    auto cells = split_csv_line(line);
    if (cells.size() != out->header.size()) return false;
    out->rows.push_back(std::move(cells));
  }
  return true;
}

/// Merge the per-world series files into cross-seed percentile bands:
/// one row per (point, sample, gauge) with nearest-rank p10/p50/p90 over
/// the seeds that recorded a value there. Deterministic by construction:
/// inputs are read in (point, seed index) order off the filesystem, so the
/// bytes never depend on jobs or completion order.
void build_series_report(const FleetSpec& spec,
                         const std::vector<FleetPoint>& points,
                         FleetResult* out) {
  if (!fleet_series_enabled(spec)) return;
  std::string& c = out->series_report;
  c = "point,t_s,series,p10,p50,p90,n\n";
  const auto seeds = static_cast<std::size_t>(spec.seeds_per_point);
  for (std::size_t pi = 0; pi < points.size(); ++pi) {
    std::vector<ParsedSeries> files;
    for (std::size_t si = 0; si < seeds; ++si) {
      const auto& row = out->rows[pi * seeds + si];
      if (row.status != "ok") continue;
      ParsedSeries ps;
      if (!load_series_file(series_world_path(spec, pi, si), &ps)) continue;
      // Every seed of a point runs the same cadence over the same node
      // count, so the headers must agree; drop a stray mismatch (e.g. a
      // stale file from an earlier spec) rather than mis-align columns.
      if (!files.empty() && ps.header != files.front().header) continue;
      files.push_back(std::move(ps));
    }
    if (files.empty()) continue;
    std::size_t nrows = files.front().rows.size();
    for (const auto& f : files) nrows = std::min(nrows, f.rows.size());
    const auto& header = files.front().header;
    for (std::size_t r = 0; r < nrows; ++r) {
      const std::string& t = files.front().rows[r][0];
      for (std::size_t col = 1; col < header.size(); ++col) {
        std::vector<double> v;
        for (const auto& f : files) {
          const std::string& cell = f.rows[r][col];
          if (!cell.empty()) v.push_back(std::strtod(cell.c_str(), nullptr));
        }
        std::sort(v.begin(), v.end());
        csv_field(c, points[pi].label);
        c += "," + t + "," + header[col] + "," +
             util::format_double(percentile(v, 10.0)) + "," +
             util::format_double(percentile(v, 50.0)) + "," +
             util::format_double(percentile(v, 90.0)) + "," +
             std::to_string(v.size()) + "\n";
      }
    }
  }
}

// --- The forked worker -------------------------------------------------------

[[noreturn]] void worker_child(const FleetSpec& spec, const FleetPoint& point,
                               std::uint64_t seed_index, std::uint64_t seed,
                               int attempt, int fd) {
  const FleetWorld world = run_fleet_world(spec, point, seed, attempt);
  if (fleet_series_enabled(spec)) {
    world.telemetry.export_csv(
        series_world_path(spec, point.index, seed_index));
  }
  std::string out;
  for (const auto& [name, value] : world.record) {
    out += "m " + name + " " + util::format_double(value) + "\n";
  }
  out += "end ok\n";
  write_all(fd, out);
  // _exit, not exit: the child must not run the parent's atexit chain or
  // flush its inherited stdio buffers twice.
  ::_exit(0);
}

struct Running {
  pid_t pid = -1;
  int fd = -1;
  std::size_t task = 0;
  int attempt = 0;
  std::string buf;
  Clock::time_point deadline;  //!< only meaningful when timed
  bool timed = false;
  bool killed = false;
};

}  // namespace

std::vector<FleetPoint> fleet_points(const FleetSpec& spec) {
  std::vector<FleetPoint> points;
  std::size_t total = 1;
  for (const auto& axis : spec.sweep) {
    total *= std::max<std::size_t>(axis.values.size(), 1);
  }
  for (std::size_t i = 0; i < total; ++i) {
    FleetPoint p;
    p.index = i;
    // Mixed-radix decomposition, first axis slowest.
    std::size_t rem = i, radix = total;
    for (const auto& axis : spec.sweep) {
      if (axis.values.empty()) continue;
      radix /= axis.values.size();
      const std::size_t vi = rem / radix;
      rem %= radix;
      p.params.emplace_back(axis.name, axis.values[vi]);
      if (!p.label.empty()) p.label += ",";
      p.label += axis.name + "=" + axis_value_str(axis.values[vi]);
    }
    points.push_back(std::move(p));
  }
  return points;
}

bool validate_fleet_spec(const FleetSpec& spec, std::string* error) {
  auto fail = [&](const std::string& msg) {
    if (error != nullptr) *error = msg;
    return false;
  };
  const bool selftest = spec.scenario == "selftest";
  if (spec.seeds_per_point < 1) return fail("seeds_per_point must be >= 1");
  if (spec.series_interval_s < 0.0) {
    return fail("series_interval_s must be > 0");
  }
  if ((spec.series_interval_s > 0.0) != !spec.series_dir.empty()) {
    return fail("series collection needs both series_interval_s and "
                "series_dir");
  }
  if (selftest && (spec.series_interval_s > 0.0 || !spec.faults_spec.empty()))
    return fail("series and fault specs need a simulated scenario");
  for (const auto& axis : spec.sweep) {
    if (axis.values.empty()) return fail("axis '" + axis.name + "' is empty");
  }
  // Every point is configured exactly as its workers will configure it, so
  // an unknown scenario, or a bad name, value or check anywhere in the grid,
  // stops the campaign before any fork.
  for (const auto& point : fleet_points(spec)) {
    if (selftest) {
      for (const auto& [name, value] : world_params(spec, point)) {
        if (!selftest_param_known(name))
          return fail("unknown selftest parameter '" + name + "'");
      }
      continue;
    }
    std::string err;
    if (!configure_world(spec, point, err, [](const auto&, auto&) {}))
      return fail(err);
  }
  return true;
}

FleetWorld run_fleet_world(const FleetSpec& spec, const FleetPoint& point,
                           std::uint64_t seed, int attempt) {
  if (spec.scenario == "selftest") {
    // The harness' own fault scenario: crash/hang/exit on demand so the
    // tests can drive the isolation, timeout, and retry paths without a
    // slow world.
    const auto params = world_params(spec, point);
    if (param_or(params, "crash", 0.0) != 0.0) std::abort();
    if (const double rc = param_or(params, "exit", 0.0); rc != 0.0) {
      ::_exit(static_cast<int>(rc));
    }
    double hang = param_or(params, "hang_s", 0.0);
    if (attempt == 0) hang = std::max(hang, param_or(params, "hang_first_s", 0.0));
    if (hang > 0.0) {
      ::usleep(static_cast<useconds_t>(hang * 1e6));
    }
    RunRecord rec;
    rec.emplace_back("value",
                     static_cast<double>(derive_run_seed(seed, 1) % 1000));
    rec.emplace_back("x", param_or(params, "x", 0.0));
    rec.emplace_back("y", param_or(params, "y", 0.0));
    return {rec, {}};
  }
  // Campaign worlds run headless: a per-world trace ring would only cost
  // time, and a failed invariant is already a first-class metric row.
  RunObservers obs;
  obs.flight_recorder = false;
  if (spec.series_interval_s > 0.0) {
    obs.series_interval = sim::Time::seconds(spec.series_interval_s);
  }
  FleetWorld world;
  std::string err;
  if (!configure_world(spec, point, err, [&](const auto& scenario, auto& cfg) {
        static_cast<RunObservers&>(cfg) = obs;
        cfg.seed = seed;
        auto res = scenario.run(cfg);
        world = {scenario.record(res), std::move(res.telemetry)};
      })) {
    throw std::invalid_argument("run_fleet_world: " + err);
  }
  return world;
}

FleetResult run_fleet(const FleetSpec& spec,
                      const std::string& resume_report) {
  FleetResult out;
  if (!validate_fleet_spec(spec, &out.error)) return out;
  if (fleet_series_enabled(spec) &&
      ::mkdir(spec.series_dir.c_str(), 0777) != 0 && errno != EEXIST) {
    out.error = "cannot create series_dir " + spec.series_dir;
    return out;
  }

  const auto points = fleet_points(spec);
  const int jobs = std::max(spec.jobs, 1);
  const auto seeds = static_cast<std::size_t>(spec.seeds_per_point);
  out.worlds = static_cast<int>(points.size() * seeds);
  out.rows.assign(static_cast<std::size_t>(out.worlds), FleetRow{});

  auto resumed =
      resume_report.empty()
          ? std::map<std::pair<std::string, std::uint64_t>, FleetRow>{}
          : parse_resume_rows(resume_report, spec.scenario);

  // Task t = point * seeds + seed_index; queue in task order (determinism
  // comes from the sort-merge, this just keeps launch order predictable).
  struct Pending {
    std::size_t task;
    int attempt;
  };
  std::deque<Pending> queue;
  for (std::size_t pi = 0; pi < points.size(); ++pi) {
    for (std::size_t si = 0; si < seeds; ++si) {
      const std::size_t t = pi * seeds + si;
      auto& row = out.rows[t];
      row.point = pi;
      row.point_label = points[pi].label;
      row.seed_index = si;
      row.seed = derive_run_seed(spec.base_seed, si);
      const auto prev = resumed.find({row.point_label, si});
      if (prev != resumed.end() && prev->second.seed == row.seed) {
        row.status = "ok";
        row.metrics = prev->second.metrics;
        ++out.resumed;
      } else {
        queue.push_back({t, 0});
      }
    }
  }

  std::vector<Running> running;
  auto spawn = [&](std::size_t task, int attempt) -> bool {
    int fds[2];
    if (::pipe(fds) != 0) return false;
    const std::size_t pi = task / seeds;
    const std::uint64_t si = task % seeds;
    const pid_t pid = ::fork();
    if (pid < 0) {
      ::close(fds[0]);
      ::close(fds[1]);
      return false;
    }
    if (pid == 0) {
      ::close(fds[0]);
      worker_child(spec, points[pi], si,
                   derive_run_seed(spec.base_seed, si), attempt, fds[1]);
    }
    ::close(fds[1]);
    Running r;
    r.pid = pid;
    r.fd = fds[0];
    r.task = task;
    r.attempt = attempt;
    if (spec.timeout_s > 0.0) {
      r.timed = true;
      r.deadline = Clock::now() + std::chrono::microseconds(static_cast<
          std::int64_t>(spec.timeout_s * 1e6));
    }
    running.push_back(r);
    ++out.launched;
    if (attempt > 0) ++out.retried;
    return true;
  };

  auto finalize = [&](Running& r) {
    ::close(r.fd);
    int status = 0;
    while (::waitpid(r.pid, &status, 0) < 0 && errno == EINTR) {
    }
    auto& row = out.rows[r.task];
    std::vector<std::pair<std::string, std::string>> metrics;
    const bool exited_clean = WIFEXITED(status) && WEXITSTATUS(status) == 0;
    if (exited_clean && parse_worker_output(r.buf, &metrics)) {
      row.status = "ok";
      row.metrics = std::move(metrics);
      return;
    }
    if (r.attempt < std::max(spec.retries, 0)) {
      queue.push_back({r.task, r.attempt + 1});
      return;
    }
    row.status = r.killed ? "timeout" : "crashed";
    row.metrics.clear();
    ++out.failed;
  };

  while (!queue.empty() || !running.empty()) {
    while (static_cast<int>(running.size()) < jobs && !queue.empty()) {
      const Pending p = queue.front();
      queue.pop_front();
      if (!spawn(p.task, p.attempt)) {
        // fork/pipe exhaustion: record the world failed rather than wedge.
        auto& row = out.rows[p.task];
        row.status = "crashed";
        ++out.failed;
      }
    }
    if (running.empty()) continue;

    int poll_ms = -1;
    const auto now = Clock::now();
    for (const auto& r : running) {
      if (!r.timed || r.killed) continue;
      const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                            r.deadline - now)
                            .count();
      const int ms = static_cast<int>(std::max<long long>(left, 0)) + 1;
      if (poll_ms < 0 || ms < poll_ms) poll_ms = ms;
    }
    std::vector<pollfd> fds;
    fds.reserve(running.size());
    for (const auto& r : running) {
      fds.push_back({r.fd, POLLIN, 0});
    }
    const int rc = ::poll(fds.data(), fds.size(), poll_ms);
    if (rc < 0 && errno != EINTR) break;

    // Reap deadline overruns: SIGKILL closes the pipe, so the EOF below
    // finalizes the attempt as killed.
    const auto after = Clock::now();
    for (auto& r : running) {
      if (r.timed && !r.killed && after >= r.deadline) {
        ::kill(r.pid, SIGKILL);
        r.killed = true;
      }
    }

    for (std::size_t i = running.size(); i-- > 0;) {
      if ((fds[i].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      char chunk[4096];
      const ssize_t n = ::read(running[i].fd, chunk, sizeof chunk);
      if (n > 0) {
        running[i].buf.append(chunk, static_cast<std::size_t>(n));
        continue;
      }
      if (n < 0 && (errno == EINTR || errno == EAGAIN)) continue;
      finalize(running[i]);
      running.erase(running.begin() + static_cast<std::ptrdiff_t>(i));
    }
  }

  build_report(spec, points, &out);
  build_series_report(spec, points, &out);
  return out;
}

}  // namespace enviromic::core
