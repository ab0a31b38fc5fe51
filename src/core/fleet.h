// Multi-process fleet runner for seeded campaign sweeps.
//
// EnviroMic's evaluation is parameter sweeps over many independent seeded
// worlds (miss ratio vs D_ta, survival vs crash rate, storage contours), and
// the ROADMAP's "millions of users" shape is many deployments, not one giant
// one. The fleet runner saturates the machine with one *process* per world:
// a campaign spec (scenario, parameter grid, seed range, fault config) is
// expanded into the cross product of parameter points x seeds, each world is
// forked as its own worker up to `jobs` concurrent processes, and the
// workers stream flat metric records back over pipes. Process isolation
// means a worker crash (or a hung chaos world killed by the per-attempt
// timeout) is a recorded row, never a harness death; each failure is retried
// `retries` times before being recorded.
//
// Determinism by sorting: the merged report is assembled from rows ordered
// by (parameter point, seed index) — never by arrival — and every number is
// printed through util::format_double, so the report bytes are identical
// regardless of `jobs`, completion order, or whether a worker needed a
// retry. Resume parses a previous report's ok rows and skips those worlds,
// producing the same bytes a fresh full run would.
//
// Per-world seeds come from core::derive_run_seed(base_seed, seed_index);
// a seed range is the fleet's job, and each row's seed is one an
// `enviromic_cli --seed` run reproduces with the same settings.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/experiment.h"

namespace enviromic::core {

/// One sweep axis: the campaign runs the cross product of all axes.
struct FleetAxis {
  std::string name;
  std::vector<double> values;
};

struct FleetSpec {
  /// A core::kScenarios name (chaos | indoor | mobile | outdoor | voice) or
  /// selftest, the harness' own fault-injection scenario: worlds that crash,
  /// hang, or exit on demand, used by the tests and nothing else.
  std::string scenario = "chaos";
  std::uint64_t base_seed = 7;
  int seeds_per_point = 8;  //!< worlds per parameter point
  std::vector<FleetAxis> sweep;  //!< empty -> a single parameter point
  /// Fixed parameter overrides applied to every world before the axis
  /// values (an axis with the same name wins). Axes and fixed values name
  /// the scenario's parameters (core::param_names).
  std::vector<std::pair<std::string, double>> fixed;
  /// Chaos only: a core::configure fault spec, applied before the params.
  std::string faults_spec;
  int jobs = 1;           //!< concurrent worker processes (clamped to >= 1)
  double timeout_s = 0.0; //!< per-attempt wall-clock budget; 0 = none
  int retries = 1;        //!< extra attempts after a crash/timeout
  /// Telemetry series collection (every scenario but selftest). When
  /// series_interval_s > 0 each worker samples the standard probes on this
  /// cadence and writes its series to
  /// <series_dir>/world_p<point>_s<seed_index>.csv; the parent merges them
  /// into FleetResult::series_report (cross-seed p10/p50/p90
  /// bands per sample per gauge). Both fields must be set together. The
  /// per-world files persist, so --resume reuses them; the merged report is
  /// byte-identical whatever `jobs` or the completion order, because the
  /// merge reads files keyed by (point, seed index), never by arrival.
  double series_interval_s = 0.0;
  std::string series_dir;
};

/// One expanded parameter point of the sweep grid.
struct FleetPoint {
  std::size_t index = 0;
  std::string label;  //!< canonical "name=value,name=value" ("" = no sweep)
  std::vector<std::pair<std::string, double>> params;
};

/// One world's outcome. Metric values are kept as the literal strings the
/// worker printed (util::format_double output) so re-emitting them —
/// directly or through a resume round trip — is byte-stable.
struct FleetRow {
  std::size_t point = 0;
  std::string point_label;
  std::uint64_t seed_index = 0;
  std::uint64_t seed = 0;
  std::string status;  //!< "ok" | "crashed" | "timeout"
  std::vector<std::pair<std::string, std::string>> metrics;
};

struct FleetResult {
  std::vector<FleetRow> rows;  //!< sorted by (point, seed_index)
  int worlds = 0;
  int launched = 0;  //!< workers actually forked (excludes resumed rows)
  int retried = 0;   //!< attempts beyond each world's first
  int failed = 0;    //!< rows whose final status is not "ok"
  int resumed = 0;   //!< rows reused from the resume report
  std::string report_json;  //!< deterministic merged campaign report
  std::string report_csv;   //!< per-world rows, same ordering rule
  /// Merged telemetry percentile bands (spec.series_interval_s > 0):
  /// "point,t_s,series,p10,p50,p90,n" rows ordered by (point, sample,
  /// gauge column). Empty when series collection is off.
  std::string series_report;
  std::string error;        //!< non-empty when the spec was rejected
  bool ok() const { return error.empty(); }
};

/// Expand the sweep axes into the cross product of parameter points (first
/// axis slowest). An empty sweep yields one unlabeled point.
std::vector<FleetPoint> fleet_points(const FleetSpec& spec);

/// Configure every parameter point as its workers will (core::configure:
/// fault spec, fixed, axes, then the scenario's checks), without running
/// anything. Returns false and fills `error` on a bad spec.
bool validate_fleet_spec(const FleetSpec& spec, std::string* error);

/// What one campaign world hands back to its worker.
struct FleetWorld {
  RunRecord record;          //!< the flat metric record
  sim::Telemetry telemetry;  //!< the world's series (spec.series_interval_s)
};

/// The worker entry point: run one world of the campaign in the calling
/// process and return its metric record and series. The campaign runner
/// calls this from the forked child. `attempt` is the retry ordinal (0 =
/// first try) — the selftest scenario's hang_first_s fault keys off it.
FleetWorld run_fleet_world(const FleetSpec& spec, const FleetPoint& point,
                           std::uint64_t seed, int attempt);

/// Run the whole campaign. `resume_report` is a previously produced
/// report_json whose ok rows are reused instead of re-run (pass "" for a
/// fresh run). Never throws on worker failure — failed worlds become rows.
FleetResult run_fleet(const FleetSpec& spec,
                      const std::string& resume_report = std::string());

}  // namespace enviromic::core
