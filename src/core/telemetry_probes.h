// Standard telemetry probes over a World, plus declarative health probes.
//
// TelemetryProbes registers the stack's standard series in a run's
// sim::Telemetry recorder and samples them from the shared run loop's
// cadence (core/experiment.cpp): flash fill and wear spread
// (storage::Flash), battery joules and radio duty cycle
// (energy::EnergyModel, read through the non-mutating *_at(now)
// projections so the drain's float-add order matches a dark run),
// in-flight transfer fragments and window stalls (core::BulkTransfer),
// group size and leader churn (core::GroupManager), retrieval backlog and
// collected chunks (core::RetrievalService), and the channel busy fraction
// (net::ChannelStats::busy_ticks). Sampling only reads const state — no
// RNG, no scheduling — so telemetry-on runs stay bit-identical to dark
// runs (asserted in test_determinism).
//
// Health probes turn a silent degradation into a pointed failure: each is a
// (gauge, threshold, direction) triple evaluated at sample time against the
// latest recorded value; a trip makes the run loop dump the flight-recorder
// tail together with the offending gauge's recent window.
#pragma once

#include <string>
#include <vector>

#include "sim/telemetry.h"
#include "sim/time.h"

namespace enviromic::core {

class World;

class TelemetryProbes {
 public:
  struct Options {
    /// Also sample the end-to-end miss ratio. Off by default: it costs a
    /// full Metrics snapshot (attribution walk over every store) per
    /// sample, so only a miss_ratio health probe arms it.
    bool miss_ratio = false;
  };

  /// Registers the standard series in `tel`.
  void bind(sim::Telemetry& tel, const Options& opts);

  /// Opens a sample row at `now` in the recorder bound above and records
  /// every standard series.
  void sample(sim::Telemetry& tel, World& world, sim::Time now);

 private:
  bool miss_ratio_ = false;
  sim::SeriesId flash_used_ = sim::kInvalidSeries;
  sim::SeriesId wear_min_ = sim::kInvalidSeries;
  sim::SeriesId wear_max_ = sim::kInvalidSeries;
  sim::SeriesId wear_spread_ = sim::kInvalidSeries;
  sim::SeriesId battery_min_ = sim::kInvalidSeries;
  sim::SeriesId battery_total_ = sim::kInvalidSeries;
  sim::SeriesId node_battery_ = sim::kInvalidSeries;
  sim::SeriesId duty_cycle_ = sim::kInvalidSeries;
  sim::SeriesId frags_in_flight_ = sim::kInvalidSeries;
  sim::SeriesId window_stalls_ = sim::kInvalidSeries;
  sim::SeriesId group_members_ = sim::kInvalidSeries;
  sim::SeriesId group_leaders_ = sim::kInvalidSeries;
  sim::SeriesId leader_churn_ = sim::kInvalidSeries;
  sim::SeriesId retrieval_backlog_ = sim::kInvalidSeries;
  sim::SeriesId retrieval_collected_ = sim::kInvalidSeries;
  sim::SeriesId channel_busy_ = sim::kInvalidSeries;
  sim::SeriesId miss_gauge_ = sim::kInvalidSeries;
};

/// One declarative health probe: trip when the gauge's latest sample
/// crosses the threshold (above it for a ceiling, below it for a floor).
struct HealthProbe {
  std::string name;    //!< the probe spec name ("wear_spread_max", ...)
  std::string gauge;   //!< registered telemetry series it watches
  double threshold = 0.0;
  bool is_floor = false;
};

struct HealthTrip {
  std::string probe;
  std::string gauge;
  double value = 0.0;
  double threshold = 0.0;
  sim::Time at;
};

/// A health probe a spec can name: the telemetry gauge it watches, and
/// whether its threshold is a floor rather than a ceiling.
struct HealthProbeKind {
  const char* name;
  const char* gauge;
  bool is_floor;
};

/// Every health probe, in the order the diagnostics and --help list them.
inline constexpr HealthProbeKind kHealthProbes[] = {
    {"wear_spread_max", "flash_wear_spread", false},
    {"miss_ratio_max", "miss_ratio", false},
    {"battery_floor", "battery_min_j", true},
    {"window_stalls_max", "transfer_window_stalls", false},
    {"channel_busy_max", "channel_busy_fraction", false},
};

/// Parse "name=value" into a HealthProbe whose name is in kHealthProbes.
/// Returns false with a diagnostic in `err` on an unknown name or a
/// malformed value.
bool parse_health_probe(const std::string& spec, HealthProbe* out,
                        std::string* err);

/// Evaluate every probe against the latest sample in `tel`. A gauge with
/// no recorded value never trips.
std::vector<HealthTrip> evaluate_health_probes(
    const sim::Telemetry& tel, const std::vector<HealthProbe>& probes,
    sim::Time now);

}  // namespace enviromic::core
