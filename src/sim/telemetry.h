// Deterministic simulated-time telemetry recorder.
//
// A registry of named series (gauges and counters, global or per-node)
// sampled on a fixed simulated-time cadence into columns: one growable
// value column per (series, node) plus a shared timestamp column. Unlike
// the sim::Trace ring it never wraps — a series is the whole trajectory of
// a run, which is exactly what the paper's storage-fill / wear / energy /
// miss-ratio curves need.
//
// A recorder is a plain value owned by one run: the shared run loop
// (core/experiment.cpp) creates it, samples the standard probes into it,
// evaluates health probes against it and returns it in
// RunOutputs::telemetry, so a series covers exactly one run. Sampling reads
// const state only and steps run_until on the cadence — it never schedules
// events or draws from any RNG — so a sampled run is bit-identical to a
// dark one on the same seed (asserted in test_determinism).
#pragma once

#include <cstdint>
#include <cstddef>
#include <functional>
#include <ostream>
#include <string>
#include <unordered_map>
#include <vector>

#include "sim/time.h"

namespace enviromic::sim {

/// Series taxonomy. A gauge is an instantaneous level (free bytes, joules);
/// a counter is a cumulative, monotone total (leader elections, stalls).
/// The kind is schema metadata carried into the JSONL export — the recorder
/// stores both identically.
enum class SeriesKind : std::uint8_t { kGauge = 0, kCounter = 1 };

/// Column fan-out: one column for the whole world, or one per node id.
enum class SeriesScope : std::uint8_t { kGlobal = 0, kPerNode = 1 };

using SeriesId = std::uint32_t;
inline constexpr SeriesId kInvalidSeries = 0xffffffffu;

class Telemetry {
 public:
  /// Registers a named series; re-registering an existing name returns the
  /// existing id.
  SeriesId register_series(const std::string& name, SeriesKind kind,
                           SeriesScope scope, const std::string& unit = "");
  /// kInvalidSeries when no series has this name.
  SeriesId find(const std::string& name) const;
  std::size_t series_count() const { return series_.size(); }

  /// Opens sample row at simulated time `t`; subsequent record() calls fill
  /// it. Rows are append-only and timestamps must be non-decreasing.
  void begin_sample(Time t);
  /// Records a value into the current sample row. `node` must be 0 for
  /// global series; per-node series lazily grow one column per node id.
  void record(SeriesId id, std::uint32_t node, double value);

  std::size_t sample_count() const { return times_.size(); }
  const std::vector<Time>& times() const { return times_; }

  /// Latest recorded value of a column (NaN when the column is missing or
  /// has no value yet). Health probes evaluate against this.
  double latest(SeriesId id, std::uint32_t node = 0) const;

  /// The last up-to-`n` (time, value) points of a column, oldest first —
  /// the "offending gauge window" a tripped health probe dumps.
  std::vector<std::pair<Time, double>> window(SeriesId id, std::uint32_t node,
                                              std::size_t n) const;

  /// Column display names in export order: registration order, node
  /// ascending within a per-node series ("name" or "name[node]").
  std::vector<std::string> column_names() const;

  /// One recorded value (a non-empty export cell).
  struct Cell {
    const std::string& series;
    SeriesScope scope;
    std::uint32_t node;  //!< 0 for global series
    Time t;
    double value;
  };
  /// Visits every recorded cell, row by row, columns in export order — the
  /// counter events of the Chrome-trace export.
  void for_each_cell(const std::function<void(const Cell&)>& fn) const;

  // Exporters. Cells a column never recorded render empty (CSV) or are
  // omitted (JSONL). Both return false (writing nothing further) on I/O
  // error. Values print as util::format_double literals so exported series
  // are byte-stable inputs to the fleet band merge.
  bool export_csv(const std::string& path) const;
  bool export_jsonl(const std::string& path) const;
  void export_csv(std::ostream& out) const;
  void export_jsonl(std::ostream& out) const;

 private:
  struct Series {
    std::string name;
    std::string unit;
    SeriesKind kind;
    SeriesScope scope;
  };
  struct Column {
    SeriesId series = kInvalidSeries;
    std::uint32_t node = 0;
    std::vector<double> values;  //!< values[i] pairs with times_[i]; NaN = missing
  };

  static std::uint64_t column_key(SeriesId id, std::uint32_t node) {
    return (static_cast<std::uint64_t>(id) << 32) | node;
  }
  Column* column_for(SeriesId id, std::uint32_t node);  //!< creates lazily
  const Column* find_column(SeriesId id, std::uint32_t node) const;
  /// Column indices in export order (series asc, node asc).
  std::vector<std::size_t> ordered_columns() const;
  std::string column_name(const Column& c) const;

  std::vector<Series> series_;
  std::vector<Column> columns_;
  /// (series, node) -> columns_ index. record() runs once per column per
  /// sample, so the lookup must not scan columns_ (per-node series put
  /// hundreds of columns in a 200-node world).
  std::unordered_map<std::uint64_t, std::size_t> column_index_;
  std::vector<Time> times_;
};

}  // namespace enviromic::sim
