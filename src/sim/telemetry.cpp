#include "sim/telemetry.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <limits>

#include "util/csv.h"
#include "util/parse.h"

namespace enviromic::sim {

namespace {

constexpr double kMissing = std::numeric_limits<double>::quiet_NaN();

const char* kind_name(SeriesKind k) {
  return k == SeriesKind::kCounter ? "counter" : "gauge";
}

}  // namespace

SeriesId Telemetry::register_series(const std::string& name, SeriesKind kind,
                                    SeriesScope scope,
                                    const std::string& unit) {
  const SeriesId existing = find(name);
  if (existing != kInvalidSeries) return existing;
  series_.push_back(Series{name, unit, kind, scope});
  const auto id = static_cast<SeriesId>(series_.size() - 1);
  if (scope == SeriesScope::kGlobal) {
    // Global series get their one column eagerly so it exists (and exports)
    // even if the run never records into it.
    column_index_.emplace(column_key(id, 0), columns_.size());
    columns_.push_back(Column{id, 0, {}});
  }
  return id;
}

SeriesId Telemetry::find(const std::string& name) const {
  for (std::size_t i = 0; i < series_.size(); ++i) {
    if (series_[i].name == name) return static_cast<SeriesId>(i);
  }
  return kInvalidSeries;
}

void Telemetry::begin_sample(Time t) {
  if (!times_.empty() && t < times_.back()) return;  // never rewind
  times_.push_back(t);
}

Telemetry::Column* Telemetry::column_for(SeriesId id, std::uint32_t node) {
  const auto [it, inserted] =
      column_index_.try_emplace(column_key(id, node), columns_.size());
  if (inserted) columns_.push_back(Column{id, node, {}});
  return &columns_[it->second];
}

const Telemetry::Column* Telemetry::find_column(SeriesId id,
                                                std::uint32_t node) const {
  const auto it = column_index_.find(column_key(id, node));
  return it == column_index_.end() ? nullptr : &columns_[it->second];
}

void Telemetry::record(SeriesId id, std::uint32_t node, double value) {
  if (id >= series_.size() || times_.empty()) return;
  if (series_[id].scope == SeriesScope::kGlobal) node = 0;
  Column* c = column_for(id, node);
  // Pad rows this column skipped, then land the value in the current row
  // (last write wins within one sample).
  const std::size_t row = times_.size() - 1;
  while (c->values.size() < row) c->values.push_back(kMissing);
  if (c->values.size() == row) {
    c->values.push_back(value);
  } else {
    c->values[row] = value;
  }
}

double Telemetry::latest(SeriesId id, std::uint32_t node) const {
  const Column* c = find_column(id, node);
  if (c == nullptr || c->values.empty()) return kMissing;
  return c->values.back();
}

std::vector<std::pair<Time, double>> Telemetry::window(SeriesId id,
                                                       std::uint32_t node,
                                                       std::size_t n) const {
  std::vector<std::pair<Time, double>> out;
  const Column* c = find_column(id, node);
  if (c == nullptr) return out;
  const std::size_t have = std::min(c->values.size(), times_.size());
  const std::size_t first = have > n ? have - n : 0;
  for (std::size_t i = first; i < have; ++i) {
    out.emplace_back(times_[i], c->values[i]);
  }
  return out;
}

std::vector<std::size_t> Telemetry::ordered_columns() const {
  std::vector<std::size_t> order(columns_.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [this](std::size_t a, std::size_t b) {
    if (columns_[a].series != columns_[b].series)
      return columns_[a].series < columns_[b].series;
    return columns_[a].node < columns_[b].node;
  });
  return order;
}

std::string Telemetry::column_name(const Column& c) const {
  const Series& s = series_[c.series];
  if (s.scope == SeriesScope::kGlobal) return s.name;
  return s.name + "[" + std::to_string(c.node) + "]";
}

std::vector<std::string> Telemetry::column_names() const {
  std::vector<std::string> names;
  for (std::size_t ci : ordered_columns()) {
    names.push_back(column_name(columns_[ci]));
  }
  return names;
}

void Telemetry::for_each_cell(
    const std::function<void(const Cell&)>& fn) const {
  const auto order = ordered_columns();
  for (std::size_t row = 0; row < times_.size(); ++row) {
    for (std::size_t ci : order) {
      const Column& c = columns_[ci];
      if (row >= c.values.size() || std::isnan(c.values[row])) continue;
      const Series& s = series_[c.series];
      fn(Cell{s.name, s.scope, c.node, times_[row], c.values[row]});
    }
  }
}

void Telemetry::export_csv(std::ostream& out) const {
  const auto order = ordered_columns();
  out << "t_s";
  for (std::size_t ci : order) {
    out << ',' << util::csv_escape(column_name(columns_[ci]));
  }
  out << '\n';
  for (std::size_t row = 0; row < times_.size(); ++row) {
    out << util::format_double(times_[row].to_seconds());
    for (std::size_t ci : order) {
      const auto& vals = columns_[ci].values;
      out << ',';
      if (row < vals.size() && !std::isnan(vals[row])) {
        out << util::format_double(vals[row]);
      }
    }
    out << '\n';
  }
}

void Telemetry::export_jsonl(std::ostream& out) const {
  const auto order = ordered_columns();
  // Line 1: the schema — series taxonomy, units, and column order.
  out << "{\"telemetry_schema\": 1, \"columns\": [";
  bool first = true;
  for (std::size_t ci : order) {
    const Column& c = columns_[ci];
    const Series& s = series_[c.series];
    if (!first) out << ", ";
    first = false;
    out << "{\"name\": \"" << column_name(c) << "\", \"series\": \"" << s.name
        << "\", \"kind\": \"" << kind_name(s.kind) << "\", \"unit\": \""
        << s.unit << "\"}";
  }
  out << "]}\n";
  // One line per sample; columns with no value in that row are omitted.
  for (std::size_t row = 0; row < times_.size(); ++row) {
    out << "{\"t_s\": " << util::format_double(times_[row].to_seconds())
        << ", \"values\": {";
    first = true;
    for (std::size_t ci : order) {
      const auto& vals = columns_[ci].values;
      if (row >= vals.size() || std::isnan(vals[row])) continue;
      if (!first) out << ", ";
      first = false;
      out << "\"" << column_name(columns_[ci])
          << "\": " << util::format_double(vals[row]);
    }
    out << "}}\n";
  }
}

bool Telemetry::export_csv(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  export_csv(out);
  return static_cast<bool>(out);
}

bool Telemetry::export_jsonl(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  export_jsonl(out);
  return static_cast<bool>(out);
}

}  // namespace enviromic::sim
