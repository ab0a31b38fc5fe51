#include "core/telemetry_probes.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "core/world.h"
#include "util/parse.h"

namespace enviromic::core {

void TelemetryProbes::bind(sim::Telemetry& tel, const Options& opts) {
  using sim::SeriesKind;
  using sim::SeriesScope;
  auto gauge = [&tel](const char* name, const char* unit = "") {
    return tel.register_series(name, SeriesKind::kGauge, SeriesScope::kGlobal,
                               unit);
  };
  auto counter = [&tel](const char* name, const char* unit = "") {
    return tel.register_series(name, SeriesKind::kCounter,
                               SeriesScope::kGlobal, unit);
  };
  flash_used_ = gauge("flash_used_bytes", "B");
  wear_min_ = gauge("flash_wear_min", "writes");
  wear_max_ = gauge("flash_wear_max", "writes");
  wear_spread_ = gauge("flash_wear_spread", "writes");
  battery_min_ = gauge("battery_min_j", "J");
  battery_total_ = gauge("battery_total_j", "J");
  node_battery_ = tel.register_series("node_battery_j", SeriesKind::kGauge,
                                      SeriesScope::kPerNode, "J");
  duty_cycle_ = gauge("radio_duty_cycle");
  frags_in_flight_ = gauge("transfer_frags_in_flight", "frags");
  window_stalls_ = counter("transfer_window_stalls", "stalls");
  group_members_ = gauge("group_members", "entries");
  group_leaders_ = gauge("group_leaders", "nodes");
  leader_churn_ = counter("leader_churn", "elections");
  retrieval_backlog_ = gauge("retrieval_backlog", "chunks");
  retrieval_collected_ = counter("retrieval_collected", "chunks");
  channel_busy_ = gauge("channel_busy_fraction");
  miss_ratio_ = opts.miss_ratio;
  if (miss_ratio_) miss_gauge_ = gauge("miss_ratio");
}

void TelemetryProbes::sample(sim::Telemetry& tel, World& world,
                             sim::Time now) {
  tel.begin_sample(now);

  std::uint64_t used = 0;
  std::uint64_t wear_min = std::numeric_limits<std::uint64_t>::max();
  std::uint64_t wear_max = 0;
  double bat_min = std::numeric_limits<double>::infinity();
  double bat_total = 0.0;
  double on_s = 0.0;
  std::uint64_t frags = 0, stalls = 0, members = 0, leaders = 0, churn = 0;
  std::uint64_t backlog = 0, collected = 0;
  const std::size_t nodes = world.node_count();
  for (std::size_t i = 0; i < nodes; ++i) {
    Node& n = world.node(i);
    // Flash is physical: wear history survives crashes and permanent death,
    // so every node counts. A lost mote's *contents* are unretrievable, so
    // it leaves the fill gauge.
    wear_min = std::min(wear_min, n.flash().min_wear());
    wear_max = std::max(wear_max, n.flash().max_wear());
    if (!n.data_lost()) used += n.store().used_bytes();
    const double j = n.energy().remaining_joules_at(now);
    bat_total += j;
    if (!n.failed()) bat_min = std::min(bat_min, j);
    on_s += n.energy().radio_on_seconds_at(now);
    frags += n.bulk().frags_in_flight();
    stalls += n.bulk().stats().window_stalls;
    members += n.group().member_table_size();
    if (n.group().is_leader()) ++leaders;
    const auto& gs = n.group().stats();
    churn += gs.elections_won + gs.handoffs_won + gs.watchdog_reelections;
    backlog += n.retrieval().relay_backlog();
    collected += n.retrieval().collected().size();
  }
  if (nodes == 0) {
    wear_min = 0;
    bat_min = 0.0;
  }
  if (std::isinf(bat_min)) bat_min = 0.0;  // every node failed

  tel.record(flash_used_, 0, static_cast<double>(used));
  tel.record(wear_min_, 0, static_cast<double>(wear_min));
  tel.record(wear_max_, 0, static_cast<double>(wear_max));
  tel.record(wear_spread_, 0, static_cast<double>(wear_max - wear_min));
  tel.record(battery_min_, 0, bat_min);
  tel.record(battery_total_, 0, bat_total);
  for (std::size_t i = 0; i < nodes; ++i) {
    Node& n = world.node(i);
    tel.record(node_battery_, n.id(), n.energy().remaining_joules_at(now));
  }
  const double now_s = now.to_seconds();
  tel.record(duty_cycle_, 0,
             nodes > 0 && now_s > 0.0
                 ? on_s / (static_cast<double>(nodes) * now_s)
                 : 0.0);
  tel.record(frags_in_flight_, 0, static_cast<double>(frags));
  tel.record(window_stalls_, 0, static_cast<double>(stalls));
  tel.record(group_members_, 0, static_cast<double>(members));
  tel.record(group_leaders_, 0, static_cast<double>(leaders));
  tel.record(leader_churn_, 0, static_cast<double>(churn));
  tel.record(retrieval_backlog_, 0, static_cast<double>(backlog));
  tel.record(retrieval_collected_, 0, static_cast<double>(collected));
  const double now_ticks = static_cast<double>(now.raw_ticks());
  tel.record(channel_busy_, 0,
             now_ticks > 0.0
                 ? static_cast<double>(world.channel().stats().busy_ticks) /
                       now_ticks
                 : 0.0);
  if (miss_ratio_) {
    tel.record(miss_gauge_, 0, world.snapshot().miss_ratio);
  }
}

bool parse_health_probe(const std::string& spec, HealthProbe* out,
                        std::string* err) {
  const auto eq = spec.find('=');
  if (eq == std::string::npos || eq == 0 || eq + 1 >= spec.size()) {
    if (err != nullptr) *err = "expected name=value, got '" + spec + "'";
    return false;
  }
  const std::string name = spec.substr(0, eq);
  double v = 0.0;
  if (!util::parse_double(spec.c_str() + eq + 1, &v)) {
    if (err != nullptr) {
      *err = "bad threshold '" + spec.substr(eq + 1) + "' for probe " + name;
    }
    return false;
  }
  for (const auto& kind : kHealthProbes) {
    if (name != kind.name) continue;
    *out = HealthProbe{name, kind.gauge, v, kind.is_floor};
    return true;
  }
  if (err != nullptr) {
    std::string known;
    for (const auto& kind : kHealthProbes)
      known += (known.empty() ? "" : " ") + std::string(kind.name);
    *err = "unknown health probe '" + name + "' (known: " + known + ")";
  }
  return false;
}

std::vector<HealthTrip> evaluate_health_probes(
    const sim::Telemetry& tel, const std::vector<HealthProbe>& probes,
    sim::Time now) {
  std::vector<HealthTrip> trips;
  for (const auto& p : probes) {
    const sim::SeriesId id = tel.find(p.gauge);
    if (id == sim::kInvalidSeries) continue;
    const double v = tel.latest(id);
    if (std::isnan(v)) continue;
    const bool tripped = p.is_floor ? v < p.threshold : v > p.threshold;
    if (!tripped) continue;
    HealthTrip t;
    t.probe = p.name;
    t.gauge = p.gauge;
    t.value = v;
    t.threshold = p.threshold;
    t.at = now;
    trips.push_back(std::move(t));
  }
  return trips;
}

}  // namespace enviromic::core
