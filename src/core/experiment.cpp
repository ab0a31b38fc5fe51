#include "core/experiment.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <iostream>
#include <limits>
#include <map>
#include <set>
#include <sstream>
#include <type_traits>

#include "acoustic/sampler.h"
#include "core/balancer.h"
#include "core/bulk_transfer.h"
#include "storage/erasure.h"
#include "util/parse.h"

namespace enviromic::core {

namespace {
/// Flight-recorder ring size, in trace records.
constexpr std::size_t kFlightRecorderCapacity = 4096;
/// Flight-recorder records dumped on a trip.
constexpr std::size_t kFlightRecorderDump = 64;

/// What a runner adds to the shared run loop beyond the observers.
struct LoopHooks {
  /// Runner cadence (indoor's snapshot period; zero = none): `step` runs at
  /// every multiple of it before the end and once more at the end.
  sim::Time step_every = sim::Time::zero();
  std::function<void()> step;
  /// End-state check (chaos's invariants), run after the loop while the
  /// flight recorder is still armed; false dumps the recorder's tail.
  std::function<bool()> end_state_ok;
};

void dump_flight_recorder(const sim::Trace& trace, const std::string& why) {
  std::cerr << why << ": flight recorder tail (" << kFlightRecorderDump
            << " of " << trace.total_recorded() << " records)\n";
  trace.dump_tail(kFlightRecorderDump, std::cerr);
}

/// The one run loop every runner shares: arms the observers `obs` asks for,
/// starts `world` and runs it to `end_at`, stepping run_until over the
/// merged cadence of telemetry samples and the runner's own step, then
/// fills `out` and tears the observers down. run_until stepping executes
/// the same events in the same order, so the seeded RNG streams are
/// untouched whatever is observed.
void run_loop(World& world, sim::Time end_at, const RunObservers& obs,
              RunOutputs& out, const LoopHooks& hooks = {}) {
  // The one trace ring the run needs, attached to the scheduler until the
  // end-state check is done: the full ring when asked for, else a small
  // flight recorder for the post-mortem where something can trip it, else
  // none, and every record site stays dark.
  const bool can_trip = hooks.end_state_ok || !obs.health_probes.empty();
  if (obs.trace || (obs.flight_recorder && can_trip)) {
    out.trace = sim::Trace(obs.trace ? sim::Trace::kDefaultCapacity
                                     : kFlightRecorderCapacity);
    world.sched().set_trace(&out.trace);
  }
  if (obs.profile) world.sched().profiler().enable();

  // Telemetry: sample the standard probes into the run's own recorder on
  // the series cadence. Health probes force sampling (at a 1 s default
  // cadence if none was set).
  sim::Telemetry& tel = out.telemetry;
  sim::Time series_every = obs.series_interval;
  if (series_every == sim::Time::zero() && !obs.health_probes.empty())
    series_every = sim::Time::seconds_i(1);
  const bool sampling = series_every > sim::Time::zero();
  TelemetryProbes probes;
  if (sampling) {
    TelemetryProbes::Options popts;
    for (const auto& p : obs.health_probes)
      if (p.gauge == "miss_ratio") popts.miss_ratio = true;
    probes.bind(tel, popts);
  }
  std::set<std::string> tripped_names;
  auto sample = [&](sim::Time t) {
    probes.sample(tel, world, t);
    for (auto& trip : evaluate_health_probes(tel, obs.health_probes, t)) {
      // First trip per probe only: a gauge that stays past its threshold
      // would otherwise dump the recorder once per sample.
      if (!tripped_names.insert(trip.probe).second) continue;
      std::cerr << "health probe '" << trip.probe << "' tripped at t="
                << trip.at.to_seconds() << "s: " << trip.gauge << " = "
                << trip.value << " vs threshold " << trip.threshold << "\n";
      for (const auto& [wt, wv] : tel.window(tel.find(trip.gauge), 0, 16))
        std::cerr << "  " << trip.gauge << " @" << wt.to_seconds()
                  << "s = " << wv << "\n";
      if (obs.flight_recorder)
        dump_flight_recorder(out.trace, "health probe '" + trip.probe + "'");
      out.health_trips.push_back(std::move(trip));
    }
  };

  world.start();
  const bool stepping = hooks.step && hooks.step_every > sim::Time::zero();
  const sim::Time never = end_at + sim::Time::seconds_i(1);
  sim::Time next_sample = sampling ? series_every : never;
  sim::Time next_step = stepping ? hooks.step_every : never;
  while (true) {
    const sim::Time t = std::min(next_sample, next_step);
    if (t >= end_at) break;
    world.run_until(t);
    if (t == next_sample) {
      sample(t);
      next_sample += series_every;
    }
    if (t == next_step) {
      hooks.step();
      next_step += hooks.step_every;
    }
  }
  world.run_until(end_at);
  if (sampling) sample(end_at);
  if (hooks.step) hooks.step();

  out.executed_events = world.sched().executed();
  out.channel_stats = world.channel().stats();
  if (obs.profile) {
    out.profile = world.sched().profiler().report();
    world.sched().profiler().disable();
  }
  if (hooks.end_state_ok && !hooks.end_state_ok() && obs.flight_recorder)
    dump_flight_recorder(out.trace, "end-state invariants FAILED");
  world.sched().set_trace(nullptr);
}
}  // namespace

NodeParams paper_node_params(Mode mode, double beta_max) {
  NodeParams p;
  p.protocol.mode = mode;
  p.protocol.beta_max = beta_max;
  return p;
}

IndoorRunResult run_indoor(const IndoorRunConfig& cfg) {
  WorldConfig wc;
  wc.seed = cfg.seed;
  wc.node_defaults = paper_node_params(cfg.mode, cfg.beta_max);
  wc.node_defaults.protocol.balance_strategy = cfg.balance_strategy;
  if (cfg.flash_scale != 1.0) {
    wc.node_defaults.flash.capacity_bytes = static_cast<std::uint64_t>(
        static_cast<double>(wc.node_defaults.flash.capacity_bytes) *
        cfg.flash_scale);
  }
  World world(wc);

  IndoorRunResult result;
  result.grid_nx = cfg.grid_nx;
  result.grid_ny = cfg.grid_ny;
  result.positions =
      grid_deployment(world, cfg.grid_nx, cfg.grid_ny, kGridPitchFt);

  IndoorEventPlanConfig events = cfg.events;
  events.horizon = cfg.horizon;
  if (events.generators.empty()) {
    // Two generators at cell centres, well apart (paper Fig 9): each is
    // heard by exactly the four surrounding grid nodes.
    const double s = kGridPitchFt;
    events.generators = {{2.5 * s, 1.5 * s},
                         {(cfg.grid_nx - 2.5) * s, (cfg.grid_ny - 2.5) * s}};
  }
  result.plan = schedule_indoor_events(world, events, world.rng().fork("plan"));

  // A snapshot every sample_period; the run ends on the last one within
  // the horizon (a non-positive period keeps only a final snapshot).
  LoopHooks hooks;
  hooks.step_every = cfg.sample_period;
  hooks.step = [&] { result.series.push_back(world.snapshot()); };
  const std::int64_t every = cfg.sample_period.raw_ticks();
  const sim::Time end_at =
      every > 0 ? sim::Time::ticks(cfg.horizon.raw_ticks() / every * every)
                : cfg.horizon;
  run_loop(world, end_at, cfg, result, hooks);
  return result;
}

MobileRunResult run_mobile(const MobileRunConfig& cfg) {
  WorldConfig wc;
  wc.seed = cfg.seed;
  wc.node_defaults = paper_node_params(Mode::kCooperativeOnly, 2.0);
  wc.node_defaults.protocol.task_period = cfg.task_period;
  wc.node_defaults.protocol.task_assign_delay = cfg.task_assign_delay;
  wc.node_defaults.protocol.prelude_enabled = cfg.prelude;
  World world(wc);

  grid_deployment(world, cfg.grid_nx, cfg.grid_ny, kGridPitchFt);

  MobileEventConfig ev;
  const double s = kGridPitchFt;
  // Cross the middle row of the grid, entering from the left.
  const double y = (cfg.grid_ny - 1) * s / 2.0;
  ev.from = {-s, y};
  ev.to = {cfg.grid_nx * s, y};
  ev.speed = s;  // one grid length per second
  ev.start = sim::Time::seconds_i(5);
  ev.duration = cfg.event_duration;
  ev.audible_range = 1.05 * s;  // "about one grid length"
  add_mobile_event(world, ev);

  MobileRunResult result;
  run_loop(world, ev.start + ev.duration + sim::Time::seconds_i(5), cfg,
           result);
  result.event_start = ev.start;
  result.event_end = ev.start + ev.duration;
  // The paper's Fig 6 metric: "the sum of the lengths of recording gaps
  // divided by the duration of the acoustic event" — a gap is an instant
  // with *nobody* recording, regardless of reception quality.
  util::IntervalSet recorded;
  for (const auto& act : world.metrics().recording_log()) {
    if (!act.appended || act.is_prelude) continue;
    result.recordings.push_back(
        MobileRunResult::TaskSpan{act.node, act.start, act.end});
    recorded.add(act.start, act.end);
  }
  const sim::Time covered =
      recorded.measure_within(result.event_start, result.event_end);
  const double dur = ev.duration.to_seconds();
  result.miss_ratio =
      dur > 0 ? std::max(0.0, 1.0 - covered.to_seconds() / dur) : 0.0;
  return result;
}

VoiceRunResult run_voice(const VoiceRunConfig& cfg) {
  constexpr int kGridNx = 7;
  constexpr int kGridNy = 4;
  constexpr sim::Time kEventDuration = sim::Time::seconds_i(7);
  WorldConfig wc;
  wc.seed = cfg.seed;
  wc.node_defaults = paper_node_params(Mode::kCooperativeOnly, 2.0);
  wc.node_defaults.flash.store_payloads = true;
  const double rate = acoustic::kSampleRateHz;
  World world(wc);

  grid_deployment(world, kGridNx, kGridNy, kGridPitchFt);

  MobileEventConfig ev;
  const double s = kGridPitchFt;
  const double y = (kGridNy - 1) * s / 2.0;
  ev.from = {-s, y};
  ev.to = {kGridNx * s, y};
  ev.speed = s;
  ev.start = sim::Time::seconds_i(4);
  ev.duration = kEventDuration;
  ev.audible_range = 1.6 * s;
  ev.voice = true;
  ev.voice_seed = cfg.seed ^ 0xF00D;
  const auto src_id = add_mobile_event(world, ev);

  VoiceRunResult result;
  run_loop(world, ev.start + ev.duration + sim::Time::seconds_i(4), cfg,
           result);
  result.event_start = ev.start;
  result.event_end = ev.start + ev.duration;

  // Ground truth: a mote held by the walking speaker ~1 ft away. Sample the
  // source amplitude directly along its own trajectory.
  const acoustic::Source* src = nullptr;
  for (const auto& cand : world.field().sources()) {
    if (cand.id() == src_id) src = &cand;
  }
  const double dt = 1.0 / rate;
  const auto n_samples = static_cast<std::size_t>(
      std::llround(ev.duration.to_seconds() * rate));
  result.reference.reserve(n_samples);
  for (std::size_t i = 0; i < n_samples; ++i) {
    const sim::Time t =
        ev.start + sim::Time::seconds(static_cast<double>(i) * dt);
    sim::Position held = src->position_at(t);
    held.x += 0.8;  // hand-held offset
    result.reference.push_back(
        acoustic::adc_sample(src->amplitude_at(held, t), t));
  }

  // Stitch every stored (non-prelude) chunk by timestamp.
  result.stitched.assign(n_samples, 128);
  std::vector<bool> filled(n_samples, false);
  for (std::size_t ni = 0; ni < world.node_count(); ++ni) {
    world.node(ni).store().for_each_with_payload(
        [&](const storage::ChunkMeta& m,
            const std::vector<std::uint8_t>& payload) {
          if (m.is_prelude) return;
          const double off_s = (m.start - ev.start).to_seconds();
          const auto base =
              static_cast<std::int64_t>(std::llround(off_s * rate));
          for (std::size_t k = 0; k < payload.size(); ++k) {
            const std::int64_t idx = base + static_cast<std::int64_t>(k);
            if (idx < 0 || idx >= static_cast<std::int64_t>(n_samples))
              continue;
            result.stitched[static_cast<std::size_t>(idx)] = payload[k];
            filled[static_cast<std::size_t>(idx)] = true;
          }
        });
  }
  std::size_t nfilled = 0;
  for (bool b : filled) nfilled += b ? 1 : 0;
  result.stitched_coverage =
      n_samples ? static_cast<double>(nfilled) / static_cast<double>(n_samples)
                : 0.0;

  // Envelope correlation over 50 ms windows.
  const std::size_t win = static_cast<std::size_t>(rate * 0.05);
  std::vector<double> env_a, env_b;
  for (std::size_t i = 0; i + win <= n_samples; i += win) {
    double sa = 0.0, sb = 0.0;
    for (std::size_t k = i; k < i + win; ++k) {
      sa += std::abs(static_cast<double>(result.reference[k]) - 128.0);
      sb += std::abs(static_cast<double>(result.stitched[k]) - 128.0);
    }
    env_a.push_back(sa / win);
    env_b.push_back(sb / win);
  }
  double ma = 0.0, mb = 0.0;
  for (std::size_t i = 0; i < env_a.size(); ++i) {
    ma += env_a[i];
    mb += env_b[i];
  }
  if (!env_a.empty()) {
    ma /= env_a.size();
    mb /= env_b.size();
    double cov = 0.0, va = 0.0, vb = 0.0;
    for (std::size_t i = 0; i < env_a.size(); ++i) {
      cov += (env_a[i] - ma) * (env_b[i] - mb);
      va += (env_a[i] - ma) * (env_a[i] - ma);
      vb += (env_b[i] - mb) * (env_b[i] - mb);
    }
    if (va > 0 && vb > 0) result.envelope_correlation = cov / std::sqrt(va * vb);
  }
  return result;
}

OutdoorRunResult run_outdoor(const OutdoorRunConfig& cfg) {
  WorldConfig wc;
  wc.seed = cfg.seed;
  wc.node_defaults = paper_node_params(Mode::kFull, cfg.beta_max);
  // Outdoor ranges are tens of feet; widen the radio accordingly so the
  // network stays connected across the 105 ft plot.
  wc.channel.comm_range = 40.0;
  World world(wc);

  OutdoorRunResult result;
  result.positions = forest_deployment(world, cfg.nodes, cfg.plot_ft,
                                       cfg.plot_ft, 8.0,
                                       world.rng().fork("deploy"));

  OutdoorPlanConfig plan_cfg = cfg.plan;
  plan_cfg.horizon = cfg.horizon;
  plan_cfg.plot = cfg.plot_ft;
  result.plan = schedule_outdoor_events(world, plan_cfg,
                                        world.rng().fork("outdoor"));

  run_loop(world, cfg.horizon, cfg, result);

  const auto minutes =
      static_cast<std::size_t>(cfg.horizon.to_seconds() / 60.0) + 1;
  result.recorded_seconds_per_minute.assign(minutes, 0.0);
  result.recorded_seconds_by_node.assign(world.node_count() + 1, 0.0);
  for (const auto& act : world.metrics().recording_log()) {
    if (!act.appended) continue;
    // Spread the act's duration over the minutes it spans.
    sim::Time t = act.start;
    while (t < act.end) {
      const auto minute = static_cast<std::size_t>(t.to_seconds() / 60.0);
      const sim::Time minute_end =
          sim::Time::seconds(60.0 * static_cast<double>(minute + 1));
      const sim::Time upto = std::min(act.end, minute_end);
      if (minute < minutes)
        result.recorded_seconds_per_minute[minute] += (upto - t).to_seconds();
      t = upto;
    }
    if (act.node < result.recorded_seconds_by_node.size())
      result.recorded_seconds_by_node[act.node] +=
          (act.end - act.start).to_seconds();
  }

  // Hottest recorder (most recorded audio).
  net::NodeId hottest = net::kInvalidNode;
  double best = -1.0;
  for (std::size_t id = 0; id < result.recorded_seconds_by_node.size(); ++id) {
    if (result.recorded_seconds_by_node[id] > best) {
      best = result.recorded_seconds_by_node[id];
      hottest = static_cast<net::NodeId>(id);
    }
  }
  result.hottest = hottest;
  result.hotspot_bytes_at_node.assign(world.node_count() + 1, 0);
  for (std::size_t ni = 0; ni < world.node_count(); ++ni) {
    const auto& node = world.node(ni);
    node.store().for_each([&](const storage::ChunkMeta& m) {
      if (m.recorded_by == hottest && node.id() != hottest) {
        result.hotspot_bytes_at_node[node.id()] += m.bytes;
      }
    });
  }
  result.final_snapshot = world.snapshot();
  return result;
}

namespace {
/// Chaos's end-state census and invariants, taken after the grace tail:
/// stuck sessions, recoverable stores, exactly-once retrieval, duplicate
/// and payload accounting, the coded-survival census and the drain leg's
/// collection. `sinks` and `drain_eligible` are what the drain event at the
/// horizon started and saw.
void chaos_end_state(World& world, const ChaosRunConfig& cfg,
                     const std::vector<std::size_t>& sinks,
                     const std::set<std::uint64_t>& drain_eligible,
                     ChaosRunResult& r) {
  r.nodes = world.node_count();
  r.live_events_bound = cfg.live_events_per_node_bound;
  r.live_events_at_end = world.sched().pending();
  const sim::Time now = world.sched().now();
  // One walk per store feeds three ledgers. The copy ledger maps each key
  // on a collectable flash to its first copy's payload: later copies are
  // duplicates, and with materialized payloads every copy must be exactly
  // meta.bytes long and equal to the first (byte-exact migration). The
  // payload survival census covers every node *including* lost motes: an
  // original is reconstructible when a whole copy sits on a collectable
  // flash, or at least k distinct fragments do; what misses both bars is
  // what permanent death actually destroyed. An up node's key list is what
  // its recover round trip must give back.
  std::map<std::uint64_t, std::vector<std::uint8_t>> first_copy;
  struct PayloadRecord {
    bool whole_survives = false;
    bool any_collectable = false;
    std::uint32_t orig_bytes = 0;
    unsigned k = 0;
    std::set<std::uint8_t> frag_idx;  //!< distinct indices on collectable flash
  };
  std::map<std::uint64_t, PayloadRecord> census;
  std::vector<std::uint64_t> live, recovered;
  for (std::size_t i = 0; i < world.node_count(); ++i) {
    Node& n = world.node(i);
    // Duplicate risks counted by every node, dead or alive: an aborted or
    // crashed sender is exactly where replicas come from.
    r.duplicate_risks_counted += n.bulk().stats().duplicate_risks;
    const auto& cs = n.coded().stats();
    r.coded.chunks_coded += cs.chunks_coded;
    r.coded.fragments_placed += cs.fragments_placed;
    r.coded.fragments_failed += cs.fragments_failed;
    r.coded.placement_wraps += cs.placement_wraps;
    r.coded.originals_released += cs.originals_released;
    r.coded.originals_kept += cs.originals_kept;
    r.coded.original_bytes += cs.original_bytes;
    r.coded.fragment_bytes += cs.fragment_bytes;
    const bool up = !n.failed() && !n.down();
    if (n.failed()) {
      ++r.nodes_lost;
    } else if (n.down()) {
      ++r.nodes_down_at_end;
    } else {
      if (n.bulk().tx_stuck(now)) ++r.stuck_tx_sessions;
      if (n.bulk().rx_stuck(now)) ++r.stuck_rx_sessions;
    }
    // A defunct mote's flash is still physically collectable unless its
    // data died with it.
    const bool collectable = !n.data_lost();
    live.clear();
    n.store().for_each_with_payload([&](const storage::ChunkMeta& m,
                                        const auto& payload) {
      if (cfg.payload_census) {
        auto& rec = census[m.is_fragment() ? m.ec_group : m.key];
        rec.orig_bytes = m.is_fragment() ? m.ec_orig_bytes : m.bytes;
        if (collectable) {
          rec.any_collectable = true;
          r.census_stored_bytes += m.bytes;
          if (m.is_fragment()) {
            rec.k = m.ec_k;
            rec.frag_idx.insert(m.ec_index);
          } else {
            rec.whole_survives = true;
          }
        }
      }
      if (!collectable) return;
      if (up) live.push_back(m.key);
      const auto [first, inserted] = first_copy.try_emplace(m.key, payload);
      if (!inserted) ++r.duplicate_copies;
      if (cfg.store_payloads &&
          (payload.size() != m.bytes || payload != first->second))
        r.payloads_intact = false;
    });
    if (!up) continue;
    // Recoverability: a checkpoint-then-offline-recover round trip must
    // reproduce exactly the chunks the live store holds, in order.
    n.store().checkpoint();
    auto rec = storage::ChunkStore::recover(n.flash(), n.eeprom(),
                                            n.params().store);
    recovered.clear();
    rec.for_each(
        [&](const storage::ChunkMeta& m) { recovered.push_back(m.key); });
    if (live != recovered) r.stores_recoverable = false;
  }
  r.live_chunks = first_copy.size();
  r.duplicates_within_risk = r.duplicate_copies <= r.duplicate_risks_counted;
  // Exactly-once retrieval: the deduplicated physical collection holds every
  // distinct live chunk once (duplicates from aborted transfers collapse;
  // nothing vanishes, nothing aliases).
  r.retrieval_exact_once =
      world.drain_all(/*deduplicate=*/true).chunk_count() == first_copy.size();

  for (const auto& [key, rec] : census) {
    (void)key;
    ++r.payloads_total;
    if (rec.whole_survives || (rec.k != 0 && rec.frag_idx.size() >= rec.k))
      ++r.payloads_reconstructible;
    if (rec.any_collectable) r.census_original_bytes += rec.orig_bytes;
  }
  r.payloads_lost_to_death = r.payloads_total - r.payloads_reconstructible;

  // Decode-on-drain over the survivors: partial groups are accounted, the
  // drain never stalls on them.
  if (cfg.payload_census) {
    const auto drained = world.drain_decoded();
    r.decode = drained.stats;
    r.drained_bytes = drained.bytes_collected;
  }

  // Retrieval drain accounting: union the sinks' hauls, split them into
  // eligible keys and late arrivals, count keys that were physically
  // uploaded to more than one sink (overlap resolution should have
  // descriptor-acked those), and fold the collected chunks into the final
  // snapshot so coverage still counts what the drain hauled off the motes.
  std::vector<storage::ChunkMeta> drained_metas;
  if (cfg.drain_sinks > 0) {
    r.retrieval_eligible = drain_eligible.size();
    std::map<std::uint64_t, int> sink_copies;
    sim::Time last_arrival = sim::Time::zero();
    for (std::size_t idx : sinks) {
      Node& n = world.node(idx);
      ++r.retrieval_sinks;
      for (const auto& c : n.retrieval().collected()) {
        ++sink_copies[c.meta.key];
        drained_metas.push_back(c.meta);
      }
      last_arrival = std::max(last_arrival, n.retrieval().last_collected_at());
    }
    r.retrieval_collected = sink_copies.size();
    for (const auto& [key, cnt] : sink_copies) {
      if (!drain_eligible.count(key)) ++r.retrieval_late_arrivals;
      if (cnt > 1) r.retrieval_double_uploads += cnt - 1;
    }
    if (r.retrieval_eligible != 0) {
      r.retrieval_miss_ratio =
          1.0 - static_cast<double>(r.retrieval_collected -
                                    r.retrieval_late_arrivals) /
                    static_cast<double>(r.retrieval_eligible);
    }
    if (last_arrival > cfg.horizon)
      r.retrieval_drain_span = last_arrival - cfg.horizon;
  }

  r.final_snapshot = world.snapshot_with(drained_metas);
  const auto& f = r.final_snapshot.faults;
  r.counters_consistent = f.crashes == f.reboots + r.nodes_down_at_end;
}
}  // namespace

ChaosRunResult run_chaos(const ChaosRunConfig& cfg) {
  WorldConfig wc;
  wc.seed = cfg.seed;
  wc.node_defaults = paper_node_params(Mode::kFull, cfg.beta_max);
  if (cfg.flash_scale != 1.0) {
    wc.node_defaults.flash.capacity_bytes = static_cast<std::uint64_t>(
        static_cast<double>(wc.node_defaults.flash.capacity_bytes) *
        cfg.flash_scale);
  }
  wc.channel.burst = cfg.burst;
  wc.channel.link_asymmetry_max = cfg.link_asymmetry_max;
  wc.node_defaults.flash.store_payloads = cfg.store_payloads;
  if (cfg.transfer_window_frags != 0) {
    wc.node_defaults.protocol.transfer_window_frags = cfg.transfer_window_frags;
  }
  wc.node_defaults.protocol.storage_policy = cfg.storage_policy;
  wc.node_defaults.protocol.coded_k = cfg.coded_k;
  wc.node_defaults.protocol.coded_n = cfg.coded_n;
  wc.node_defaults.protocol.recording_replicas = cfg.recording_replicas;
  World world(wc);

  grid_deployment(world, cfg.grid_nx, cfg.grid_ny, cfg.spacing_ft);

  IndoorEventPlanConfig events;
  events.horizon = cfg.horizon;
  const double s = cfg.spacing_ft;
  events.generators = {{1.5 * s, 1.5 * s},
                       {(cfg.grid_nx - 2.5) * s, (cfg.grid_ny - 2.5) * s}};
  schedule_indoor_events(world, events, world.rng().fork("plan"));

  std::vector<net::NodeId> ids;
  ids.reserve(world.node_count());
  for (std::size_t i = 0; i < world.node_count(); ++i) {
    ids.push_back(world.node(i).id());
  }
  const FaultPlan plan = FaultPlan::randomized(cfg.faults, ids, cfg.horizon,
                                               world.rng().fork("faults"));
  world.apply_faults(plan);

  // Retrieval drain leg: at the horizon, up to four grid-corner sinks flood
  // drain queries and haul the field's chunks home through the grace tail.
  // drain_sinks == 0 schedules nothing at all, so the RNG streams of a
  // drain-free run stay bit-identical to a pre-retrieval build.
  std::vector<std::size_t> sink_idx;
  std::set<std::uint64_t> drain_eligible;
  if (cfg.drain_sinks > 0) {
    std::vector<std::size_t> corners = {
        0, static_cast<std::size_t>(cfg.grid_nx) * cfg.grid_ny - 1,
        static_cast<std::size_t>(cfg.grid_nx) - 1,
        static_cast<std::size_t>(cfg.grid_ny - 1) * cfg.grid_nx};
    corners.resize(std::min<std::size_t>(cfg.drain_sinks, corners.size()));
    world.sched().at(cfg.horizon, [&world, &sink_idx, &drain_eligible, corners,
                                   sel = cfg.drain_resource,
                                   hops = cfg.drain_hops] {
      for (std::size_t i = 0; i < world.node_count(); ++i) {
        Node& n = world.node(i);
        if (n.failed() || n.down()) continue;
        n.store().for_each([&](const storage::ChunkMeta& m) {
          if (sel.matches(m)) drain_eligible.insert(m.key);
        });
      }
      for (std::size_t idx : corners) {
        if (idx >= world.node_count()) continue;
        Node& n = world.node(idx);
        if (n.failed() || n.down()) continue;  // a dead sink misses its drain
        DrainOptions opts;
        opts.selector = sel;
        opts.hops = static_cast<std::uint8_t>(hops);
        n.retrieval().start_drain(opts);
        sink_idx.push_back(idx);
      }
    });
  }

  // The grace tail lets reboots land and in-flight sessions drain before the
  // end-state invariants are checked.
  ChaosRunResult r;
  LoopHooks hooks;
  hooks.end_state_ok = [&] {
    chaos_end_state(world, cfg, sink_idx, drain_eligible, r);
    return r.invariants_hold();
  };
  run_loop(world, cfg.horizon + cfg.grace, cfg, r, hooks);
  return r;
}

// --- Scenario parameters by name ------------------------------------------------

namespace {

// Range bounds: the longest settable duration, the lower bound of a
// strictly positive parameter, none above, and an int field's largest value.
using sim::kMaxSeconds;
constexpr double kAboveZero = std::numeric_limits<double>::denorm_min();
constexpr double kNoLimit = std::numeric_limits<double>::max();
constexpr double kMaxInt = std::numeric_limits<int>::max();

/// A sim::Time field set in whole milliseconds (mobile's D_ta).
struct Millis {
  sim::Time& t;
};
/// A burst-model probability: setting it also turns burst loss on.
struct BurstParam {
  double& p;
  bool& enabled;
};

// The declarations: f(name, field, lo, hi) once per settable parameter, in
// the order param_names lists them; a value must lie in [lo, hi].

/// The fault keys: exactly what a fault spec may set.
template <class F>
void fault_params(ChaosRunConfig& c, F&& f) {
  f("crash", c.faults.crash_probability, 0, 1);
  f("downtime", c.faults.downtime_mean, 0, kMaxSeconds);
  f("permanent", c.faults.permanent_fraction, 0, 1);
  f("lose_data", c.faults.lose_data_fraction, 0, 1);
  f("brownout", c.faults.brownout_probability, 0, 1);
  f("brownout_len", c.faults.brownout_mean, 0, kMaxSeconds);
  f("clockstep", c.faults.clock_step_probability, 0, 1);
  f("clockstep_max", c.faults.clock_step_max_s, 0, kMaxSeconds);
  f("burst", c.burst.enabled, 0, 1);
  f("pgb", BurstParam{c.burst.p_good_to_bad, c.burst.enabled}, 0, 1);
  f("pbg", BurstParam{c.burst.p_bad_to_good, c.burst.enabled}, 0, 1);
  f("loss_bad", BurstParam{c.burst.loss_bad, c.burst.enabled}, 0, 1);
  f("loss_good", BurstParam{c.burst.loss_good, c.burst.enabled}, 0, 1);
  f("asym", c.link_asymmetry_max, 0, 1);
}

template <class F>
void params(ChaosRunConfig& c, F&& f) {
  fault_params(c, f);
  f("horizon", c.horizon, 0, kMaxSeconds);
  f("grace", c.grace, 0, kMaxSeconds);
  f("beta", c.beta_max, 1, kNoLimit);
  f("flash_scale", c.flash_scale, kAboveZero, kNoLimit);
  f("grid_nx", c.grid_nx, 1, kMaxInt);
  f("grid_ny", c.grid_ny, 1, kMaxInt);
  f("spacing", c.spacing_ft, kAboveZero, kNoLimit);
  f("coded", c.storage_policy, 0, 1);
  f("coded_k", c.coded_k, 1, 255);
  f("coded_n", c.coded_n, 1, 255);
  f("replicas", c.recording_replicas, 1, kMaxInt);
  f("window", c.transfer_window_frags, 0, kMaxInt);
  f("census", c.payload_census, 0, 1);
  f("drain_sinks", c.drain_sinks, 0, 4);
  f("drain_hops", c.drain_hops, 1, 255);
}

template <class F>
void params(IndoorRunConfig& c, F&& f) {
  f("horizon", c.horizon, 0, kMaxSeconds);
  f("sample", c.sample_period, 0, kMaxSeconds);
  f("beta", c.beta_max, 1, kNoLimit);
  f("flash_scale", c.flash_scale, kAboveZero, kNoLimit);
  f("mode", c.mode, 0, 2);
  f("grid_nx", c.grid_nx, 1, kMaxInt);
  f("grid_ny", c.grid_ny, 1, kMaxInt);
  f("gossip", c.balance_strategy, 0, 1);
}

template <class F>
void params(MobileRunConfig& c, F&& f) {
  f("trc", c.task_period, kAboveZero, kMaxSeconds);
  f("dta", Millis{c.task_assign_delay}, 0, kMaxSeconds * 1000);
  f("prelude", c.prelude, 0, 1);
  f("event_s", c.event_duration, 0, kMaxSeconds);
  f("grid_nx", c.grid_nx, 1, kMaxInt);
  f("grid_ny", c.grid_ny, 1, kMaxInt);
}

template <class F>
void params(OutdoorRunConfig& c, F&& f) {
  f("horizon", c.horizon, 0, kMaxSeconds);
  f("beta", c.beta_max, 1, kNoLimit);
  f("nodes", c.nodes, 1, kMaxInt);
  f("plot_ft", c.plot_ft, kAboveZero, kNoLimit);
}

template <class F>
void params(VoiceRunConfig&, F&&) {}

/// The scenario's checks across parameters, run once every one is set.
bool cross_check(const ChaosRunConfig& c, std::string& error) {
  return storage::ErasureCodec::validate_geometry(c.coded_k, c.coded_n,
                                                  &error);
}
bool cross_check(const IndoorRunConfig& c, std::string& error) {
  if (c.sample_period <= sim::Time::zero() || c.horizon >= c.sample_period)
    return true;
  error = "bad horizon=" + util::format_double(c.horizon.to_seconds()) +
          ": an indoor run ends at the last whole sample period, and sample=" +
          util::format_double(c.sample_period.to_seconds()) + " is longer";
  return false;
}
template <class Config>
bool cross_check(const Config&, std::string&) {
  return true;
}

/// The table's name for the scenario that `Config` configures.
template <class Config>
const char* scenario_name() {
  const char* name = "";
  std::apply(
      [&name](const auto&... s) {
        ((name = std::is_same_v<typename std::decay_t<decltype(s)>::Config,
                                Config>
                     ? s.name
                     : name),
         ...);
      },
      kScenarios);
  return name;
}

/// Set `field` to `value` when it lies in [lo, hi], converting by the
/// field's type; else say why not. double, seconds and burst-model fields
/// take any number in range; integer, enum, bool and millisecond fields
/// take whole numbers.
template <class Field>
std::string assign(Field&& field, const std::string& name, double value,
                   double lo, double hi) {
  using T = std::decay_t<Field>;
  constexpr bool real = std::is_same_v<T, double> ||
                        std::is_same_v<T, sim::Time> ||
                        std::is_same_v<T, BurstParam>;
  if (!(value >= lo && value <= hi && (real || std::floor(value) == value))) {
    return "bad " + name + "=" + util::format_double(value) + ": need " +
           (real ? "a number in " : "a whole number in ") +
           (lo == kAboveZero ? "(0" : "[" + util::format_double(lo)) + ", " +
           (hi == kNoLimit ? "inf)" : util::format_double(hi) + "]");
  }
  if constexpr (std::is_same_v<T, double>) {
    field = value;
  } else if constexpr (std::is_same_v<T, sim::Time>) {
    field = sim::Time::seconds(value);
  } else if constexpr (std::is_same_v<T, Millis>) {
    field.t = sim::Time::millis(static_cast<std::int64_t>(value));
  } else if constexpr (std::is_same_v<T, BurstParam>) {
    field.p = value;
    field.enabled = true;
  } else {
    field = static_cast<T>(static_cast<std::int64_t>(value));
  }
  return "";
}

/// Set one declared parameter by name. False, with an `error` naming the
/// parameter and `cfg` unchanged, on an unknown name or an out-of-range
/// value.
template <class Config>
bool set_param(Config& cfg, const std::string& name, double value,
               std::string& error) {
  bool found = false;
  params(cfg, [&](const char* n, auto&& field, double lo, double hi) {
    if (name != n) return;
    found = true;
    error = assign(field, name, value, lo, hi);
  });
  if (!found) {
    error = std::string("unknown ") + scenario_name<Config>() +
            " parameter '" + name + "'";
  }
  return error.empty();
}

/// Apply a fault spec to `cfg`: its keys must be fault keys, and a scenario
/// that declares none refuses each as an unknown parameter.
template <class Config>
bool parse_fault_spec(const std::string& spec, Config& cfg,
                      std::string& error) {
  const std::vector<std::string> keys = fault_keys();
  std::istringstream items(spec);
  for (std::string item; std::getline(items, item, ',');) {
    if (item.empty()) continue;
    const std::size_t eq = item.find('=');
    if (eq == std::string::npos) {
      error = "expected key=value, got '" + item + "'";
      return false;
    }
    double value = 0.0;
    if (!util::parse_double(item.c_str() + eq + 1, &value)) {
      error = "bad number in '" + item + "'";
      return false;
    }
    const std::string key = item.substr(0, eq);
    if (std::find(keys.begin(), keys.end(), key) == keys.end()) {
      error = "unknown fault key '" + key + "'";
      return false;
    }
    if (!set_param(cfg, key, value, error)) return false;
  }
  return true;
}

/// The parameter flags, in usage order.
const ParamFlag kParamFlags[] = {
    {"--mode", "mode", "uncoordinated|coop|full", "run mode (default full)"},
    {"--beta", "beta", "<beta_max>", "(default 2)"},
    {"--gossip", "gossip", "", "global balancing strategy"},
    {"--horizon", "horizon", "<seconds>", "simulated span"},
    {"--sample", "sample", "<seconds>", "snapshot period (60; 0 = at end)"},
    {"--storage-policy", "coded", "migrate|coded", "(default migrate)"},
    {"--coded-k", "coded_k", "<k>", "erasure geometry k (3)", true},
    {"--coded-n", "coded_n", "<n>", "erasure geometry n (5)", true},
    {"--trc", "trc", "<seconds>", "task period T_rc (1)"},
    {"--dta", "dta", "<ms>", "task assignment delay D_ta (70)", true},
    {"--drain-sinks", "drain_sinks", "<0..4>", "drain sinks (0 = off)", true},
    {"--drain-hops", "drain_hops", "<n>", "drain flood depth (4)", true},
};

}  // namespace

std::vector<std::string> scenario_names() {
  std::vector<std::string> names;
  std::apply([&names](const auto&... s) { (names.emplace_back(s.name), ...); },
             kScenarios);
  return names;
}

std::vector<std::string> param_names(const std::string& scenario) {
  std::vector<std::string> names;
  with_scenario(scenario, [&names](const auto& s) {
    typename std::decay_t<decltype(s)>::Config cfg;
    params(cfg, [&names](const char* n, auto&&, double, double) {
      names.emplace_back(n);
    });
  });
  return names;
}

std::vector<std::string> fault_keys() {
  std::vector<std::string> keys;
  ChaosRunConfig cfg;
  fault_params(cfg, [&keys](const char* n, auto&&, double, double) {
    keys.emplace_back(n);
  });
  return keys;
}

std::vector<std::string> scenarios_declaring(const std::string& name) {
  std::vector<std::string> readers;
  for (const auto& scenario : scenario_names()) {
    const auto names = param_names(scenario);
    if (std::find(names.begin(), names.end(), name) != names.end())
      readers.push_back(scenario);
  }
  return readers;
}


template <class Config>
bool configure(Config& cfg, const std::string& faults,
               const ParamValues& values, std::string& error) {
  if (!parse_fault_spec(faults, cfg, error)) {
    error = "bad faults spec: " + error;
    return false;
  }
  for (const auto& [name, value] : values) {
    if (!set_param(cfg, name, value, error)) return false;
  }
  return cross_check(cfg, error);
}

template bool configure(ChaosRunConfig&, const std::string&,
                        const ParamValues&, std::string&);
template bool configure(IndoorRunConfig&, const std::string&,
                        const ParamValues&, std::string&);
template bool configure(MobileRunConfig&, const std::string&,
                        const ParamValues&, std::string&);
template bool configure(OutdoorRunConfig&, const std::string&,
                        const ParamValues&, std::string&);
template bool configure(VoiceRunConfig&, const std::string&,
                        const ParamValues&, std::string&);

const ParamFlag* find_param_flag(const std::string& flag) {
  for (const ParamFlag& pf : kParamFlags)
    if (flag == pf.flag) return &pf;
  return nullptr;
}

bool add_param_flag(const ParamFlag& pf, const char* text, ParamValues& values,
                    std::string& error) {
  const std::string shown = pf.value;
  const bool number = !shown.empty() && shown.front() == '<';
  double value = 1.0;  // what a switch sets
  int whole = 0;
  if (number && pf.integer) {
    if (!util::parse_flag_value(pf.flag, text, &whole, &error)) return false;
    value = whole;
  } else if (number) {
    if (!util::parse_flag_value(pf.flag, text, &value, &error)) return false;
  } else if (!shown.empty()) {  // a word: the value is its index
    std::istringstream words(shown);
    std::string word;
    value = 0.0;
    while (std::getline(words, word, '|') && word != text) ++value;
    if (word != text) {
      error = std::string("unknown ") + pf.flag + " '" + text + "'";
      return false;
    }
  }
  values.emplace_back(pf.name, value);
  return true;
}

std::string param_flag_usage() {
  std::string usage;
  for (const ParamFlag& pf : kParamFlags) {
    std::string line = std::string("  ") + pf.flag + " " + pf.value;
    line.resize(std::max<std::size_t>(line.size() + 1, 34), ' ');
    std::string readers;
    for (const auto& scenario : scenarios_declaring(pf.name))
      readers += (readers.empty() ? "" : " ") + scenario;
    usage += line + "[" + readers + "] " + pf.help + "\n";
  }
  return usage;
}

std::uint64_t derive_run_seed(std::uint64_t base_seed,
                              std::uint64_t run_index) {
  if (run_index == 0) return base_seed;
  // splitmix64: golden-ratio stream step keyed by the run index, then the
  // finalizer — adjacent (base, run) pairs land in unrelated worlds.
  std::uint64_t s = base_seed + run_index * 0x9e3779b97f4a7c15ULL;
  s = (s ^ (s >> 30)) * 0xbf58476d1ce4e5b9ULL;
  s = (s ^ (s >> 27)) * 0x94d049bb133111ebULL;
  return s ^ (s >> 31);
}

RunRecord chaos_run_record(const ChaosRunResult& r) {
  const auto& s = r.final_snapshot;
  const auto& f = s.faults;
  RunRecord rec;
  auto put = [&rec](const char* name, double v) { rec.emplace_back(name, v); };
  put("miss_ratio", s.miss_ratio);
  put("redundancy_ratio", s.redundancy_ratio);
  put("total_messages", static_cast<double>(s.total_messages));
  put("control_messages", static_cast<double>(s.control_messages));
  put("transfer_messages", static_cast<double>(s.transfer_messages));
  put("nodes", static_cast<double>(r.nodes));
  put("live_chunks", static_cast<double>(r.live_chunks));
  put("crashes", f.crashes);
  put("reboots", f.reboots);
  put("permanent_failures", f.permanent_failures);
  put("brownouts", f.brownouts);
  put("clock_steps", f.clock_steps);
  put("downtime_s", f.downtime_total.to_seconds());
  put("chunks_recovered", static_cast<double>(f.chunks_recovered));
  put("recovery_mismatches", static_cast<double>(f.recovery_mismatches));
  put("nodes_down_at_end", r.nodes_down_at_end);
  put("nodes_lost", r.nodes_lost);
  put("transfer_aborts", s.transfer_aborts);
  put("transfer_duplicate_risks", s.transfer_duplicate_risks);
  put("transfer_rx_expired", s.transfer_rx_expired);
  put("transfer_fragments_retried", s.transfer_fragments_retried);
  put("transfer_window_stalls", s.transfer_window_stalls);
  put("transfer_max_in_flight", s.transfer_max_in_flight);
  put("duplicate_copies", static_cast<double>(r.duplicate_copies));
  put("payloads_total", static_cast<double>(r.payloads_total));
  put("payloads_reconstructible",
      static_cast<double>(r.payloads_reconstructible));
  put("payloads_lost_to_death",
      static_cast<double>(r.payloads_lost_to_death));
  put("census_stored_bytes", static_cast<double>(r.census_stored_bytes));
  put("census_original_bytes", static_cast<double>(r.census_original_bytes));
  put("drained_bytes", static_cast<double>(r.drained_bytes));
  put("decode_reconstructed",
      static_cast<double>(r.decode.groups_reconstructed));
  put("decode_partial", static_cast<double>(r.decode.groups_partial));
  put("coded_chunks", r.coded.chunks_coded);
  put("coded_fragments_placed", r.coded.fragments_placed);
  put("coded_fragments_failed", r.coded.fragments_failed);
  put("retrieval_queries_served",
      static_cast<double>(s.retrieval_queries_served));
  put("retrieval_chunks_uploaded",
      static_cast<double>(s.retrieval_chunks_uploaded));
  put("retrieval_chunks_relayed",
      static_cast<double>(s.retrieval_chunks_relayed));
  put("retrieval_relay_fallbacks",
      static_cast<double>(s.retrieval_relay_fallbacks));
  put("retrieval_descriptor_acks",
      static_cast<double>(s.retrieval_descriptor_acks));
  if (r.retrieval_sinks > 0) {
    put("retrieval_sinks", static_cast<double>(r.retrieval_sinks));
    put("retrieval_eligible", static_cast<double>(r.retrieval_eligible));
    put("retrieval_collected", static_cast<double>(r.retrieval_collected));
    put("retrieval_late_arrivals",
        static_cast<double>(r.retrieval_late_arrivals));
    put("retrieval_double_uploads",
        static_cast<double>(r.retrieval_double_uploads));
    put("retrieval_miss_ratio", r.retrieval_miss_ratio);
    put("retrieval_drain_span_s", r.retrieval_drain_span.to_seconds());
  }
  put("executed_events", static_cast<double>(r.executed_events));
  put("live_events_at_end", static_cast<double>(r.live_events_at_end));
  put("stuck_tx_sessions", r.stuck_tx_sessions);
  put("stuck_rx_sessions", r.stuck_rx_sessions);
  put("invariants_hold", r.invariants_hold() ? 1.0 : 0.0);
  return rec;
}

RunRecord indoor_run_record(const IndoorRunResult& r) {
  RunRecord rec;
  if (r.series.empty()) return rec;
  const auto& s = r.series.back();
  rec.emplace_back("miss_ratio", s.miss_ratio);
  rec.emplace_back("redundancy_ratio", s.redundancy_ratio);
  rec.emplace_back("total_messages", static_cast<double>(s.total_messages));
  rec.emplace_back("control_messages",
                   static_cast<double>(s.control_messages));
  rec.emplace_back("transfer_messages",
                   static_cast<double>(s.transfer_messages));
  rec.emplace_back("hearable_s", s.hearable.to_seconds());
  rec.emplace_back("covered_unique_s", s.covered_unique.to_seconds());
  rec.emplace_back("stored_total_s", s.stored_total.to_seconds());
  return rec;
}

RunRecord mobile_run_record(const MobileRunResult& r) {
  RunRecord rec;
  rec.emplace_back("miss_ratio", r.miss_ratio);
  rec.emplace_back("recordings", static_cast<double>(r.recordings.size()));
  rec.emplace_back("event_duration_s",
                   (r.event_end - r.event_start).to_seconds());
  return rec;
}

RunRecord outdoor_run_record(const OutdoorRunResult& r) {
  RunRecord rec;
  const auto& s = r.final_snapshot;
  rec.emplace_back("miss_ratio", s.miss_ratio);
  rec.emplace_back("redundancy_ratio", s.redundancy_ratio);
  rec.emplace_back("total_messages", static_cast<double>(s.total_messages));
  rec.emplace_back("nodes", static_cast<double>(r.positions.size()));
  rec.emplace_back("hottest_node", static_cast<double>(r.hottest));
  return rec;
}

RunRecord voice_run_record(const VoiceRunResult& r) {
  RunRecord rec;
  rec.emplace_back("stitched_coverage", r.stitched_coverage);
  rec.emplace_back("envelope_correlation", r.envelope_correlation);
  return rec;
}

std::string run_record_json(const std::string& scenario, std::uint64_t seed,
                            const RunRecord& rec) {
  std::string out = "{\"scenario\": \"" + scenario +
                    "\", \"seed\": " + std::to_string(seed) +
                    ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, value] : rec) {
    if (!first) out += ", ";
    first = false;
    out += "\"" + name + "\": " + util::format_double(value);
  }
  out += "}}";
  return out;
}

}  // namespace enviromic::core
