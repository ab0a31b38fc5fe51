// Repository benchmark: runs one named workload for a wall-clock budget in a
// fresh single-threaded process and prints its metrics, ending with one JSON
// line. With --trace 0 the line holds the end-to-end metrics, with host times
// scaled to a reference host speed by a probe timed between the worlds; with
// --trace 1 it holds the per-layer ledger (scheduler profiler plus benchmark
// spans), measured on traced passes paired with untraced ones.
//
//   perfbench --workload paper_indoor --seed 7 --seconds 30 --trace 0
//
// See README.md in this directory for the metrics and workloads.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <queue>
#include <string>
#include <utility>
#include <vector>

#include "core/experiment.h"
#include "worlds.h"

namespace {

using perfbench::Clock;
using perfbench::WorldRun;
using perfbench::WorldSpec;
using perfbench::Workload;

/// Passes every run makes, whatever its budget. Pass p runs the workload's
/// worlds for seed derive_run_seed(seed, p), so a run spans many worlds and
/// no single world sets its figures. The simulated outcomes and work counts
/// are summed over exactly these passes, which makes them exact for a seed;
/// passes past them, while the budget lasts, add timing samples only.
std::size_t outcome_passes(Workload w) {
  switch (w) {
    case Workload::kPaperIndoor: return 32;
    case Workload::kPaperOutdoor: return 16;
    case Workload::kChaosRetrieval: return 48;
  }
  return 1;
}

/// A fixed discrete-event kernel, timed before every world of an untraced run
/// to follow the speed the shared host gives the benchmark at that moment. It
/// is the simulator's access pattern in miniature: a binary-heap event queue
/// whose events call through std::function into random records of a node
/// table. It shares no code with the simulator, so no change to the simulator
/// moves it.
class HostProbe {
 public:
  /// Host milliseconds of the fastest of three runs of the kernel, so that a
  /// single interrupt does not read as a slow host. Every run does the same
  /// work.
  double run_ms() {
    double best = kernel_ms();
    for (int i = 1; i < 3; ++i) best = std::min(best, kernel_ms());
    return best;
  }

 private:
  double kernel_ms() {
    using Event = std::pair<std::uint64_t, std::uint32_t>;  // time, actor
    const auto start = Clock::now();
    std::priority_queue<Event, std::vector<Event>, std::greater<>> queue;
    for (std::uint32_t i = 0; i < kActors; ++i) queue.push({i, i});
    std::uint64_t x = 0x2545F4914F6CDD1Dull;  // xorshift64 state
    for (int k = 0; k < kEvents; ++k) {
      const auto [t, actor] = queue.top();
      queue.pop();
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      Record& r = records_[(actor * 2654435761u + x) % records_.size()];
      handlers_[x % handlers_.size()](r, t);
      queue.push({t + 1 + x % 1000, static_cast<std::uint32_t>(x)});
    }
    return std::chrono::duration<double, std::milli>(Clock::now() - start)
        .count();
  }

  struct Record {
    std::uint64_t s[24] = {};
  };
  static constexpr std::uint32_t kActors = 2000;
  static constexpr int kEvents = 15000;
  // 6 MiB, about the simulator's own working set: a table that fits in the
  // core's cache followed the host's slow phases less closely.
  std::vector<Record> records_ = std::vector<Record>(32768);
  std::vector<std::function<void(Record&, std::uint64_t)>> handlers_ = {
      [](Record& r, std::uint64_t t) { r.s[t % 24] += t; },
      [](Record& r, std::uint64_t t) {
        for (std::uint64_t& v : r.s) v ^= t;
      },
      [](Record& r, std::uint64_t t) { r.s[0] = r.s[1] * t + r.s[2]; },
  };
};

/// About HostProbe::run_ms on the development host (4-core Xeon VM). An
/// untraced run multiplies each world's host times by this over the mean of
/// the probe times measured just before and just after the world, which
/// reports them at this reference speed.
constexpr double kProbeReferenceMs = 1.8;

struct Options {
  Workload workload = Workload::kPaperIndoor;
  std::uint64_t seed = 7;
  double seconds = 10.0;
  bool trace = false;
  std::string spans_path;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "paper_indoor|paper_outdoor|chaos_retrieval --seed N "
               "--seconds S --trace 0|1 [--spans FILE]\n",
               why);
  std::exit(2);
}

Options parse_options(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + key).c_str());
    const std::string val = argv[++i];
    char* rest = nullptr;
    if (key == "--workload") {
      const auto w = perfbench::parse_workload(val);
      if (!w) usage(("unknown workload " + val).c_str());
      o.workload = *w;
    } else if (key == "--seed") {
      o.seed = std::strtoull(val.c_str(), &rest, 10);
      if (val.empty() || *rest) usage("--seed takes a whole number");
    } else if (key == "--seconds") {
      o.seconds = std::strtod(val.c_str(), &rest);
      if (val.empty() || *rest || !(o.seconds >= 0)) usage("bad --seconds");
    } else if (key == "--trace") {
      if (val != "0" && val != "1") usage("--trace takes 0 or 1");
      o.trace = val == "1";
    } else if (key == "--spans") {
      o.spans_path = val;
    } else {
      usage(("unknown option " + key).c_str());
    }
  }
  return o;
}

double ratio(double num, double den) { return den != 0.0 ? num / den : 0.0; }

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  if (n == 0) return 0.0;
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double mean(const std::vector<double>& v) {
  double s = 0.0;
  for (double x : v) s += x;
  return v.empty() ? 0.0 : s / static_cast<double>(v.size());
}

/// Linear-interpolated percentile of a sorted sample, q in [0, 1].
double percentile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  return sorted[lo] + (pos - static_cast<double>(lo)) * (sorted[hi] - sorted[lo]);
}

struct Pass {
  std::size_t index = 0;  //!< seeds the pass's worlds
  bool traced = false;
  std::vector<WorldRun> worlds;
  /// Untraced: HostProbe time before each world, and one after the last.
  std::vector<double> probe_ms;

  /// `fn` summed over the pass's worlds.
  template <class Fn>
  double sum(Fn fn) const {
    double s = 0.0;
    for (const WorldRun& w : worlds) s += fn(w);
    return s;
  }

  /// Factor that brings world i's host times to the reference host speed,
  /// from the probes on either side of the world.
  double scale(std::size_t i) const {
    return kProbeReferenceMs / (0.5 * (probe_ms[i] + probe_ms[i + 1]));
  }

  /// `fn` of each world at the reference host speed, summed over the pass.
  template <class Fn>
  double scaled_sum(Fn fn) const {
    double s = 0.0;
    for (std::size_t i = 0; i < worlds.size(); ++i)
      s += fn(worlds[i]) * scale(i);
    return s;
  }
};

/// All passes of one run, with the estimators the metrics are built from.
class Ledger {
 public:
  explicit Ledger(std::size_t outcome_passes) : outcome_passes_(outcome_passes) {}

  void add(Pass p) { passes_.push_back(std::move(p)); }
  std::size_t size() const { return passes_.size(); }

  /// `fn` summed over each selected pass's worlds, one value per pass.
  template <class Fn>
  std::vector<double> per_pass(bool traced, Fn fn) const {
    std::vector<double> out;
    for (const Pass& p : passes_)
      if (p.traced == traced) out.push_back(p.sum(fn));
    return out;
  }

  /// The outcome passes with the given tracing, in seed order.
  std::vector<const Pass*> outcome_set(bool traced) const {
    std::vector<const Pass*> out;
    for (const Pass& p : passes_)
      if (p.traced == traced && p.index < outcome_passes_) out.push_back(&p);
    return out;
  }

  /// An exact work count per pass: `fn` summed over the outcome passes'
  /// worlds, averaged over those passes.
  template <class Fn>
  double exact(bool traced, Fn fn) const {
    std::vector<double> vals;
    for (const Pass* p : outcome_set(traced)) vals.push_back(p->sum(fn));
    return mean(vals);
  }

  /// `fn` at the reference host speed, one value per untraced pass.
  template <class Fn>
  std::vector<double> per_pass_scaled(Fn fn) const {
    std::vector<double> out;
    for (const Pass& p : passes_)
      if (!p.traced) out.push_back(p.scaled_sum(fn));
    return out;
  }

  /// Every run_until slice of the untraced passes at the reference host
  /// speed, sorted.
  std::vector<double> scaled_slices() const {
    std::vector<double> out;
    for (const Pass& p : passes_) {
      if (p.traced) continue;
      for (std::size_t i = 0; i < p.worlds.size(); ++i)
        for (double ms : p.worlds[i].ms.slices) out.push_back(ms * p.scale(i));
    }
    std::sort(out.begin(), out.end());
    return out;
  }

  /// Every HostProbe time of the run.
  std::vector<double> probe_times() const {
    std::vector<double> out;
    for (const Pass& p : passes_)
      out.insert(out.end(), p.probe_ms.begin(), p.probe_ms.end());
    return out;
  }

 private:
  std::size_t outcome_passes_;
  std::vector<Pass> passes_;
};

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

double profile_ms(const WorldRun& w, enviromic::sim::ProfTag tag) {
  return w.profile.lines[static_cast<std::size_t>(tag)].self_ms;
}
double profile_fires(const WorldRun& w, enviromic::sim::ProfTag tag) {
  return static_cast<double>(
      w.profile.lines[static_cast<std::size_t>(tag)].fires);
}
double profile_other_ms(const WorldRun& w) {
  return w.profile.lines.back().self_ms;
}

/// Simulated outcomes over the outcome passes (hearable-time-weighted).
struct Outcomes {
  double miss_ratio = 0.0;
  double redundancy_ratio = 0.0;
  double messages_per_node_h = 0.0;
  double storage_gain_x = 0.0;      //!< paper_indoor only
  double retrieval_complete = 0.0;  //!< chaos_retrieval only
  double retrieval_double_uploads = 0.0;
};

Outcomes outcomes(const std::vector<const Pass*>& passes,
                  const std::vector<std::string>& labels) {
  double hear = 0, uniq = 0, stored = 0, msgs = 0, node_h = 0;
  double base_uniq = 0, base_hear = 0, coop_uniq = 0, coop_hear = 0;
  double eligible = 0, got = 0, doubles = 0;
  for (const Pass* p : passes) {
    for (std::size_t i = 0; i < p->worlds.size(); ++i) {
      const WorldRun& w = p->worlds[i];
      const auto& s = w.final_snapshot;
      hear += s.hearable.to_seconds();
      uniq += s.covered_unique.to_seconds();
      stored += s.stored_total.to_seconds();
      msgs += static_cast<double>(s.total_messages);
      node_h += w.node_hours;
      if (labels[i] == "baseline") {
        base_uniq += s.covered_unique.to_seconds();
        base_hear += s.hearable.to_seconds();
      } else if (labels[i] == "beta_max=2") {
        coop_uniq += s.covered_unique.to_seconds();
        coop_hear += s.hearable.to_seconds();
      }
      eligible += static_cast<double>(w.retrieval.eligible);
      got += static_cast<double>(w.retrieval.collected_eligible);
      doubles += static_cast<double>(w.retrieval.double_uploads);
    }
  }
  Outcomes o;
  o.miss_ratio = 1.0 - ratio(uniq, hear);
  o.redundancy_ratio = ratio(stored - uniq, stored);
  o.messages_per_node_h = ratio(msgs, node_h);
  // (1 - miss at beta_max=2) / (1 - miss at baseline): the paper's gain.
  o.storage_gain_x =
      ratio(ratio(coop_uniq, coop_hear), ratio(base_uniq, base_hear));
  o.retrieval_complete = ratio(got, eligible);
  o.retrieval_double_uploads =
      ratio(doubles, static_cast<double>(passes.size()));
  return o;
}

/// Peak resident set of this process in MiB. Read from VmHWM, which starts
/// afresh at exec; getrusage's ru_maxrss would carry over the launcher's.
double peak_rss_mb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (!f) return 0.0;
  char line[256];
  double kib = 0.0;
  while (std::fgets(line, sizeof line, f)) {
    if (std::sscanf(line, "VmHWM: %lf kB", &kib) == 1) break;
  }
  std::fclose(f);
  return kib / 1024.0;
}

std::string json_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse_options(argc, argv);
  const std::size_t min_passes = outcome_passes(opt.workload);
  std::vector<std::string> labels;
  for (const WorldSpec& w : perfbench::pass_worlds(opt.workload, opt.seed))
    labels.push_back(w.label);

  Ledger ledger(min_passes);
  perfbench::SpanLog spans;
  HostProbe probe;
  std::uint64_t attempted = 0, failed = 0;

  auto run_pass = [&](std::size_t index, bool traced, const Pass* twin) {
    Pass pass;
    pass.index = index;
    pass.traced = traced;
    const auto specs = perfbench::pass_worlds(
        opt.workload, enviromic::core::derive_run_seed(opt.seed, index));
    for (std::size_t i = 0; i < specs.size(); ++i) {
      const WorldSpec& spec = specs[i];
      if (!opt.trace) pass.probe_ms.push_back(probe.run_ms());
      WorldRun w = perfbench::run_world(spec, traced ? &spans : nullptr);
      ++attempted;
      bool ok = true;
      if (!w.census.ok()) {
        ok = false;
        std::fprintf(stderr, "census failed: %s seed %llu: %s\n",
                     spec.label.c_str(),
                     static_cast<unsigned long long>(spec.seed),
                     w.census.failure().c_str());
      }
      // The profiler is RNG-neutral: the traced twin of a world must execute
      // the same simulation as the untraced one.
      if (twin && !perfbench::same_simulation(twin->worlds[i], w)) {
        ok = false;
        std::fprintf(stderr,
                     "determinism mismatch: %s seed %llu: events %llu vs "
                     "%llu\n",
                     spec.label.c_str(),
                     static_cast<unsigned long long>(spec.seed),
                     static_cast<unsigned long long>(w.events),
                     static_cast<unsigned long long>(twin->worlds[i].events));
      }
      if (!ok) ++failed;
      pass.worlds.push_back(std::move(w));
    }
    if (!opt.trace) pass.probe_ms.push_back(probe.run_ms());
    return pass;
  };

  // Passes with fresh seeds until the budget is spent (and at least the
  // outcome passes ran). A traced run pairs every traced pass with an
  // untraced twin on the same seed, alternating which goes first.
  const auto t0 = Clock::now();
  for (std::size_t p = 0;; ++p) {
    if (!opt.trace) {
      ledger.add(run_pass(p, false, nullptr));
    } else {
      const bool traced_first = p % 2 == 1;
      Pass first = run_pass(p, traced_first, nullptr);
      Pass second = run_pass(p, !traced_first, &first);
      ledger.add(std::move(first));
      ledger.add(std::move(second));
    }
    const double elapsed =
        std::chrono::duration<double>(Clock::now() - t0).count();
    if (p + 1 >= min_passes && elapsed >= opt.seconds) break;
  }

  const Outcomes out = outcomes(ledger.outcome_set(false), labels);
  std::vector<Metric> metrics;
  auto put = [&metrics](const char* name, double v, const char* unit) {
    metrics.push_back({name, v, unit});
  };
  std::vector<Metric> extra;  // printed for people, kept out of the JSON line
  bool ledger_ok = true;
  auto wall_ms = [](const WorldRun& w) { return w.ms.wall; };

  if (!opt.trace) {
    const auto sl = ledger.scaled_slices();
    put("wall_s", median(ledger.per_pass_scaled(wall_ms)) / 1000.0, "s");
    put("setup_s",
        median(ledger.per_pass_scaled(
            [](const WorldRun& w) { return w.ms.setup; })) /
            1000.0,
        "s");
    put("slice_p50_ms", percentile(sl, 0.50), "ms");
    put("slice_p95_ms", percentile(sl, 0.95), "ms");
    put("peak_rss_mb", peak_rss_mb(), "MiB");
    put("miss_ratio", out.miss_ratio, "ratio");
    put("redundancy_ratio", out.redundancy_ratio, "ratio");
    put("messages_per_node_h", out.messages_per_node_h, "1/h");
    extra.push_back({"slices", static_cast<double>(sl.size()), "count"});
    // The unscaled pass time and the host speed it was measured at.
    extra.push_back({"unscaled_wall_s",
                     median(ledger.per_pass(false, wall_ms)) / 1000.0, "s"});
    extra.push_back({"probe_ms", median(ledger.probe_times()), "ms"});
    extra.push_back({"storage_gain_x", out.storage_gain_x, "x"});
    extra.push_back({"retrieval_complete", out.retrieval_complete, "ratio"});
    extra.push_back(
        {"retrieval_double_uploads", out.retrieval_double_uploads, "count"});
  } else {
    using enviromic::sim::ProfTag;
    // Host times of the ledger are means over the traced passes, so that the
    // phases and the profiler lines add up.
    auto traced_ms = [&](auto fn) { return mean(ledger.per_pass(true, fn)); };
    auto tag_ms = [&](ProfTag t) {
      return traced_ms([t](const WorldRun& w) { return profile_ms(w, t); });
    };
    auto count = [&](auto fn) { return ledger.exact(true, fn); };
    auto tag_fires = [&](ProfTag t) {
      return count([t](const WorldRun& w) { return profile_fires(w, t); });
    };
    auto snap = [&](auto field) {
      return count([field](const WorldRun& w) {
        return static_cast<double>(w.final_snapshot.*field);
      });
    };
    using Snap = enviromic::core::Metrics::Snapshot;

    const double events =
        count([](const WorldRun& w) { return static_cast<double>(w.events); });
    const double tx = count([](const WorldRun& w) {
      return static_cast<double>(w.channel.transmissions);
    });
    const double rx = count([](const WorldRun& w) {
      return static_cast<double>(w.channel.deliveries);
    });
    const double wall = traced_ms(wall_ms);
    const double setup = traced_ms([](const WorldRun& w) { return w.ms.setup; });
    const double run = traced_ms([](const WorldRun& w) { return w.ms.run; });
    const double met = traced_ms([](const WorldRun& w) { return w.ms.metrics; });
    const double cen = traced_ms([](const WorldRun& w) { return w.ms.census; });
    const double oth = traced_ms([](const WorldRun& w) { return w.ms.other; });
    double tags_total = traced_ms(profile_other_ms);
    for (std::size_t t = 0; t < enviromic::sim::Profiler::kTags; ++t)
      tags_total += tag_ms(static_cast<ProfTag>(t));
    const double phase_gap =
        100.0 * std::fabs(wall - (setup + run + met + cen + oth)) / wall;
    const double profiler_gap = 100.0 * std::fabs(run - tags_total) / run;
    ledger_ok = phase_gap <= perfbench::kPhaseGapTolerancePct &&
                profiler_gap <= perfbench::kProfilerGapTolerancePct;
    const double untraced_wall = median(ledger.per_pass(false, wall_ms));
    const double untraced_run_ms = median(
        ledger.per_pass(false, [](const WorldRun& w) { return w.ms.run; }));

    put("acoustic.detector_pump_ms", tag_ms(ProfTag::kDetectorPump), "ms");
    put("acoustic.detector_polls", tag_fires(ProfTag::kDetectorPump), "count");
    put("net.delivery_ms", tag_ms(ProfTag::kChannelDelivery), "ms");
    put("net.csma_ms", tag_ms(ProfTag::kChannelCsma), "ms");
    put("net.csma_attempts", tag_fires(ProfTag::kChannelCsma), "count");
    put("net.transmissions", tx, "count");
    put("net.deliveries", rx, "count");
    put("net.deliveries_per_tx", ratio(rx, tx), "ratio");
    put("net.loss_collision", count([](const WorldRun& w) {
          return static_cast<double>(w.channel.losses_collision);
        }),
        "count");
    put("net.loss_random", count([](const WorldRun& w) {
          return static_cast<double>(w.channel.losses_random);
        }),
        "count");
    put("net.loss_burst", count([](const WorldRun& w) {
          return static_cast<double>(w.channel.losses_burst);
        }),
        "count");
    put("core.dispatch_ms", tag_ms(ProfTag::kProtocolDispatch), "ms");
    put("core.dispatches", tag_fires(ProfTag::kProtocolDispatch), "count");
    put("sim.events", events, "count");
    put("sim.event_queue_ms", tag_ms(ProfTag::kEventQueue), "ms");
    put("sim.coalesced_timer_ms", tag_ms(ProfTag::kCoalescedTimer), "ms");
    put("sim.coalesced_timer_fires", tag_fires(ProfTag::kCoalescedTimer),
        "count");
    put("sim.other_ms", traced_ms(profile_other_ms), "ms");
    // Untraced run time, so the profiler's own cost stays out of it.
    put("sim.ns_per_event", ratio(untraced_run_ms * 1e6, events), "ns");
    put("metrics.snapshots", count([](const WorldRun& w) {
          return static_cast<double>(w.snapshots);
        }),
        "count");
    put("metrics.snapshot_ms", met, "ms");
    put("core.control_messages", snap(&Snap::control_messages), "count");
    const double transfer_msgs = snap(&Snap::transfer_messages);
    put("core.transfer_messages", transfer_msgs, "count");
    put("core.transfer_retry_ratio",
        ratio(snap(&Snap::transfer_fragments_retried), transfer_msgs), "ratio");
    put("core.transfer_aborts", snap(&Snap::transfer_aborts), "count");
    put("core.transfer_window_stalls", snap(&Snap::transfer_window_stalls),
        "count");
    put("core.retrieval_uploaded", snap(&Snap::retrieval_chunks_uploaded),
        "count");
    put("core.retrieval_relayed", snap(&Snap::retrieval_chunks_relayed),
        "count");
    put("core.retrieval_relay_fallbacks",
        snap(&Snap::retrieval_relay_fallbacks), "count");
    put("core.retrieval_late_arrivals", count([](const WorldRun& w) {
          return static_cast<double>(w.retrieval.late_arrivals);
        }),
        "count");
    put("core.retrieval_drain_span_s", count([](const WorldRun& w) {
          return w.retrieval.drain_span_s;
        }),
        "sim_s");
    put("storage.drain_all_ms",
        traced_ms([](const WorldRun& w) { return w.ms.drain_all; }), "ms");
    put("storage.recover_ms",
        traced_ms([](const WorldRun& w) { return w.ms.recover; }), "ms");
    put("storage.live_chunks", count([](const WorldRun& w) {
          return static_cast<double>(w.census.live_chunks);
        }),
        "count");
    put("storage.chunks_recovered", count([](const WorldRun& w) {
          return static_cast<double>(w.census.chunks_recovered);
        }),
        "count");
    put("phase.wall_ms", wall, "ms");
    put("phase.setup_ms", setup, "ms");
    put("phase.run_ms", run, "ms");
    put("phase.metrics_ms", met, "ms");
    put("phase.census_ms", cen, "ms");
    put("phase.other_ms", oth, "ms");
    put("trace.phase_gap_pct", phase_gap, "%");
    put("trace.profiler_gap_pct", profiler_gap, "%");
    put("trace.overhead_pct",
        100.0 * (median(ledger.per_pass(true, wall_ms)) - untraced_wall) /
            untraced_wall,
        "%");
    put("storage_gain_x", out.storage_gain_x, "x");
    put("retrieval_complete", out.retrieval_complete, "ratio");
    put("retrieval_double_uploads", out.retrieval_double_uploads, "count");

    if (!opt.spans_path.empty()) {
      std::ofstream f(opt.spans_path);
      spans.write_chrome_trace(f);
      if (!f)
        std::fprintf(stderr, "could not write %s\n", opt.spans_path.c_str());
    }
  }

  std::printf("workload %s seed %llu: %zu passes (%zu define the outcomes), "
              "%s\n",
              perfbench::workload_name(opt.workload),
              static_cast<unsigned long long>(opt.seed), ledger.size(),
              min_passes, opt.trace ? "traced + untraced" : "untraced");
  for (const auto* list : {&metrics, &extra})
    for (const Metric& m : *list)
      std::printf("  %-32s %16.6f %s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
  std::printf("  failed/attempted worlds: %llu/%llu%s\n",
              static_cast<unsigned long long>(failed),
              static_cast<unsigned long long>(attempted),
              ledger_ok ? "" : " (ledger out of tolerance)");

  const bool correct = failed == 0 && ledger_ok;
  std::string json = "{\"correct\": " + std::string(correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) +
                     ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i) json += ", ";
    json += "\"" + metrics[i].name + "\": {\"value\": " +
            json_number(metrics[i].value) + ", \"unit\": \"" +
            metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}
