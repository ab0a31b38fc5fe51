// paper — every committed result from one process: the paper's figures and
// the design studies.
//
//   ./build/bench/paper          (from the repository root)
//
// The paper draws Figs 10-14 from one 4400 s indoor study and Figs 16-18
// from one 3 h outdoor deployment, so this driver runs each of those worlds
// once — plus Fig 3's sampler, the Fig 6 sweep, the Fig 7 instance and the
// Fig 8 voice run — and renders every figure from them into
// results/<figure>.txt, with Fig 8's two WAV files beside them. The design
// studies then ablate the paper's mechanisms and run its extensions into
// results/ablation_*.txt and results/ext_*.txt. Every world is seeded, so
// the files are byte-stable from run to run.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <iterator>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "enviromic.h"

using namespace enviromic;

namespace {

/// printf into a figure's stream.
[[gnu::format(printf, 2, 3)]] void outf(std::ostream& os, const char* fmt,
                                        ...) {
  va_list ap;
  va_start(ap, fmt);
  va_list again;
  va_copy(again, ap);
  const int n = std::vsnprintf(nullptr, 0, fmt, ap);
  va_end(ap);
  std::string buf(static_cast<std::size_t>(std::max(n, 0)) + 1, '\0');
  std::vsnprintf(buf.data(), buf.size(), fmt, again);
  va_end(again);
  buf.pop_back();
  os << buf;
}

// Fig 3: measured sampling interval between consecutive samples (nominal
// 10 jiffies) for (a) no communication, (b) sending a packet, (c) receiving
// a packet. Radio activity steals CPU from the sampling timer, so contended
// intervals jump within ~[9, 16] jiffies — the effect that motivates turning
// the radio off completely while recording (paper §III-B.1).
void sampler_case(std::ostream& out, const char* title, bool tx_activity,
                  bool rx_activity, std::uint64_t seed) {
  util::banner(out, title);
  acoustic::JitterSampler sampler{sim::Rng(seed)};
  // The radio event happens right as sampling starts; the stack's
  // processing tail contends with the timer for a stretch of samples, as in
  // the paper's measurement.
  if (tx_activity) {
    sampler.note_radio_activity(sim::Time::millis(2), sim::Time::millis(6));
    sampler.note_radio_activity(sim::Time::millis(18), sim::Time::millis(22));
  }
  if (rx_activity) {
    sampler.note_radio_activity(sim::Time::millis(4), sim::Time::millis(8));
    sampler.note_radio_activity(sim::Time::millis(25), sim::Time::millis(29));
  }
  const auto intervals = sampler.observe_intervals(sim::Time::zero(), 150);

  // Print the series exactly as the figure plots it: sample index vs
  // observed interval (jiffies).
  std::vector<double> as_double;
  outf(out, "sample: interval(jiffies)\n");
  for (std::size_t i = 0; i < intervals.size(); ++i) {
    outf(out, "%3zu:%3lld%s", i, static_cast<long long>(intervals[i]),
         (i % 10 == 9) ? "\n" : "  ");
    as_double.push_back(static_cast<double>(intervals[i]));
  }
  outf(out, "\n");
  auto [lo, hi] = util::minmax(as_double);
  outf(out, "min=%.0f max=%.0f mean=%.2f\n", lo, hi, util::mean(as_double));
}

void fig03_sampling_jitter(std::ostream& out) {
  out << "Fig 3 reproduction: sampling interval under CPU contention\n"
         "(paper: exclusive sampling is fixed at 10 jiffies; sending or\n"
         " receiving a packet makes intervals jump between 9 and 16)\n";
  sampler_case(out, "(a) no communication", false, false, 101);
  sampler_case(out, "(b) sending a packet", true, false, 102);
  sampler_case(out, "(c) receiving a packet", false, true, 103);
}

// Fig 6: recording miss ratio vs expected task assignment delay D_ta for
// task periods T_rc in {0.5, 1.0, 1.5} s. Mobile acoustic source crossing
// the 8x6 testbed at one grid length per second, 9 s event, sensing range
// about one grid length; 15 runs per point with 90% confidence intervals.
//
// Expected shape (paper §IV-A): miss decreases with D_ta, levels off near
// D_ta = 70 ms at ~8% (the initial election delay of ~0.7 s over the 9 s
// event); short T_rc suffers most at small D_ta.
void fig06_miss_vs_dta(std::ostream& out) {
  out << "Fig 6 reproduction: recording miss ratio vs D_ta\n";
  util::Table table({"Trc(s)", "Dta(ms)", "miss_ratio", "ci90", "runs"});
  constexpr int kRuns = 15;
  for (double trc : {0.5, 1.0, 1.5}) {
    for (int dta : {10, 30, 50, 70, 90, 110, 130}) {
      std::vector<double> misses;
      for (int run = 0; run < kRuns; ++run) {
        core::MobileRunConfig cfg;
        cfg.seed = 1000 + static_cast<std::uint64_t>(run);
        cfg.task_period = sim::Time::seconds(trc);
        cfg.task_assign_delay = sim::Time::millis(dta);
        misses.push_back(core::run_mobile(cfg).miss_ratio);
      }
      table.add_row({util::fmt(trc, 1), util::fmt(static_cast<long long>(dta)),
                     util::fmt(util::mean(misses)),
                     util::fmt(util::ci90_halfwidth(misses)),
                     util::fmt(static_cast<long long>(kRuns))});
    }
  }
  table.print(out);
  out << "\n(paper: curves level off by Dta=70ms at ~0.08; at small "
         "Dta shorter task periods miss more)\n";
}

// Fig 7: one instance of recording a mobile acoustic object — which node
// records during which interval, with T_rc = 1 s and D_ta = 70 ms.
// Recordings hand over seamlessly from node to node as the source moves;
// the only gap is the initial leader-election phase.
void fig07_task_timeline(std::ostream& out) {
  out << "Fig 7 reproduction: task timeline for one mobile event\n";
  core::MobileRunConfig cfg;
  cfg.seed = 4242;
  auto res = core::run_mobile(cfg);

  std::sort(res.recordings.begin(), res.recordings.end(),
            [](const auto& a, const auto& b) { return a.start < b.start; });

  outf(out, "event: %.2fs .. %.2fs (duration %.1fs)\n",
       res.event_start.to_seconds(), res.event_end.to_seconds(),
       (res.event_end - res.event_start).to_seconds());
  outf(out, "\n%-6s %-10s %-10s\n", "node", "start(s)", "end(s)");
  for (const auto& r : res.recordings) {
    outf(out, "%-6u %-10.2f %-10.2f\n", r.node, r.start.to_seconds(),
         r.end.to_seconds());
  }

  // ASCII Gantt: one row per participating node, '#' while recording.
  std::vector<net::NodeId> nodes;
  for (const auto& r : res.recordings) {
    if (std::find(nodes.begin(), nodes.end(), r.node) == nodes.end())
      nodes.push_back(r.node);
  }
  const double t0 = 0.0;
  const double t1 = res.event_end.to_seconds() + 2.0;
  const int cols = 90;
  outf(out,
       "\ntimeline ('#'=recording, '|' marks event start/end), "
       "%0.1fs..%0.1fs\n",
       t0, t1);
  for (net::NodeId node : nodes) {
    std::string row(cols, '.');
    for (const auto& r : res.recordings) {
      if (r.node != node) continue;
      int a = static_cast<int>((r.start.to_seconds() - t0) / (t1 - t0) * cols);
      int b = static_cast<int>((r.end.to_seconds() - t0) / (t1 - t0) * cols);
      for (int c = std::max(0, a); c < std::min(cols, b); ++c) row[c] = '#';
    }
    auto mark = [&](sim::Time t) {
      int c = static_cast<int>((t.to_seconds() - t0) / (t1 - t0) * cols);
      if (c >= 0 && c < cols && row[c] == '.') row[c] = '|';
    };
    mark(res.event_start);
    mark(res.event_end);
    outf(out, "node %2u %s\n", node, row.c_str());
  }
  outf(out,
       "\nmiss ratio (gaps/duration): %.3f  (paper: startup-only miss with "
       "Dta=70ms)\n",
       res.miss_ratio);
}

// Render a 0..255-centred waveform as an ASCII envelope (rows = amplitude).
void render_waveform(std::ostream& out, const std::vector<std::uint8_t>& samples,
                     double rate, const char* title) {
  outf(out, "\n%s (%zu samples @ %.0f Hz)\n", title, samples.size(), rate);
  const int cols = 96;
  const int rows = 8;
  const std::size_t per_col = samples.size() / cols + 1;
  std::vector<double> env(cols, 0.0);
  for (std::size_t i = 0; i < samples.size(); ++i) {
    const auto c = std::min<std::size_t>(i / per_col, cols - 1);
    env[c] = std::max(env[c], std::abs(static_cast<double>(samples[i]) - 128.0));
  }
  for (int r = rows; r >= 1; --r) {
    std::string line(cols, ' ');
    for (int c = 0; c < cols; ++c) {
      if (env[c] / 127.0 * rows >= r) line[c] = '#';
    }
    outf(out, "|%s|\n", line.c_str());
  }
  outf(out, "+%s+\n", std::string(cols, '-').c_str());
}

// Fig 8: recording the voice of a moving human — a synthesized syllabic
// "voice" source walks across a 7x4 grid at one grid length per second
// while reading; (a) a reference mote held by the speaker records ground
// truth, (b) EnviroMic nodes record cooperatively and the chunks are
// stitched together by timestamp. The figures' visual similarity becomes an
// envelope-correlation number plus two ASCII waveform envelope plots.
void fig08_voice_stitching(std::ostream& out,
                           const std::filesystem::path& dir) {
  out << "Fig 8 reproduction: voice of a moving human\n";
  core::VoiceRunConfig cfg;
  cfg.seed = 77;
  auto res = core::run_voice(cfg);
  const double rate = acoustic::kSampleRateHz;

  render_waveform(out, res.reference, rate,
                  "(a) recorded by a single held mote");
  render_waveform(out, res.stitched, rate,
                  "(b) recorded by EnviroMic (stitched)");

  outf(out, "\nstitched coverage of event samples: %.1f%%\n",
       res.stitched_coverage * 100.0);
  outf(out, "envelope correlation (50 ms windows): %.3f\n",
       res.envelope_correlation);

  // Export both traces as playable WAV files, like the clips the authors
  // published alongside the paper.
  util::WavData ref{static_cast<std::uint32_t>(rate), res.reference};
  util::WavData stitched{static_cast<std::uint32_t>(rate), res.stitched};
  if (util::wav_write_file((dir / "fig08_reference.wav").string(), ref) &&
      util::wav_write_file((dir / "fig08_enviromic.wav").string(), stitched)) {
    outf(out, "wrote fig08_reference.wav / fig08_enviromic.wav (8-bit PCM)\n");
  }
  outf(out, "(paper: 'the visual similarity of the two figures is obvious')\n");
}

// --- The indoor study behind Figs 10-14: five settings, each run once -------

struct IndoorSetting {
  const char* label;
  core::Mode mode;
  double beta;
};

const IndoorSetting kIndoorSettings[] = {
    {"baseline", core::Mode::kUncoordinated, 2.0},
    {"coop-only", core::Mode::kCooperativeOnly, 2.0},
    {"beta_max=4", core::Mode::kFull, 4.0},
    {"beta_max=3", core::Mode::kFull, 3.0},
    {"beta_max=2", core::Mode::kFull, 2.0},
};
constexpr std::size_t kBeta2 = 4;  //!< the setting Figs 13/14 map

using IndoorStudy = std::vector<core::IndoorRunResult>;

/// Figs 10-12: one column per setting from `first` on, one row every 600 s
/// plus the final sample.
void indoor_table(
    std::ostream& out, const IndoorStudy& study, std::size_t first,
    const std::function<std::string(const core::Metrics::Snapshot&)>& cell) {
  std::vector<std::string> header{"t(s)"};
  for (std::size_t k = first; k < study.size(); ++k)
    header.push_back(kIndoorSettings[k].label);
  util::Table table(std::move(header));
  const auto& series0 = study[first].series;
  for (std::size_t i = 0; i < series0.size(); ++i) {
    if (i % 10 != 9 && i + 1 != series0.size()) continue;  // every 600 s + final
    std::vector<std::string> row{util::fmt(static_cast<long long>(
        std::llround(series0[i].t.to_seconds())))};
    for (std::size_t k = first; k < study.size(); ++k)
      row.push_back(cell(study[k].series[i]));
    table.add_row(std::move(row));
  }
  table.print(out);
}

// Fig 10: acoustic recording miss ratio over the 4400 s indoor experiment
// for five settings: uncoordinated baseline, cooperative recording only,
// and full load balancing with beta_max in {4, 3, 2}.
//
// Expected shape (paper §IV-B): both baselines degrade sharply once the
// four hearers of each source fill their flash (baseline ends ~0.8); the
// load-balanced settings stay low (beta_max=2 below 0.2 — the paper's
// headline "4-fold improvement in effective storage capacity").
void fig10_miss_ratio(std::ostream& out, const IndoorStudy& study) {
  out << "Fig 10 reproduction: recording miss ratio over time\n";
  indoor_table(out, study, 0, [](const core::Metrics::Snapshot& s) {
    return util::fmt(s.miss_ratio);
  });
  const double base_end = study[0].series.back().miss_ratio;
  const double b2_end = study[kBeta2].series.back().miss_ratio;
  outf(out, "\nfinal miss: baseline=%.3f beta_max=2=%.3f\n", base_end, b2_end);
  outf(out, "effective storage (recorded-data) improvement: %.1fx\n",
       (1.0 - b2_end) / std::max(1e-9, 1.0 - base_end));
  outf(out, "(paper: >4x more data recorded with EnviroMic than without)\n");
}

// Fig 11: acoustic recording redundancy ratio over time for the same five
// settings as Fig 10.
//
// Expected shape (paper §IV-B): the uncoordinated baseline stabilizes
// around its theoretical bound (three out of four hearers are redundant =>
// 0.75; the paper measured ~0.5 because nodes detected events unreliably);
// all cooperative settings are far lower, with smaller beta_max slightly
// higher than cooperative-only because aggressive migration occasionally
// duplicates chunks ("such transfers may not be completely reliable").
void fig11_redundancy(std::ostream& out, const IndoorStudy& study) {
  out << "Fig 11 reproduction: recording redundancy ratio over time\n";
  indoor_table(out, study, 0, [](const core::Metrics::Snapshot& s) {
    return util::fmt(s.redundancy_ratio);
  });
  outf(out,
       "\n(paper: baseline stabilizes near its redundancy bound; all "
       "cooperative settings are several times lower)\n");
}

// Fig 12: cumulative number of messages (task assignment + load transfer)
// over time for cooperative-only and beta_max in {4, 3, 2}. The baseline is
// omitted exactly as in the paper: it sends no control messages at all.
//
// Expected shape (paper §IV-B): counts grow roughly linearly with time
// (events arrive at a constant rate) and order by aggressiveness:
// beta_max=2 > beta_max=3 > beta_max=4 > cooperative-only.
void fig12_messages(std::ostream& out, const IndoorStudy& study) {
  out << "Fig 12 reproduction: cumulative control+transfer messages\n";
  indoor_table(out, study, 1, [](const core::Metrics::Snapshot& s) {
    return util::fmt(static_cast<long long>(s.total_messages));
  });
  outf(out, "\nfinal breakdown (control vs transfer family):\n");
  for (std::size_t k = 1; k < study.size(); ++k) {
    const auto& last = study[k].series.back();
    outf(out, "  %-11s control=%-8llu transfer=%-8llu total=%llu\n",
         kIndoorSettings[k].label,
         static_cast<unsigned long long>(last.control_messages),
         static_cast<unsigned long long>(last.transfer_messages),
         static_cast<unsigned long long>(last.total_messages));
  }
  outf(out, "(paper: near-linear growth; lower beta_max sends the most)\n");
}

/// Figs 13/14: one per-node quantity of the beta_max=2 run as a contour at
/// t = 1500 s, 3000 s and 4400 s. `title_fmt` takes the snapshot time and
/// the grid total divided by `total_unit`.
void indoor_contours(std::ostream& out, const core::IndoorRunResult& res,
                     std::vector<std::uint64_t> core::Metrics::Snapshot::*field,
                     const char* title_fmt, double total_unit,
                     const char* values_title) {
  const double snap_times[] = {1500.0, 3000.0, 4400.0};
  for (double want : snap_times) {
    const core::Metrics::Snapshot* snap = nullptr;
    for (const auto& s : res.series) {
      if (std::abs(s.t.to_seconds() - want) < 31.0) snap = &s;
    }
    if (!snap) snap = &res.series.back();
    util::Grid grid(static_cast<std::size_t>(res.grid_nx),
                    static_cast<std::size_t>(res.grid_ny));
    const auto& values = (*snap).*field;
    for (std::size_t i = 0; i < values.size(); ++i) {
      const std::size_t gx = i % res.grid_nx;
      const std::size_t gy = i / res.grid_nx;
      grid.at(gx, gy) = static_cast<double>(values[i]);
    }
    char title[96];
    std::snprintf(title, sizeof title, title_fmt, snap->t.to_seconds(),
                  grid.total() / total_unit);
    out << '\n';
    util::render_contour(out, grid, title);
    util::render_values(out, grid, values_title);
  }
}

// Fig 13: spatial distribution of storage occupancy (bytes per node) at
// t = 1500 s, 3000 s and 4400 s of the indoor run with beta_max = 2.
//
// Expected shape (paper §IV-B): data spreads out over the whole grid even
// though the two sources are localized; the regions around the sources stay
// densest; late in the run quiet corners get loaded up too (the boundary
// effect the paper notes in Fig 13(c)).
void fig13_storage_contour(std::ostream& out, const IndoorStudy& study) {
  out << "Fig 13 reproduction: spatial storage occupancy, beta_max=2\n";
  indoor_contours(out, study[kBeta2],
                  &core::Metrics::Snapshot::per_node_used_bytes,
                  "(t = %.0fs) storage occupancy in bytes, total %.0f KB",
                  1024.0, "  per-node bytes:");
  out << "\n(sources sit near grid cells (2.5,1.5) and (5.5,3.5); the "
         "paper observes even spreading with the densest areas near "
         "the sources and a late boundary effect)\n";
}

// Fig 14: spatial distribution of load-transfer overhead — the number of
// messages each node sent — at t = 1500 s, 3000 s and 4400 s (beta_max=2).
//
// Expected shape (paper §IV-B): nodes near the event sources send far more
// messages than the rest (they record the most and shed the most data), and
// per-node message counts correlate with storage occupancy.
void fig14_overhead_contour(std::ostream& out, const IndoorStudy& study) {
  out << "Fig 14 reproduction: spatial message overhead, beta_max=2\n";
  indoor_contours(out, study[kBeta2],
                  &core::Metrics::Snapshot::per_node_packets_sent,
                  "(t = %.0fs) packets sent per node, total %.0f", 1.0,
                  "  per-node packets sent:");
  out << "\n(paper: nodes near sources generate significantly more "
         "messages; message counts correlate with storage occupancy)\n";
}

// --- The outdoor forest behind Figs 16-18, run once ------------------------

// Fig 16: outdoor deployment — amount of acoustic event data recorded per
// minute over the ~3 hour forest run (36 motes, 105x105 ft plot).
//
// Expected shape (paper §IV-C): background activity of a few seconds per
// minute (birds, road) with two pronounced spikes: a colleague's experiment
// around minutes 45-55 (11:30-11:40) and heavy agrarian equipment around
// minutes 90-120 (12:15-12:45) containing events up to 73 s long.
void fig16_outdoor_temporal(std::ostream& out,
                            const core::OutdoorRunResult& res) {
  out << "Fig 16 reproduction: recorded seconds per minute (outdoor)\n";
  const auto& series = res.recorded_seconds_per_minute;
  double peak = 1.0;
  for (double v : series) peak = std::max(peak, v);

  outf(out, "\nminute(from 10:45) : recorded seconds/minute (bar)\n");
  for (std::size_t m = 0; m < series.size(); ++m) {
    const int bars = static_cast<int>(series[m] / peak * 60.0);
    outf(out, "%4zu  %6.1f  %s\n", m, series[m],
         std::string(bars, '#').c_str());
  }

  // Spike summary.
  auto window_sum = [&](std::size_t a, std::size_t b) {
    double s = 0;
    for (std::size_t m = a; m < std::min(b, series.size()); ++m) s += series[m];
    return s;
  };
  const double quiet = window_sum(0, 40) / 40.0;
  const double spike1 = window_sum(45, 56) / 11.0;
  const double spike2 = window_sum(90, 121) / 31.0;
  outf(out,
       "\nmean recorded s/min: quiet(0-40)=%.1f spike1(45-55)=%.1f "
       "spike2(90-120)=%.1f\n",
       quiet, spike1, spike2);
  outf(out,
       "(paper: two spikes at 11:30-11:40 and 12:15-12:45 over a low "
       "background)\n");
}

// Fig 17: outdoor deployment — spatial contour of the amount of acoustic
// data generated (recorded) at each location over the 3 hour run.
//
// Expected shape (paper §IV-C): two high-volume regions — one along the
// west side (vehicles on the road) and one matching the trail through the
// forest.
void fig17_outdoor_spatial(std::ostream& out, const core::OutdoorRunResult& res,
                           double plot_ft) {
  out << "Fig 17 reproduction: spatial distribution of generated data\n";
  // Rasterize irregular node positions onto a coarse grid for the contour.
  const std::size_t cells = 12;
  util::Grid grid(cells, cells);
  const double cell_ft = plot_ft / static_cast<double>(cells);
  for (std::size_t i = 0; i < res.positions.size(); ++i) {
    const auto id = static_cast<net::NodeId>(i + 1);
    if (id >= res.recorded_seconds_by_node.size()) continue;
    const auto& p = res.positions[i];
    const auto gx = std::min<std::size_t>(
        cells - 1, static_cast<std::size_t>(p.x / cell_ft));
    const auto gy = std::min<std::size_t>(
        cells - 1, static_cast<std::size_t>(p.y / cell_ft));
    grid.at(gx, gy) += res.recorded_seconds_by_node[id];
  }
  util::render_contour(out, grid,
                       "recorded seconds by origin location (west = left)");

  outf(out, "\nper-node recorded audio (seconds):\n");
  for (std::size_t i = 0; i < res.positions.size(); ++i) {
    const auto id = static_cast<net::NodeId>(i + 1);
    outf(out, "  node %2u at (%5.1f, %5.1f): %7.1f s\n", id, res.positions[i].x,
         res.positions[i].y,
         id < res.recorded_seconds_by_node.size()
             ? res.recorded_seconds_by_node[id]
             : 0.0);
  }

  // West-edge vs interior comparison (the road effect).
  double west = 0, rest = 0;
  int west_n = 0, rest_n = 0;
  for (std::size_t i = 0; i < res.positions.size(); ++i) {
    const auto id = static_cast<net::NodeId>(i + 1);
    const double v = id < res.recorded_seconds_by_node.size()
                         ? res.recorded_seconds_by_node[id]
                         : 0.0;
    if (res.positions[i].x < plot_ft * 0.25) {
      west += v;
      ++west_n;
    } else {
      rest += v;
      ++rest_n;
    }
  }
  outf(out, "\nmean recorded s/node: west quarter=%.1f elsewhere=%.1f\n",
       west_n ? west / west_n : 0.0, rest_n ? rest / rest_n : 0.0);
  outf(out,
       "(paper: high-volume regions on the west side (road) and along the "
       "trail)\n");
}

// Fig 18: outdoor deployment — distribution of the data migrated away from
// the hottest node (the one that recorded the largest volume) for load
// balancing: how many bytes of its recordings ended up at each other node.
//
// Expected shape (paper §IV-C): most data lands on immediate neighbours,
// with some pushed further out by cascaded transfers.
void fig18_migration(std::ostream& out, const core::OutdoorRunResult& res) {
  out << "Fig 18 reproduction: migration away from the hottest node\n";
  const net::NodeId hot = res.hottest;
  if (hot == net::kInvalidNode || hot == 0 || hot > res.positions.size()) {
    outf(out, "no hot spot found (no data recorded)\n");
    return;
  }
  const auto& hot_pos = res.positions[hot - 1];
  outf(out, "hottest recorder: node %u at (%.1f, %.1f), %.1f s recorded\n",
       hot, hot_pos.x, hot_pos.y, res.recorded_seconds_by_node[hot]);

  struct Row {
    net::NodeId id;
    double dist;
    std::uint64_t bytes;
  };
  std::vector<Row> rows;
  for (std::size_t i = 0; i < res.positions.size(); ++i) {
    const auto id = static_cast<net::NodeId>(i + 1);
    if (id == hot || id >= res.hotspot_bytes_at_node.size()) continue;
    rows.push_back(Row{id, sim::distance(res.positions[i], hot_pos),
                       res.hotspot_bytes_at_node[id]});
  }
  std::sort(rows.begin(), rows.end(),
            [](const Row& a, const Row& b) { return a.dist < b.dist; });

  util::Table table({"node", "distance(ft)", "bytes_from_hotspot", "KB"});
  std::uint64_t total = 0;
  for (const auto& r : rows) {
    if (r.bytes == 0 && r.dist > 60.0) continue;
    table.add_row({util::fmt(static_cast<long long>(r.id)),
                   util::fmt(r.dist, 1),
                   util::fmt(static_cast<long long>(r.bytes)),
                   util::fmt(static_cast<double>(r.bytes) / 1024.0, 1)});
    total += r.bytes;
  }
  table.print(out);
  outf(out, "\ntotal migrated from node %u: %.1f KB\n", hot,
       static_cast<double>(total) / 1024.0);

  // Near vs far split.
  std::uint64_t near = 0, far = 0;
  for (const auto& r : rows) {
    (r.dist <= 40.0 ? near : far) += r.bytes;
  }
  outf(out,
       "within radio range (<=40 ft): %.1f KB, beyond (cascaded): %.1f KB\n",
       static_cast<double>(near) / 1024.0, static_cast<double>(far) / 1024.0);
  outf(out,
       "(paper: the hot node migrates a lot to immediate neighbours, which "
       "migrate some of it further)\n");
}

// --- Design studies: the paper's mechanisms ablated, its extensions run ------

/// The indoor testbed five studies build by hand, because they read per-node
/// state that run_indoor does not keep: the 8x6 grid at 2 ft with `params`
/// on every mote and the indoor event plan over `horizon_s` seconds
/// scheduled, from Fig 9's two cell-centred sources unless `events` names
/// its own. The world comes back unstarted.
std::unique_ptr<core::World> indoor_testbed(
    std::uint64_t seed, const core::NodeParams& params, int horizon_s,
    core::IndoorEventPlanConfig events = {}) {
  core::WorldConfig wc;
  wc.seed = seed;
  wc.node_defaults = params;
  auto world = std::make_unique<core::World>(wc);
  core::grid_deployment(*world, 8, 6, 2.0);
  events.horizon = sim::Time::seconds_i(horizon_s);
  if (events.generators.empty()) events.generators = {{5, 3}, {11, 7}};
  core::schedule_indoor_events(*world, events, world->rng().fork("plan"));
  return world;
}

/// Messages every mote's radio sent so far, over all message types.
std::uint64_t messages_sent(core::World& world) {
  std::uint64_t n = 0;
  for (std::size_t i = 0; i < world.node_count(); ++i) {
    const auto& ms = world.node(i).radio().stats().messages_sent;
    for (std::size_t t = 0; t < net::kMessageTypeCount; ++t) n += ms[t];
  }
  return n;
}

// Ablation: the prelude optimization (paper §II-A.1). Leader election takes
// ~0.7 s, so the beginning of every event is lost unless nodes record a
// short prelude locally before coordinating. The paper predicts: "the length
// of the prelude can be chosen such that short-term events are fully
// recorded with high probability". Sweeps event duration and reports
// gap-based miss with the prelude on and off.
double prelude_miss(double duration_s, bool prelude, std::uint64_t seed) {
  core::WorldConfig wc;
  wc.seed = seed;
  wc.node_defaults = core::paper_node_params(core::Mode::kCooperativeOnly, 2.0);
  wc.node_defaults.protocol.prelude_enabled = prelude;
  core::World world(wc);
  core::grid_deployment(world, 4, 4, 2.0);
  world.add_source(
      std::make_shared<acoustic::StaticTrajectory>(sim::Position{3, 3}),
      std::make_shared<acoustic::ConstantWave>(1.0), sim::Time::seconds_i(5),
      sim::Time::seconds(5.0 + duration_s), 1.0, 2.0);
  world.start();
  world.run_until(sim::Time::seconds(12.0 + duration_s));

  util::IntervalSet recorded;
  for (const auto& act : world.metrics().recording_log()) {
    if (act.appended) recorded.add(act.start, act.end);
  }
  const double covered =
      recorded
          .measure_within(sim::Time::seconds_i(5),
                          sim::Time::seconds(5.0 + duration_s))
          .to_seconds();
  return 1.0 - covered / duration_s;
}

void ablation_prelude(std::ostream& out) {
  out << "Ablation: prelude recording vs startup miss\n"
         "(paper SII-A.1: the prelude eliminates the election-delay "
         "miss, most valuable for short events)\n\n";
  util::Table table({"event(s)", "miss_no_prelude", "miss_prelude", "runs"});
  constexpr int kRuns = 15;
  for (double dur : {1.0, 2.0, 3.0, 5.0, 9.0, 15.0}) {
    std::vector<double> off, on;
    for (int r = 0; r < kRuns; ++r) {
      const auto seed = 3000 + static_cast<std::uint64_t>(r);
      off.push_back(prelude_miss(dur, false, seed));
      on.push_back(prelude_miss(dur, true, seed));
    }
    table.add_row({util::fmt(dur, 1), util::fmt(util::mean(off)),
                   util::fmt(util::mean(on)),
                   util::fmt(static_cast<long long>(kRuns))});
  }
  table.print(out);
  out << "\n(expected: without the prelude, miss ~ election_delay/"
         "duration — severe for 1-2 s events; with it, near zero "
         "everywhere)\n";
}

// Ablation: recorder-selection policy (paper §II-A.2 offers two: the member
// with the highest TTL, or the one with the best acoustic reception).
// Highest-TTL equalizes storage across the hearers (delaying overflow);
// best-signal yields higher mean reception quality of the stored audio.
// This study quantifies both sides of the trade on the indoor workload.
void ablation_policy(std::ostream& out) {
  out << "Ablation: recorder selection policy (highest-TTL vs "
         "best-signal)\n\n";
  util::Table table({"policy", "miss", "hearer_storage_cv", "reception_score"});
  constexpr int kRuns = 5;
  // Off-centre within its cell so the four hearers differ in proximity and
  // the best-signal policy has something to prefer.
  const sim::Position source{4.5, 2.6};
  constexpr double kRange = 2.8;
  for (auto [policy, name] :
       {std::pair{core::RecorderPolicy::kHighestTtl, "highest-ttl"},
        std::pair{core::RecorderPolicy::kBestSignal, "best-signal"}}) {
    double miss = 0.0;
    double storage_imbalance = 0.0;  // cv of used bytes among hearers
    double mean_signal = 0.0;        // mean source-recorder proximity score
    for (int r = 0; r < kRuns; ++r) {
      auto params = core::paper_node_params(core::Mode::kCooperativeOnly, 2.0);
      params.protocol.recorder_policy = policy;
      core::IndoorEventPlanConfig events;
      events.generators = {source};
      events.audible_range = kRange;
      auto world = indoor_testbed(4000 + static_cast<std::uint64_t>(r), params,
                                  1500, events);
      world->start();
      world->run_until(sim::Time::seconds_i(1500));
      miss += world->snapshot().miss_ratio / kRuns;

      // Storage spread among the hearers.
      std::vector<double> used;
      for (std::size_t i = 0; i < world->node_count(); ++i) {
        auto& n = world->node(i);
        if (sim::distance(n.position(), source) < kRange)
          used.push_back(static_cast<double>(n.store().used_bytes()));
      }
      const double m = util::mean(used);
      storage_imbalance += (m > 0 ? util::stddev(used) / m : 0.0) / kRuns;

      // Reception proxy: 1 - distance/range from the source for each
      // recording.
      std::vector<double> prox;
      for (const auto& act : world->metrics().recording_log()) {
        if (!act.appended) continue;
        const auto* n = world->by_id(act.node);
        if (!n) continue;
        const double d = sim::distance(n->position(), source);
        prox.push_back(std::max(0.0, 1.0 - d / kRange));
      }
      mean_signal += util::mean(prox) / kRuns;
    }
    table.add_row({name, util::fmt(miss), util::fmt(storage_imbalance),
                   util::fmt(mean_signal)});
  }
  table.print(out);
  out << "\n(expected: highest-TTL spreads storage more evenly across "
         "hearers; best-signal records from closer nodes)\n";
}

// Ablation: the neighbourhood broadcast module's piggybacking (paper §III-A:
// "this mechanism is especially effective when a lot of activities are
// happening"). Same indoor workload with and without piggybacking; compares
// packets on the air and piggybacked message counts.
void ablation_piggyback(std::ostream& out) {
  out << "Ablation: neighbourhood-broadcast piggybacking\n\n";
  util::Table table(
      {"piggyback", "packets", "messages", "piggybacked", "miss"});
  for (bool on : {true, false}) {
    auto params = core::paper_node_params(core::Mode::kFull, 2.0);
    params.nb.piggyback_enabled = on;
    auto world = indoor_testbed(5001, params, 1500);
    world->start();
    world->run_until(sim::Time::seconds_i(1500));
    const double miss = world->snapshot().miss_ratio;
    std::uint64_t packets = 0;
    std::uint64_t piggybacked = 0;
    for (std::size_t i = 0; i < world->node_count(); ++i) {
      auto& n = world->node(i);
      packets += n.radio().stats().packets_sent;
      piggybacked += n.nb().stats().piggybacked_messages;
    }
    table.add_row({on ? "on" : "off",
                   util::fmt(static_cast<long long>(packets)),
                   util::fmt(static_cast<long long>(messages_sent(*world))),
                   util::fmt(static_cast<long long>(piggybacked)),
                   util::fmt(miss)});
  }
  table.print(out);
  out << "\n(expected: with piggybacking on, fewer packets carry the "
         "same messages — beacons and sync ride on SENSING traffic)\n";
}

// Ablation: controlled recording redundancy (paper footnote 1 and §VI:
// "Defunct or lost motes can cause data loss. In this case, a controlled
// data redundancy may become desirable"). Records a workload with 1 or 2
// replicas per task, then loses motes (with their data) one at a time and
// measures how much event coverage survives after 1, 2 and 4 losses. A
// smaller loss count's victims are a prefix of a larger one's, so each
// world is run once and snapshotted along the way.
void ablation_redundancy(std::ostream& out) {
  out << "Ablation: controlled recording redundancy vs lost motes\n\n";
  util::Table table(
      {"replicas", "lost_motes", "coverage_survival", "storage_cost_x"});
  constexpr int kRuns = 5;
  constexpr std::size_t kLosses[] = {1, 2, 4};
  for (int replicas : {1, 2}) {
    double survival[std::size(kLosses)] = {};  // covered after / before loss
    double stored_ratio = 0.0;  // stored time / unique time (storage cost)
    for (int r = 0; r < kRuns; ++r) {
      const auto seed = 6000 + static_cast<std::uint64_t>(r);
      auto params = core::paper_node_params(core::Mode::kCooperativeOnly, 2.0);
      params.protocol.recording_replicas = replicas;
      auto world = indoor_testbed(seed, params, 900);
      world->start();
      world->run_until(sim::Time::seconds_i(900));

      const auto before = world->snapshot();
      const double cb = before.covered_unique.to_seconds();
      stored_ratio +=
          (cb > 0 ? before.stored_total.to_seconds() / cb : 0.0) / kRuns;
      // Lose random motes, preferring ones that actually hold data (a fair
      // adversary for both settings).
      sim::Rng rng(seed ^ 0xDEAD);
      std::set<net::NodeId> dead;
      int attempts = 0;
      for (std::size_t k = 0; k < std::size(kLosses); ++k) {
        while (dead.size() < kLosses[k] && attempts++ < 1000) {
          const auto idx = static_cast<std::size_t>(rng.uniform_int(
              0, static_cast<std::int64_t>(world->node_count()) - 1));
          auto& n = world->node(idx);
          if (n.store().chunk_count() == 0 || dead.count(n.id())) continue;
          n.fail(/*lose_data=*/true);
          dead.insert(n.id());
        }
        const auto after = world->snapshot();
        survival[k] +=
            (cb > 0 ? after.covered_unique.to_seconds() / cb : 1.0) / kRuns;
      }
    }
    for (std::size_t k = 0; k < std::size(kLosses); ++k) {
      table.add_row({util::fmt(static_cast<long long>(replicas)),
                     util::fmt(static_cast<long long>(kLosses[k])),
                     util::fmt(survival[k]), util::fmt(stored_ratio, 2)});
    }
  }
  table.print(out);
  out << "\n(expected: replicas=2 roughly doubles stored bytes but "
         "keeps coverage high when motes are lost)\n";
}

// Ablation: chunk compression (paper §V: compression "can be easily
// integrated into EnviroMic to further reduce the data volume to be stored
// in network"). A voice-like workload with real pauses, tight flash,
// cooperative-only mode: compression stretches the effective storage
// capacity, visible as a lower miss ratio at the end of the run and fewer
// stored bytes per second of audio.
void ablation_compression(std::ostream& out) {
  out << "Ablation: chunk compression under tight flash\n\n";
  util::Table table({"codec", "bytes_per_audio_s", "covered_s", "miss"});
  for (auto codec : {storage::CodecKind::kNone, storage::CodecKind::kRle,
                     storage::CodecKind::kDelta}) {
    constexpr std::uint64_t kSeed = 7001;
    core::WorldConfig wc;
    wc.seed = kSeed;
    wc.background_level = 0.002;  // quiet habitat: silence compresses
    wc.node_defaults =
        core::paper_node_params(core::Mode::kCooperativeOnly, 2.0);
    wc.node_defaults.flash.store_payloads = true;
    wc.node_defaults.flash.capacity_bytes = 96 * 1024;  // tight storage
    wc.node_defaults.protocol.chunk_codec = codec;
    core::World world(wc);
    core::grid_deployment(world, 8, 6, 2.0);

    // Voice-like events (birdsong with pauses) at one generator.
    sim::Rng rng(kSeed ^ 0xC0DEC);
    double t = 15.0;
    while (t < 1800.0) {
      const double dur = rng.uniform(4.0, 8.0);
      world.add_source(
          std::make_shared<acoustic::StaticTrajectory>(sim::Position{5, 3}),
          std::make_shared<acoustic::VoiceWave>(rng.next_u64()),
          sim::Time::seconds(t), sim::Time::seconds(t + dur), 1.0, 2.0);
      t += rng.uniform(15.0, 30.0);
    }
    world.start();
    world.run_until(sim::Time::seconds_i(1800));

    const auto snap = world.snapshot();
    std::uint64_t stored = 0;
    for (std::size_t i = 0; i < world.node_count(); ++i) {
      stored += world.node(i).store().used_payload_bytes();
    }
    const double stored_time = snap.stored_total.to_seconds();
    const double bytes_per_s =
        stored_time > 0 ? static_cast<double>(stored) / stored_time : 0.0;
    table.add_row({storage::codec_name(codec), util::fmt(bytes_per_s, 1),
                   util::fmt(snap.covered_unique.to_seconds(), 1),
                   util::fmt(snap.miss_ratio)});
  }
  table.print(out);
  out << "\n(expected: delta coding stores fewer bytes per second of "
         "audio, postponing overflow => lower miss; raw 2730 B/s)\n";
}

// Extension: data-mule retrieval (paper §I/§II-C — "data retrieval is done
// either by occasionally sending data mules into the field or by physically
// collecting the sensor nodes"). Tight per-node flash with a steady event
// workload: without visits the network saturates and loses data; periodic
// mule sweeps harvest (and free) stored chunks, so total retrieved coverage
// keeps growing. Sweeps the visit cadence.
void ext_data_mule(std::ostream& out) {
  out << "Extension: data-mule visits vs retrieved coverage\n"
         "(48 KB flash per node — ~18 s of audio — over a 40 min "
         "workload)\n\n";
  util::Table table({"visits", "retrieved_miss", "in_network_miss",
                     "harvested_KB"});
  for (int visits : {0, 1, 2, 4, 8}) {
    auto params = core::paper_node_params(core::Mode::kCooperativeOnly, 2.0);
    params.flash.capacity_bytes = 48 * 1024;  // ~18 s audio/node
    auto world = indoor_testbed(8001, params, 2400);
    std::vector<std::unique_ptr<core::DataMule>> mules;
    for (int v = 0; v < visits; ++v) {
      core::MuleConfig mc;
      mc.mule_id = static_cast<net::NodeId>(60000 + v);
      mc.speed_ft_s = 1.5;
      const double at = 2400.0 * (v + 1) / (visits + 1);
      // The mule sweeps an S through both source regions.
      mules.push_back(std::make_unique<core::DataMule>(
          *world,
          std::vector<sim::Position>{{-3, 3}, {15, 3}, {15, 7}, {-3, 7}},
          sim::Time::seconds(at), mc));
    }
    world->start();
    for (auto& m : mules) m->start();
    world->run_until(sim::Time::seconds_i(2400));

    std::vector<storage::ChunkMeta> collected;
    std::uint64_t harvested_bytes = 0;
    for (const auto& m : mules) {
      collected.insert(collected.end(), m->collected_metas().begin(),
                       m->collected_metas().end());
      harvested_bytes += m->bytes_collected();
    }
    // In-network miss counts only what is still stored; retrieved miss
    // counts the mules' haul as retrieved too.
    const double in_network_miss = world->snapshot().miss_ratio;
    const double retrieved_miss = world->snapshot_with(collected).miss_ratio;
    table.add_row({util::fmt(static_cast<long long>(visits)),
                   util::fmt(retrieved_miss), util::fmt(in_network_miss),
                   util::fmt(static_cast<double>(harvested_bytes) / 1024.0,
                             1)});
  }
  table.print(out);
  out << "\n(expected: with no visits the tight flash saturates; each "
         "sweep drains the hot nodes, so total retrieved coverage "
         "improves with visit frequency)\n";
}

// Extension: global (gossip) vs local-greedy storage balancing — the paper's
// named future work (§VI: "more intelligent storage balancing algorithms,
// such as ... global (as opposed to local greedy) load-balancing"). A
// clustered hot region (both generators close together in one corner)
// stresses the local rule: the hot nodes' immediate ring fills too, and
// pairwise TTL comparisons see little slack nearby. The gossip strategy
// estimates the network-wide mean free space and keeps pushing outward.
void ext_global_balancing(std::ostream& out) {
  out << "Extension: local-greedy vs global-gossip balancing\n"
         "(clustered hot corner, 128 KB flash, 40 min workload)\n\n";
  util::Table table({"strategy", "miss", "storage_spread_cv", "messages"});
  constexpr int kRuns = 3;
  for (auto strategy : {core::BalanceStrategy::kLocalGreedy,
                        core::BalanceStrategy::kGlobalGossip}) {
    double miss = 0.0;
    double spread_cv = 0.0;  // cv of used bytes over all nodes (lower=flatter)
    std::uint64_t messages = 0;
    for (int r = 0; r < kRuns; ++r) {
      core::IndoorRunConfig cfg;
      cfg.balance_strategy = strategy;
      cfg.seed = 9000 + static_cast<std::uint64_t>(r);
      cfg.horizon = sim::Time::seconds_i(2400);
      cfg.sample_period = cfg.horizon;
      cfg.flash_scale = 0.25;  // 128 KB
      // Hot corner: both generators in the lower-left quadrant.
      cfg.events.generators = {{3, 3}, {5, 3}};
      const auto res = core::run_indoor(cfg);
      const auto& snap = res.series.back();
      miss += snap.miss_ratio / kRuns;
      messages += snap.total_messages / kRuns;
      const std::vector<double> used(snap.per_node_used_bytes.begin(),
                                     snap.per_node_used_bytes.end());
      const double mean = util::mean(used);
      spread_cv += (mean > 0 ? util::stddev(used) / mean : 0.0) / kRuns;
    }
    table.add_row({core::strategy_name(strategy), util::fmt(miss),
                   util::fmt(spread_cv),
                   util::fmt(static_cast<long long>(messages))});
  }
  table.print(out);
  out << "\n(expected: comparable or lower miss at markedly lower "
         "message cost — the global estimate sheds only when truly "
         "over-loaded; the pairwise rule keeps diffusing data outward, "
         "so it spreads flatter but pays for it in traffic)\n";
}

// Extension: scalability of the simulator and the protocol with network
// size. The paper argues for "deployment of more nodes with smaller
// acoustic ranges" (§I); this study grows the grid while keeping the event
// workload per area constant and reports protocol health (miss ratio,
// per-node message load) and simulation cost as executed events (wall time
// belongs to perf_substrates and perfbench).
void ext_scalability(std::ostream& out) {
  out << "Extension: scalability with network size (600 s workload)\n\n";
  util::Table table({"grid", "nodes", "miss", "msgs/node", "events"});
  const int sizes[][2] = {{4, 3}, {6, 4}, {8, 6}, {12, 8}, {16, 12}};
  for (const auto& [nx, ny] : sizes) {
    core::IndoorRunConfig cfg;
    cfg.seed = 4040;
    cfg.grid_nx = nx;
    cfg.grid_ny = ny;
    cfg.flash_scale = 1.0;
    cfg.horizon = sim::Time::seconds_i(600);
    cfg.sample_period = cfg.horizon;
    // One generator per ~24 cells, at cell centres spread over the grid.
    const int generators = std::max(1, nx * ny / 24);
    for (int g = 0; g < generators; ++g) {
      const double fx = (g % 2 == 0) ? 0.3 : 0.7;
      const double fy = (g / 2 + 1.0) / (generators / 2.0 + 1.5);
      cfg.events.generators.push_back(
          {std::floor(fx * nx) * 2.0 + 1.0, std::floor(fy * ny) * 2.0 + 1.0});
    }
    // Constant event rate per node, hence per area: one event per 960
    // node-seconds, the 20 s gap of the 48-node testbed.
    cfg.events.mean_gap = sim::Time::seconds(960.0 / (nx * ny));
    const auto res = core::run_indoor(cfg);
    const auto& snap = res.series.back();
    char grid[16];
    std::snprintf(grid, sizeof grid, "%dx%d", nx, ny);
    table.add_row(
        {grid, util::fmt(static_cast<long long>(nx * ny)),
         util::fmt(snap.miss_ratio),
         util::fmt(static_cast<double>(snap.total_messages) / (nx * ny), 0),
         util::fmt(static_cast<long long>(res.executed_events))});
  }
  table.print(out);
  out << "\n(expected: miss ratio stays low as the network grows — "
         "coordination is single-hop local, with a mild rise from "
         "inter-group channel contention — and simulation cost grows "
         "~linearly with node count)\n";
}

// Extension: the §II-C retrieval design study, quantified. The paper first
// designed spanning-tree retrieval (flooded query, replies routed up the
// tree, gaps re-flooded), then settled on single-hop because "data retrieval
// occurs very rarely... reducing retrieval energy does not optimize for the
// common case". This study measures the trade the authors weighed:
// completeness from a fixed sink vs message cost, on a multi-hop grid
// filled by a realistic recording workload.
void ext_tree_retrieval(std::ostream& out) {
  out << "Extension: single-hop vs spanning-tree retrieval from a "
         "fixed corner sink\n(8x6 grid, 10 min recording workload)\n\n";
  util::Table table({"hops", "chunks_in_network", "retrieved", "fraction",
                     "retrieval_msgs"});
  for (int hops : {1, 2, 4, 8}) {
    auto world = indoor_testbed(
        2468, core::paper_node_params(core::Mode::kCooperativeOnly, 2.0), 600);
    world->start();
    world->run_until(sim::Time::seconds_i(620));
    const std::size_t in_network = world->drain_all(false).chunk_count();
    const std::uint64_t before = messages_sent(*world);

    // Query from the corner node (id 1 at the grid origin). The paper's
    // scheme repeats until nothing new arrives ("flooded until all parts
    // are retrieved successfully"); per-hop losses make the retries matter.
    std::set<std::uint64_t> got;
    std::size_t prev = static_cast<std::size_t>(-1);
    for (int round = 0; round < 6 && got.size() != prev; ++round) {
      prev = got.size();
      world->node(0).retrieval().start_query(
          sim::Time::zero(), sim::Time::seconds_i(10000),
          static_cast<std::uint8_t>(hops),
          [&](const net::QueryReply& r) { got.insert(r.meta.key); });
      world->run_for(sim::Time::seconds_i(30));
    }
    table.add_row(
        {util::fmt(static_cast<long long>(hops)),
         util::fmt(static_cast<long long>(in_network)),
         util::fmt(static_cast<long long>(got.size())),
         util::fmt(in_network ? static_cast<double>(got.size()) /
                                    static_cast<double>(in_network)
                              : 0.0),
         util::fmt(static_cast<long long>(messages_sent(*world) - before))});
  }
  table.print(out);
  out << "\n(expected: the tree reaches everything from one spot but "
         "pays per-hop relay messages; single-hop is nearly free yet "
         "needs the user to walk the field — the paper's §II-C "
         "trade-off)\n";
}

}  // namespace

int main() {
  const auto started = std::chrono::steady_clock::now();
  const std::filesystem::path dir = "results";
  std::filesystem::create_directories(dir);
  bool ok = true;
  auto write = [&](const char* name,
                   const std::function<void(std::ostream&)>& render) {
    const auto path = dir / (std::string(name) + ".txt");
    std::ofstream out(path, std::ios::trunc);
    render(out);
    out.close();
    if (!out) {
      std::fprintf(stderr, "paper: cannot write %s\n", path.c_str());
      ok = false;
      return;
    }
    std::printf("wrote %s\n", path.c_str());
  };

  write("fig03_sampling_jitter", fig03_sampling_jitter);
  write("fig06_miss_vs_dta", fig06_miss_vs_dta);
  write("fig07_task_timeline", fig07_task_timeline);
  write("fig08_voice_stitching",
        [&](std::ostream& out) { fig08_voice_stitching(out, dir); });

  IndoorStudy indoor;
  for (const auto& s : kIndoorSettings) {
    core::IndoorRunConfig cfg;
    cfg.mode = s.mode;
    cfg.beta_max = s.beta;
    cfg.seed = 7;
    indoor.push_back(core::run_indoor(cfg));
    std::fprintf(stderr, "ran indoor %s\n", s.label);
  }
  write("fig10_miss_ratio",
        [&](std::ostream& out) { fig10_miss_ratio(out, indoor); });
  write("fig11_redundancy",
        [&](std::ostream& out) { fig11_redundancy(out, indoor); });
  write("fig12_messages",
        [&](std::ostream& out) { fig12_messages(out, indoor); });
  write("fig13_storage_contour",
        [&](std::ostream& out) { fig13_storage_contour(out, indoor); });
  write("fig14_overhead_contour",
        [&](std::ostream& out) { fig14_overhead_contour(out, indoor); });

  core::OutdoorRunConfig outdoor_cfg;
  outdoor_cfg.seed = 31;
  const auto outdoor = core::run_outdoor(outdoor_cfg);
  std::fprintf(stderr,
               "ran outdoor: %zu vehicles, %zu walkers, %zu bird calls, %zu "
               "spike events\n",
               outdoor.plan.vehicles, outdoor.plan.walkers, outdoor.plan.birds,
               outdoor.plan.spike_events);
  write("fig16_outdoor_temporal",
        [&](std::ostream& out) { fig16_outdoor_temporal(out, outdoor); });
  write("fig17_outdoor_spatial", [&](std::ostream& out) {
    fig17_outdoor_spatial(out, outdoor, outdoor_cfg.plot_ft);
  });
  write("fig18_migration",
        [&](std::ostream& out) { fig18_migration(out, outdoor); });

  write("ablation_prelude", ablation_prelude);
  write("ablation_policy", ablation_policy);
  write("ablation_piggyback", ablation_piggyback);
  write("ablation_redundancy", ablation_redundancy);
  write("ablation_compression", ablation_compression);
  write("ext_data_mule", ext_data_mule);
  write("ext_global_balancing", ext_global_balancing);
  write("ext_scalability", ext_scalability);
  write("ext_tree_retrieval", ext_tree_retrieval);

  const std::chrono::duration<double> wall =
      std::chrono::steady_clock::now() - started;
  std::printf("paper: %.1f s\n", wall.count());
  return ok ? 0 : 1;
}
