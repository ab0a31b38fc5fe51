// World builders and the host-timed world run behind the repository
// benchmark. Every world is assembled only through the library's public
// calls (World, the deployment and event-plan builders, FaultPlan,
// RetrievalService::start_drain), timed from outside, and checked by a census
// when its run ends.
#pragma once

#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/config.h"
#include "core/metrics.h"
#include "net/channel.h"
#include "sim/profiler.h"
#include "sim/time.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

enum class Workload { kPaperIndoor, kPaperOutdoor, kChaosRetrieval };

const char* workload_name(Workload w);
std::optional<Workload> parse_workload(std::string_view name);

/// One world of a workload pass.
struct WorldSpec {
  Workload workload = Workload::kPaperIndoor;
  std::uint64_t seed = 7;
  std::string label;  //!< the setting's name within its pass
  enviromic::core::Mode mode = enviromic::core::Mode::kFull;
  double beta_max = 2.0;
  int drain_sinks = 0;  //!< chaos_retrieval: corner sinks draining at the horizon
  enviromic::sim::Time horizon;
  enviromic::sim::Time grace;  //!< quiet tail run after the horizon
  enviromic::sim::Time slice;  //!< simulated span of one host-timed run_until
};

/// The worlds one pass of `w` runs for `seed`, in run order:
///  - paper_indoor: baseline, coop-only and beta_max 4/3/2 (Figs 10-14);
///  - paper_outdoor: the 36-mote, 3 h forest (Figs 16-18);
///  - chaos_retrieval: one fault storm drained by 2, then by 4 corner sinks.
std::vector<WorldSpec> pass_worlds(Workload w, std::uint64_t seed);

/// A span the benchmark records around one phase of one world. Spans of one
/// world share its id; a world's root span has parent -1.
struct Span {
  std::uint32_t world = 0;
  const char* name = "";
  std::int32_t parent = -1;
  Clock::time_point start;
  Clock::time_point end;
};

/// In-memory span store for the traced pass, written out when the run ends.
class SpanLog {
 public:
  std::uint32_t next_world() { return ++worlds_; }
  std::int32_t add(const Span& s);
  void set_end(std::int32_t index, Clock::time_point end);
  const std::vector<Span>& spans() const { return spans_; }
  /// Chrome trace-event JSON (loadable in Perfetto), one track per world.
  void write_chrome_trace(std::ostream& out) const;

 private:
  std::vector<Span> spans_;
  std::uint32_t worlds_ = 0;
  Clock::time_point origin_ = Clock::now();
};

/// Host milliseconds spent in each phase of one world. The five phases
/// cover the world's wall time; drain_all and recover sit inside census.
struct WorldTimes {
  double wall = 0.0;
  double setup = 0.0;    //!< build up to and including World::start
  double run = 0.0;      //!< every run_until slice
  double metrics = 0.0;  //!< World::snapshot calls, with the drain tally
  double census = 0.0;   //!< end-of-run checks
  double other = 0.0;    //!< tearing the world down
  double drain_all = 0.0;
  double recover = 0.0;
  std::vector<double> slices;
};

/// End-of-run checks every world must pass.
struct Census {
  std::uint64_t live_chunks = 0;       //!< distinct keys on collectable flash
  std::uint64_t chunks_recovered = 0;  //!< keys rebuilt by the round trips
  std::uint32_t stuck_tx = 0;
  std::uint32_t stuck_rx = 0;
  std::uint32_t nodes_down = 0;
  /// drain_all(true) holds each distinct live key exactly once.
  bool exact_once = true;
  /// checkpoint -> ChunkStore::recover gives back every up store's keys.
  bool recoverable = true;
  /// crashes == reboots + nodes still down.
  bool counters_consistent = true;

  bool ok() const {
    return exact_once && recoverable && counters_consistent && stuck_tx == 0 &&
           stuck_rx == 0;
  }
  std::string failure() const;  //!< empty when ok()
};

/// Set-based drain accounting (chaos_retrieval).
struct RetrievalTally {
  std::uint64_t eligible = 0;  //!< distinct keys on up nodes at drain start
  std::uint64_t collected_eligible = 0;  //!< |eligible ∩ collected|
  std::uint64_t late_arrivals = 0;       //!< collected keys not eligible
  std::uint64_t double_uploads = 0;      //!< extra physical sink copies
  double drain_span_s = 0.0;  //!< simulated drain start to last arrival
};

struct WorldRun {
  WorldTimes ms;
  enviromic::core::Metrics::Snapshot final_snapshot;
  enviromic::net::ChannelStats channel;
  std::uint64_t events = 0;     //!< scheduler events executed
  std::uint64_t snapshots = 0;  //!< World::snapshot calls
  double node_hours = 0.0;      //!< nodes x simulated hours
  Census census;
  RetrievalTally retrieval;
  enviromic::sim::Profiler::Report profile;  //!< filled in traced runs
};

/// Build, run, snapshot and census one world, timing each phase from
/// outside. With `trace` set, the scheduler profiler runs and every phase
/// and slice is recorded as a span.
WorldRun run_world(const WorldSpec& spec, SpanLog* trace);

/// Ledger tolerances (percent): a world's five phases must cover its wall
/// time, and the profiler's tags plus its residue must cover the run phase.
inline constexpr double kPhaseGapTolerancePct = 1.0;
inline constexpr double kProfilerGapTolerancePct = 2.0;

/// True when two runs of the same spec executed the same simulation: event,
/// transmission, delivery and message counts and the final miss ratio agree
/// exactly.
bool same_simulation(const WorldRun& a, const WorldRun& b);

}  // namespace perfbench
