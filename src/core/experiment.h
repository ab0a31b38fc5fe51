// Canned experiment runners for the paper's evaluation, shared by the
// benchmark harnesses, the examples, and the integration tests. Each runner
// builds a World for one of the paper's setups, runs it through the one
// shared run loop, and returns the measurements the corresponding figures
// plot.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "core/metrics.h"
#include "core/telemetry_probes.h"
#include "core/workload.h"
#include "core/world.h"
#include "sim/profiler.h"
#include "sim/trace.h"

namespace enviromic::core {

// --- Observers, honoured by every runner ------------------------------------

/// What a run may watch besides the simulation itself. Every config below
/// derives from this. The run loop reads the wall clock and const state
/// only and samples by stepping run_until on the merged cadence, which is
/// RNG-stream neutral, so an observed run is bit-identical to a dark one.
struct RunObservers {
  /// Scheduler profiler: attribute callback wall time per component tag and
  /// return the table in RunOutputs::profile.
  bool profile = false;
  /// Protocol trace: record the run into a full-size ring
  /// (sim::Trace::kDefaultCapacity records) returned in RunOutputs::trace.
  bool trace = false;
  /// Telemetry: when non-zero, sample the standard probes
  /// (core/telemetry_probes.h) every this many simulated seconds into
  /// RunOutputs::telemetry. Zero disables sampling.
  sim::Time series_interval = sim::Time::zero();
  /// Declarative health probes evaluated at every telemetry sample. When
  /// non-empty and series_interval is zero, sampling runs at a 1 s default
  /// cadence. A trip dumps the offending gauge's recent window plus the
  /// flight-recorder tail, and lands in RunOutputs::health_trips.
  std::vector<HealthProbe> health_probes;
  /// Flight recorder: where something can trip it — chaos's end-state
  /// invariants or a health probe — keep a small trace ring during the run
  /// (the full ring when `trace` is set) and dump its tail to stderr on a
  /// trip. Timing runs and fleet workers turn it off.
  bool flight_recorder = true;
};

/// What the run loop reports for every runner; every result derives from
/// this.
struct RunOutputs {
  /// Channel counters at the end of the run; the determinism tests compare
  /// them bit for bit between dark and observed runs.
  net::ChannelStats channel_stats;
  /// Total events the scheduler executed.
  std::uint64_t executed_events = 0;
  /// Scheduler wall-time attribution (filled when the config set `profile`).
  sim::Profiler::Report profile;
  /// Health-probe trips observed during the run (first trip per probe only;
  /// a probe that stays tripped does not spam one entry per sample).
  std::vector<HealthTrip> health_trips;
  /// The run's telemetry series (empty unless the run sampled: a
  /// series_interval or a health probe); the CLI and fleet workers export
  /// it, and the Chrome-trace export draws it as counter tracks.
  sim::Telemetry telemetry;
  /// The run's trace ring: the full ring when the config set `trace`, else
  /// the flight recorder's small ring where it was armed, else empty.
  sim::Trace trace;
};

/// The indoor testbed's grid pitch in feet: the indoor, mobile and voice
/// grids use it, and a chaos grid starts from it.
inline constexpr double kGridPitchFt = 2.0;

// --- Indoor load-balancing experiment (Figs 10-14) ---------------------------

struct IndoorRunConfig : RunObservers {
  Mode mode = Mode::kFull;
  double beta_max = 2.0;
  /// kGlobalGossip runs the global balancing extension (CLI --gossip).
  BalanceStrategy balance_strategy = BalanceStrategy::kLocalGreedy;
  std::uint64_t seed = 7;
  sim::Time horizon = sim::Time::seconds_i(4400);
  /// Snapshot cadence; the run ends at the last multiple within `horizon`.
  sim::Time sample_period = sim::Time::seconds_i(60);
  int grid_nx = 8;
  int grid_ny = 6;
  IndoorEventPlanConfig events;  //!< generators default to two cell centres
  /// Flash capacity relative to the 0.5 MB MicaZ part. The default 0.5
  /// calibrates relative storage pressure to the paper's observed
  /// saturation: with the stated parameters (0.5 MB, 2730 B/s, ~1100 s of
  /// sound among 4 hearers/event) cooperative-only recording sits exactly at
  /// the capacity edge, and unmodelled per-sample/metadata overheads decide
  /// whether it saturates; see EXPERIMENTS.md.
  double flash_scale = 0.5;
};

struct IndoorRunResult : RunOutputs {
  std::vector<Metrics::Snapshot> series;
  IndoorEventPlan plan;
  std::vector<sim::Position> positions;  //!< node index -> position
  int grid_nx = 0;
  int grid_ny = 0;
};

IndoorRunResult run_indoor(const IndoorRunConfig& cfg);

// --- Mobile-target experiment (Figs 6, 7) ------------------------------------

struct MobileRunConfig : RunObservers {
  std::uint64_t seed = 11;
  sim::Time task_period = sim::Time::seconds_i(1);      //!< T_rc
  sim::Time task_assign_delay = sim::Time::millis(70);  //!< D_ta
  bool prelude = false;
  int grid_nx = 8;
  int grid_ny = 6;
  sim::Time event_duration = sim::Time::seconds_i(9);
};

struct MobileRunResult : RunOutputs {
  double miss_ratio = 0.0;
  sim::Time event_start;
  sim::Time event_end;
  /// Appended, non-prelude recordings: (node id, start, end).
  struct TaskSpan {
    net::NodeId node;
    sim::Time start;
    sim::Time end;
  };
  std::vector<TaskSpan> recordings;
};

MobileRunResult run_mobile(const MobileRunConfig& cfg);

// --- Voice stitching (Fig 8) ----------------------------------------------------

/// A 7x4 grid hears a 7 s voice walk; the stitch runs at the motes'
/// sampling rate (acoustic::kSampleRateHz).
struct VoiceRunConfig : RunObservers {
  std::uint64_t seed = 23;
};

struct VoiceRunResult : RunOutputs {
  /// Ground truth: the mote held next to the speaker.
  std::vector<std::uint8_t> reference;
  /// EnviroMic recordings stitched by timestamp (128 = silence fill).
  std::vector<std::uint8_t> stitched;
  sim::Time event_start;
  sim::Time event_end;
  double envelope_correlation = 0.0;
  double stitched_coverage = 0.0;  //!< fraction of samples from recordings
};

VoiceRunResult run_voice(const VoiceRunConfig& cfg);

// --- Outdoor deployment (Figs 16-18) ----------------------------------------------

struct OutdoorRunConfig : RunObservers {
  std::uint64_t seed = 31;
  int nodes = 36;
  double plot_ft = 105.0;
  sim::Time horizon = sim::Time::seconds_i(3 * 3600);
  OutdoorPlanConfig plan;
  double beta_max = 2.0;
};

struct OutdoorRunResult : RunOutputs {
  OutdoorPlan plan;
  std::vector<sim::Position> positions;
  /// Recording seconds binned per minute (Fig 16).
  std::vector<double> recorded_seconds_per_minute;
  /// Per node: seconds of audio this node *generated* (recorded) (Fig 17).
  std::vector<double> recorded_seconds_by_node;
  /// Hottest recorder and where its data ended up (Fig 18): bytes of
  /// chunks recorded by that node now stored at each node.
  net::NodeId hottest = net::kInvalidNode;
  std::vector<std::uint64_t> hotspot_bytes_at_node;
  Metrics::Snapshot final_snapshot;
};

OutdoorRunResult run_outdoor(const OutdoorRunConfig& cfg);

// --- Chaos soak: indoor workload under randomized faults -----------------------

struct ChaosRunConfig : RunObservers {
  std::uint64_t seed = 7;
  sim::Time horizon = sim::Time::seconds_i(1200);
  int grid_nx = 6;
  int grid_ny = 4;
  double spacing_ft = kGridPitchFt;
  FaultPlanConfig faults;
  net::BurstLossConfig burst;
  double link_asymmetry_max = 0.0;
  double beta_max = 2.0;
  /// Small flash so balancing actually triggers within the horizon.
  double flash_scale = 0.1;
  /// Quiet tail after the last scheduled fault/event so in-flight sessions
  /// drain before the invariants are checked.
  sim::Time grace = sim::Time::seconds_i(120);
  /// Channel spatial index; the determinism test and the bench harness flip
  /// this off to A/B against the linear delivery path.
  bool spatial_index = true;
  /// Materialize audio payloads in flash so the end-state check can assert
  /// byte-exact migration (every copy of a chunk identical, sized to its
  /// metadata) on top of the key-level invariants.
  bool store_payloads = false;
  /// Bulk-transfer window override; 0 keeps the protocol default. The
  /// migration chaos test runs both the windowed pipeline and the
  /// stop-and-wait degenerate (1) through the same invariants.
  std::uint32_t transfer_window_frags = 0;
  /// Per-node live-event budget for the runaway-timer invariant; overrides
  /// ChaosRunResult::kLiveEventsPerNodeBound (the flight-recorder test sets
  /// it to 0 to force an invariant failure on demand).
  std::size_t live_events_per_node_bound = 64;
  /// Payload survival census + decode-on-drain at the end of the run (the
  /// payloads_* / decode fields below). Costs a full store walk and a
  /// drained payload read per chunk, so the wall-clock timing legs in the
  /// perf bench turn it off (like flight_recorder).
  bool payload_census = true;
  /// Storage policy under chaos: whole-chunk migration (the default) or
  /// erasure-coded dispersal with the given k-of-n geometry.
  StoragePolicy storage_policy = StoragePolicy::kMigrate;
  int coded_k = 3;
  int coded_n = 5;
  /// Recording replicas (the coded-survival bench's matched-overhead
  /// replication leg; 1 = the protocol default).
  int recording_replicas = 1;
  /// Retrieval plane: number of sink nodes (grid corners) that start a
  /// spanning-tree drain at the horizon and run it through the grace tail.
  /// 0 disables the drain leg entirely — no event is even scheduled, so the
  /// RNG streams match a pre-retrieval run bit for bit.
  int drain_sinks = 0;
  int drain_hops = 4;  //!< flood depth of the drain queries
  /// The chunks the drain asks for (parse_resource() reads the CoAP-style
  /// paths "/chunks/all", "/chunks/time/A-B" and "/chunks/source/N").
  ResourceSelector drain_resource = ResourceSelector::all();
};

struct ChaosRunResult : RunOutputs {
  Metrics::Snapshot final_snapshot;
  std::size_t nodes = 0;
  std::uint32_t nodes_down_at_end = 0;  //!< crashed, reboot not yet due
  std::uint32_t nodes_lost = 0;         //!< permanently failed
  /// Every surviving node's store, checkpointed and re-recovered offline,
  /// yields exactly the chunks the live store holds.
  bool stores_recoverable = true;
  /// drain_all(deduplicate) holds every distinct live chunk exactly once.
  bool retrieval_exact_once = true;
  /// crashes == reboots + still-down (every transient crash either rebooted
  /// or is awaiting its reboot at the horizon).
  bool counters_consistent = true;
  std::uint32_t stuck_rx_sessions = 0;
  std::uint32_t stuck_tx_sessions = 0;
  std::uint64_t live_chunks = 0;
  /// With store_payloads: every collectable copy of a chunk key carries an
  /// identical payload of exactly meta.bytes bytes (byte-exact migration).
  bool payloads_intact = true;
  /// Chunk keys stored at more than one node (aborted-transfer replicas).
  std::uint64_t duplicate_copies = 0;
  /// Σ duplicate_risks over every node, including crashed/failed ones.
  std::uint64_t duplicate_risks_counted = 0;
  /// Replication never exceeds what the transfer layer accounted for:
  /// duplicate_copies <= duplicate_risks_counted.
  bool duplicates_within_risk = true;
  /// Live scheduler events at the horizon (EventQueue::live_count, i.e.
  /// cancelled timers excluded). The steady-state workload keeps a bounded
  /// number of periodic timers per node; a runaway value means some
  /// component is re-arming itself without making progress.
  std::size_t live_events_at_end = 0;
  /// Upper bound used by the stuck-session invariant: generous per-node
  /// budget of periodic timers + in-flight transfers. The config can lower
  /// or raise it (live_events_per_node_bound); the value actually used is
  /// carried in live_events_bound below.
  static constexpr std::size_t kLiveEventsPerNodeBound = 64;
  std::size_t live_events_bound = kLiveEventsPerNodeBound;

  // --- Payload survival census (coded dispersal) ---
  /// Distinct original payloads ever stored, counted over every node
  /// including permanently dead and lost ones (fragments count once per
  /// ec_group, not per fragment).
  std::uint64_t payloads_total = 0;
  /// Originals recoverable from non-failed nodes: a whole copy survives, or
  /// at least k distinct fragments do.
  std::uint64_t payloads_reconstructible = 0;
  /// payloads_total - payloads_reconstructible: what permanent death (and
  /// lost motes) actually destroyed.
  std::uint64_t payloads_lost_to_death = 0;
  /// Redundancy overhead: bytes sitting in surviving stores vs the original
  /// bytes they represent (1.0 = no redundancy).
  std::uint64_t census_stored_bytes = 0;
  std::uint64_t census_original_bytes = 0;
  /// Decode-on-drain accounting (drain_decoded over the survivors).
  DecodeDrainStats decode;
  std::uint64_t drained_bytes = 0;  //!< raw bytes hauled off the motes
  /// Coded-dispersal counters summed over all nodes.
  CodedStats coded;

  // --- Retrieval drain leg (config.drain_sinks > 0) ---
  std::uint32_t retrieval_sinks = 0;  //!< drains actually started
  /// Distinct selector-matching chunk keys held by reachable (up, not
  /// failed) nodes at drain start — what a perfect drain could collect.
  std::uint64_t retrieval_eligible = 0;
  /// Distinct keys delivered to any sink by the end of the run.
  std::uint64_t retrieval_collected = 0;
  /// Collected keys that were not eligible: recorded after the drain
  /// started and picked up by a later flood round.
  std::uint64_t retrieval_late_arrivals = 0;
  /// Keys physically uploaded to more than one sink (the overlap-resolution
  /// invariant wants this at 0: a second sink gets a descriptor ack).
  std::uint64_t retrieval_double_uploads = 0;
  /// 1 - |eligible ∩ collected| / |eligible| (0 when nothing was eligible);
  /// late arrivals never offset an eligible key the drain missed.
  double retrieval_miss_ratio = 0.0;
  /// Simulated time from drain start until the last chunk reached a sink.
  sim::Time retrieval_drain_span;

  /// One end-state invariant: its name and whether it held.
  struct Verdict {
    const char* name;
    bool held;
  };
  /// Every end-state invariant, in one fixed order. The CLI prints each
  /// entry and invariants_hold() folds them.
  std::array<Verdict, 8> verdicts() const {
    return {{{"stores_recoverable", stores_recoverable},
             {"retrieval_exact_once", retrieval_exact_once},
             {"counters_consistent", counters_consistent},
             {"no_stuck_rx", stuck_rx_sessions == 0},
             {"no_stuck_tx", stuck_tx_sessions == 0},
             {"payloads_intact", payloads_intact},
             {"duplicates_within_risk", duplicates_within_risk},
             {"live_events_bounded",
              live_events_at_end <= nodes * live_events_bound}}};
  }
  bool invariants_hold() const {
    const auto all = verdicts();
    return std::all_of(all.begin(), all.end(),
                       [](const Verdict& v) { return v.held; });
  }
};

/// Run the indoor scenario under a randomized fault plan + channel faults
/// and check the end-state invariants the fault model promises.
ChaosRunResult run_chaos(const ChaosRunConfig& cfg);

// --- Helpers shared by figure harnesses ----------------------------------------

/// Default node parameters used across the experiments (paper defaults with
/// the given mode/beta).
NodeParams paper_node_params(Mode mode, double beta_max);

// --- Machine-readable single-run records (CLI --json, fleet workers) ------------

/// Per-world seed derivation for a fleet seed range (`enviromic_fleet
/// --seeds`). World 0 is the base seed itself, so it is the world an
/// `enviromic_cli --seed` run builds; later worlds go through a splitmix64
/// finalizer of (base_seed, run_index) — the same keying discipline
/// storage/erasure uses for its codec streams — so adjacent base seeds
/// never produce overlapping world sets (under the old `base + r` rule,
/// seed 7 run 1 was the same world as seed 8 run 0).
std::uint64_t derive_run_seed(std::uint64_t base_seed, std::uint64_t run_index);

/// A flat, ordered (name, value) view of one run's results — the Metrics
/// snapshot plus the runner's scenario-specific outcomes — for machine
/// consumption (fleet workers, --json). Order is fixed per scenario so
/// emitted records are byte-stable.
using RunRecord = std::vector<std::pair<std::string, double>>;

RunRecord chaos_run_record(const ChaosRunResult& r);
RunRecord indoor_run_record(const IndoorRunResult& r);
RunRecord mobile_run_record(const MobileRunResult& r);
RunRecord outdoor_run_record(const OutdoorRunResult& r);
RunRecord voice_run_record(const VoiceRunResult& r);

/// One-line JSON record for a single seeded run:
///   {"scenario": "chaos", "seed": 7, "metrics": {"miss_ratio": ...}}
std::string run_record_json(const std::string& scenario, std::uint64_t seed,
                            const RunRecord& rec);

// --- The scenario table: what enviromic_cli and enviromic_fleet run ---------

/// One scenario: its name, runner and flat record. Its default world is a
/// default-constructed Config.
template <class C, class R>
struct Scenario {
  using Config = C;
  const char* name;
  R (*run)(const C&);
  RunRecord (*record)(const R&);
};

/// Every scenario by name. Adding one takes an entry here, its runner and
/// record, its parameter declaration (which may be empty) and configure
/// instantiation in experiment.cpp, and its summary in enviromic_cli.
inline constexpr std::tuple kScenarios{
    Scenario{"chaos", run_chaos, chaos_run_record},
    Scenario{"indoor", run_indoor, indoor_run_record},
    Scenario{"mobile", run_mobile, mobile_run_record},
    Scenario{"outdoor", run_outdoor, outdoor_run_record},
    Scenario{"voice", run_voice, voice_run_record},
};

/// Call `f(entry)` with the kScenarios entry named `name`; false, without a
/// call, when no scenario has that name.
template <class F>
bool with_scenario(const std::string& name, F&& f) {
  return std::apply(
      [&](const auto&... s) {
        return ((name == s.name && (static_cast<void>(f(s)), true)) || ...);
      },
      kScenarios);
}

/// The scenarios' names, in table order.
std::vector<std::string> scenario_names();

// --- Scenario parameters by name (CLI flags, fleet --set/--sweep, --faults) --

/// The parameter names `scenario` declares, in declaration order (chaos
/// lists its fault keys first); empty for an unknown scenario or voice.
/// experiment.cpp declares each once, with the config field it sets and
/// its range. A sim::Time field takes seconds (mobile's `dta`: whole
/// milliseconds); integer, enum and bool fields take whole numbers (mode
/// 0/1/2 = uncoordinated/coop/full, coded 0/1 = migrate/coded, gossip 0/1 =
/// local greedy/global gossip).
std::vector<std::string> param_names(const std::string& scenario);

/// The keys a fault spec may set, in declaration order: the leading names of
/// param_names("chaos").
std::vector<std::string> fault_keys();

/// The scenarios that declare parameter `name`, in table order.
std::vector<std::string> scenarios_declaring(const std::string& name);

/// Parameter values by name, applied in order (a later value wins).
using ParamValues = std::vector<std::pair<std::string, double>>;

/// The one configure step of every CLI and fleet world: apply the fault spec
/// `faults` (chaos's fault keys, e.g. "crash=0.3,downtime=60,burst=1"; a
/// burst-model key also turns burst loss on), then `values` in order, then
/// the scenario's cross-field checks (chaos: the erasure geometry; indoor:
/// a horizon no shorter than a positive sample period, since the run ends
/// at the last whole period). False, with an `error` naming the parameter,
/// at the first unknown name, out-of-range value or failed check.
template <class Config>
bool configure(Config& cfg, const std::string& faults,
               const ParamValues& values, std::string& error);

/// A command-line flag that sets one scenario parameter; enviromic_cli and
/// enviromic_fleet parse the same ones, so `--coded-k 2` is `coded_k=2` in
/// either.
struct ParamFlag {
  const char* flag;  //!< e.g. "--coded-k"
  const char* name;  //!< the parameter it sets, e.g. "coded_k"
  /// As the usage shows it: "<...>" for a number, "a|b|c" for a word (the
  /// parameter takes its index), "" for a switch (the parameter takes 1).
  const char* value;
  const char* help;
  bool integer = false;  //!< a number flag whose value is an integer literal
};

/// The parameter flag spelled `flag`, or nullptr.
const ParamFlag* find_param_flag(const std::string& flag);

/// Append the parameter value `text` gives `pf` (nullptr for a switch) to
/// `values`. False, with an `error` naming the flag, when `text` is not one
/// of its words or not a number (an integer literal where `pf.integer`).
bool add_param_flag(const ParamFlag& pf, const char* text, ParamValues& values,
                    std::string& error);

/// A usage line per parameter flag, naming the scenarios that read it.
std::string param_flag_usage();

}  // namespace enviromic::core
