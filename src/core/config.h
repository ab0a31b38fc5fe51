// Protocol configuration for an EnviroMic node: the knobs the experiments
// turn. The paper's evaluation varies the run mode, beta_max, T_rc and D_ta
// (§IV); the design studies add the recorder policy, replicas, the codec,
// the balancing strategy, the storage policy, the transfer geometry and
// duty cycling. Every other protocol timing or budget is a named constant
// next to the one component that reads it (group.cpp, tasking.cpp,
// balancer.h, ...), so a field here is one some caller sets.
//
// Defaults follow the paper's evaluation settings (§IV): T_rc = 1 s,
// D_ta = 70 ms. The run mode selects between the paper's two baselines and
// the full system.
#pragma once

#include <cstdint>

#include "sim/time.h"
#include "storage/codec.h"

namespace enviromic::core {

/// Paper §IV-B's three compared configurations.
enum class Mode {
  kUncoordinated,    //!< baseline: every hearer records independently
  kCooperativeOnly,  //!< cooperative recording, no storage balancing
  kFull,             //!< cooperative recording + TTL-based balancing
};

const char* mode_name(Mode m);

/// Storage-balancing trigger strategy. The paper ships the local greedy
/// pairwise-TTL rule and names "global (as opposed to local greedy)
/// load-balancing" as future work (§VI); the gossip strategy implements it
/// with DeGroot-style averaging of free space over the beacon exchange.
enum class BalanceStrategy {
  kLocalGreedy,   //!< paper §II-B: migrate when TTL_j / TTL_i > beta_i
  kGlobalGossip,  //!< migrate when the gossiped network-mean free space
                  //!< exceeds beta_i times the local free space
};

const char* strategy_name(BalanceStrategy s);

/// What a hot node does with a head-of-queue chunk once the balancing
/// trigger fires: migrate it whole (the paper's scheme), or erasure-code it
/// into n fragments dispersed to distinct neighbours so any k surviving
/// fragments reconstruct it after permanent node deaths (the Aly et al.
/// coded-dispersal direction; see DESIGN.md).
enum class StoragePolicy {
  kMigrate,  //!< whole-chunk migration (paper §II-B)
  kCoded,    //!< k-of-n erasure-coded dispersal
};

const char* policy_name(StoragePolicy p);

/// Which group member the leader picks for the next recording task
/// (paper §II-A.2 suggests either).
enum class RecorderPolicy {
  kHighestTtl,   //!< member with the most remaining storage lifetime
  kBestSignal,   //!< member with the best reception of the acoustic signal
};

struct ProtocolConfig {
  Mode mode = Mode::kFull;

  // --- Cooperative recording -------------------------------------------
  sim::Time task_period = sim::Time::seconds_i(1);     //!< T_rc
  sim::Time task_assign_delay = sim::Time::millis(70); //!< D_ta
  RecorderPolicy recorder_policy = RecorderPolicy::kHighestTtl;
  /// Prelude optimization (paper §II-A.1); off in the paper's evaluation.
  bool prelude_enabled = false;
  /// Recorders per task round. 1 reproduces the paper; higher values add
  /// the controlled redundancy of footnote 1 (robustness to lost motes).
  int recording_replicas = 1;
  /// Compress chunks before storing them (paper §V: compression "can be
  /// easily integrated to further reduce the data volume"). Takes effect
  /// only when payloads are materialized (flash.store_payloads = true).
  storage::CodecKind chunk_codec = storage::CodecKind::kNone;

  // --- Storage balancing ------------------------------------------------
  BalanceStrategy balance_strategy = BalanceStrategy::kLocalGreedy;
  double beta_max = 2.0;
  /// TTL scale at which beta saturates to beta_max: beta_i = 1 +
  /// (beta_max - 1) * min(1, TTL_i / ttl_reference). Chosen near the TTL a
  /// half-full node sees under the indoor workload, so sensitivity rises as
  /// storage becomes scarce (paper §II-B).
  double ttl_reference_s = 300.0;

  // --- Coded dispersal ----------------------------------------------------
  StoragePolicy storage_policy = StoragePolicy::kMigrate;
  /// Fragments needed to reconstruct / fragments generated. Overhead is
  /// roughly n/k of the original bytes; survival tolerates any n-k fragment
  /// deaths once the original is released.
  int coded_k = 3;
  int coded_n = 5;

  // --- Bulk transfer -----------------------------------------------------
  std::uint32_t transfer_fragment_bytes = 64;
  /// Pacing between fragment bursts: mote bulk transfer shares one CSMA
  /// channel with live control traffic, so it is rate-limited rather than
  /// allowed to saturate the medium. Every spacing period the sender may
  /// emit up to transfer_window_frags fragments.
  sim::Time transfer_fragment_spacing = sim::Time::millis(30);
  /// Sliding-window size (fragments in flight per session). 1 reproduces
  /// the original stop-and-wait pipeline: one outstanding fragment, an ack
  /// per fragment, one fragment per spacing period. Larger windows pipeline
  /// fragments under cumulative + selective acks (Flush-style), cutting
  /// both migration drain time and per-fragment scheduler churn.
  std::uint32_t transfer_window_frags = 8;

  // --- Duty cycling --------------------------------------------------------
  /// Fraction of each duty period the node is awake (radio + detector on).
  /// 1.0 disables duty cycling. The paper argues TTL computations are
  /// "completely oblivious" to duty cycling (§II-B): rates are measured
  /// over awake time, so both TTLs stretch proportionally and the
  /// bottleneck is unchanged.
  double duty_cycle = 1.0;
  sim::Time duty_period = sim::Time::seconds_i(10);
};

}  // namespace enviromic::core
