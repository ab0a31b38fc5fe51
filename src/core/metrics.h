// Evaluation metrics (paper §IV).
//
// The recording miss ratio is 1 - (unique event time present in the
// network's stores) / (hearable event time so far); the redundancy ratio is
// the fraction of stored recording time that duplicates other stored
// recordings of the same event; overhead is counted in messages sent.
// All three are computed from the *current stored chunks* so that storage
// overflow, prelude erasure, and migration duplicates all show up exactly
// as they would in the data a scientist finally retrieves.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "core/ground_truth.h"
#include "net/message.h"
#include "storage/chunk.h"

namespace enviromic::core {

class Node;

/// Fault-injection bookkeeping, aggregated over the whole run.
struct FaultCounters {
  std::uint32_t crashes = 0;             //!< transient crashes
  std::uint32_t permanent_failures = 0;  //!< fail()ed, never coming back
  std::uint32_t reboots = 0;
  std::uint32_t brownouts = 0;
  std::uint32_t clock_steps = 0;
  std::uint64_t chunks_recovered = 0;    //!< rebuilt from flash on reboot
  /// Pre-crash chunks missing after recovery (should stay 0: at worst the
  /// final partially-written chunk is dropped, and the recorder's epoch
  /// guard prevents partially-written chunks from being committed).
  std::uint64_t recovery_mismatches = 0;
  sim::Time downtime_total;              //!< summed crash->reboot intervals
};

class Metrics {
 public:
  explicit Metrics(const GroundTruth& gt) : gt_(&gt) {}

  // ---- Instrumentation hooks (called by the protocol components) --------
  void note_recorded(std::uint64_t chunk_key, net::NodeId node,
                     const sim::Position& pos, sim::Time start, sim::Time end,
                     std::uint64_t bytes, bool appended, bool is_prelude);
  void note_prelude_erased(std::uint64_t chunk_key);

  // ---- Fault/recovery hooks ---------------------------------------------
  void note_crash(bool permanent) {
    if (permanent) {
      ++faults_.permanent_failures;
    } else {
      ++faults_.crashes;
    }
  }
  void note_reboot(sim::Time downtime) {
    ++faults_.reboots;
    faults_.downtime_total += downtime;
  }
  void note_brownout() { ++faults_.brownouts; }
  void note_clock_step() { ++faults_.clock_steps; }
  void note_recovery(std::uint64_t recovered, std::uint64_t mismatched) {
    faults_.chunks_recovered += recovered;
    faults_.recovery_mismatches += mismatched;
  }
  const FaultCounters& faults() const { return faults_; }

  // ---- Raw logs for the figure harnesses ---------------------------------
  struct RecordAct {
    net::NodeId node;
    sim::Time start;
    sim::Time end;
    std::uint64_t bytes;
    bool appended;
    bool is_prelude;
  };
  const std::vector<RecordAct>& recording_log() const { return log_; }

  // ---- Snapshots -----------------------------------------------------------
  struct Snapshot {
    sim::Time t;
    double miss_ratio = 0.0;        //!< 1 - unique covered / hearable
    double redundancy_ratio = 0.0;  //!< (stored - unique) / stored
    sim::Time hearable;             //!< denominator of the miss ratio
    sim::Time covered_unique;
    sim::Time stored_total;         //!< sum of stored recording time
    std::uint64_t total_messages = 0;
    std::uint64_t control_messages = 0;   //!< excl. TRANSFER_DATA payloads
    std::uint64_t transfer_messages = 0;  //!< TRANSFER_* family
    /// Node id of each per_node_* row: one row per node, in node order
    /// (failed and data-lost motes keep theirs).
    std::vector<net::NodeId> per_node_ids;
    /// Zero for a data-lost mote, whose store no longer counts.
    std::vector<std::uint64_t> per_node_used_bytes;
    std::vector<std::uint64_t> per_node_packets_sent;
    std::vector<std::uint64_t> per_node_recorded_bytes;  //!< by recorder
    // Flash wear and battery survive crashes and data loss. Battery reads
    // are last-advance values — no projection to `t` — so computing a
    // snapshot never perturbs drain.
    std::vector<std::uint64_t> per_node_wear_max;
    std::vector<std::uint64_t> per_node_wear_min;
    std::vector<double> per_node_battery_j;
    std::uint64_t wear_min = 0;   //!< min over nodes (0 with no nodes)
    std::uint64_t wear_max = 0;   //!< max over nodes
    std::uint64_t wear_spread = 0;  //!< wear_max - wear_min
    double battery_total_j = 0.0;   //!< summed over nodes
    double battery_min_j = 0.0;     //!< min over nodes (0 with no nodes)
    FaultCounters faults;
    std::uint32_t transfer_aborts = 0;           //!< summed over nodes
    std::uint32_t transfer_duplicate_risks = 0;
    std::uint32_t transfer_rx_expired = 0;
    std::uint32_t transfer_fragments_retried = 0;
    std::uint32_t transfer_window_stalls = 0;  //!< pacing pump parked on window
    std::uint32_t transfer_max_in_flight = 0;  //!< peak over all nodes
    // Retrieval plane, summed over nodes.
    std::uint32_t retrieval_queries_served = 0;
    std::uint32_t retrieval_chunks_uploaded = 0;
    std::uint32_t retrieval_chunks_relayed = 0;
    std::uint32_t retrieval_relay_fallbacks = 0;
    std::uint32_t retrieval_descriptor_acks = 0;
  };

  /// Reads every node's store, radio, transfer and retrieval counters,
  /// flash wear and battery. A data-lost mote's chunks are unretrievable,
  /// so its store counts for nothing; everything else it did still counts.
  /// `collected` adds chunks that left the network but were retrieved
  /// (e.g. by a data mule or a drain's sinks): they count toward coverage
  /// exactly like stored chunks.
  Snapshot compute(sim::Time now,
                   const std::vector<std::unique_ptr<Node>>& nodes,
                   const std::vector<storage::ChunkMeta>& collected) const;

 private:
  struct AttributionEntry {
    std::vector<GroundTruth::Attribution> per_source;
  };

  const GroundTruth* gt_;
  FaultCounters faults_;
  std::map<std::uint64_t, AttributionEntry> attribution_;
  std::vector<RecordAct> log_;
  std::map<net::NodeId, std::uint64_t> recorded_bytes_by_node_;
};

}  // namespace enviromic::core
