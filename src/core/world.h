// The simulated deployment: scheduler + channel + sound field + nodes +
// ground truth + metrics, assembled behind one facade. This is the main
// entry point of the library: build a World, place nodes and acoustic
// events, run, and inspect what the network stored.
#pragma once

#include <memory>
#include <vector>

#include "acoustic/field.h"
#include "core/faults.h"
#include "core/ground_truth.h"
#include "core/metrics.h"
#include "core/node.h"
#include "net/channel.h"
#include "sim/rng.h"
#include "sim/scheduler.h"
#include "storage/file_index.h"

namespace enviromic::core {

struct WorldConfig {
  std::uint64_t seed = 1;
  net::ChannelConfig channel;
  double background_level = 0.02;
  NodeParams node_defaults;
};

class World {
 public:
  explicit World(WorldConfig cfg = {});

  /// Place a node with the world's default parameters (or overrides).
  Node& add_node(sim::Position pos);
  Node& add_node(sim::Position pos, const NodeParams& params);

  /// Register an acoustic event source. Returns its id.
  acoustic::SourceId add_source(std::shared_ptr<const acoustic::Trajectory> traj,
                                std::shared_ptr<const acoustic::Waveform> wave,
                                sim::Time start, sim::Time end, double loudness,
                                double audible_range);

  /// Finish construction: fixes ground-truth node positions and starts every
  /// node. Call once, before run().
  void start();

  void run_until(sim::Time t);
  void run_for(sim::Time d) { run_until(sched_.now() + d); }

  // Accessors.
  sim::Scheduler& sched() { return sched_; }
  net::Channel& channel() { return channel_; }
  acoustic::SoundField& field() { return field_; }
  const GroundTruth& ground_truth() const { return gt_; }
  Metrics& metrics() { return metrics_; }
  sim::Rng& rng() { return rng_; }
  const WorldConfig& config() const { return cfg_; }

  std::size_t node_count() const { return nodes_.size(); }
  Node& node(std::size_t index) { return *nodes_[index]; }
  const Node& node(std::size_t index) const { return *nodes_[index]; }
  /// The node with id `id`, or null when no node has it.
  Node* by_id(net::NodeId id);

  /// Schedule a permanent node failure at time `at` (paper §VI: "defunct or
  /// lost motes can cause data loss"). `lose_data` marks the mote as lost
  /// (its stored chunks are unretrievable) rather than merely defunct.
  void fail_node_at(net::NodeId id, sim::Time at, bool lose_data = false);

  /// Schedule a transient crash at `at` with an automatic reboot after
  /// `downtime` (no reboot when downtime is zero — call Node::reboot()
  /// yourself or let the node stay down).
  void crash_node_at(net::NodeId id, sim::Time at, sim::Time downtime);

  /// Schedule every event of a fault plan. Call after start() or before —
  /// events execute at their times either way.
  void apply_faults(const FaultPlan& plan);

  /// Current metrics snapshot over all nodes.
  Metrics::Snapshot snapshot();

  /// Snapshot that also counts chunks retrieved out of the network (e.g.
  /// a data mule's haul) toward coverage.
  Metrics::Snapshot snapshot_with(
      const std::vector<storage::ChunkMeta>& collected);

  /// "Physically collect the motes": read every store into a FileIndex.
  storage::FileIndex drain_all(bool deduplicate = true) const;

  struct DecodedDrain {
    storage::FileIndex index;     //!< reconstructed + whole chunks
    DecodeDrainStats stats;
    std::vector<storage::Chunk> chunks;
    std::uint64_t bytes_collected = 0;  //!< raw bytes read off the motes
  };
  /// Drain with erasure decoding: collect every surviving chunk (payload
  /// included), reconstruct coded originals from any >= k fragments, and
  /// index the result. Partial groups are accounted in `stats`, never a
  /// stall. With coded dispersal off this degenerates to drain_all().
  DecodedDrain drain_decoded() const;

 private:
  /// The one detector pump: a repeating event every acoustic::kPollInterval
  /// polls every node's detector in node order, and is the only thing that
  /// polls a detector after its inline first poll. Each detector draws from
  /// its own RNG fork in that fixed node order.
  void pump_tick();

  WorldConfig cfg_;
  sim::Rng rng_;
  sim::Scheduler sched_;
  net::Channel channel_;
  acoustic::SoundField field_;
  GroundTruth gt_;
  Metrics metrics_;
  std::vector<std::unique_ptr<Node>> nodes_;
  acoustic::SourceId next_source_ = 0;
  net::NodeId next_node_ = 1;
  bool started_ = false;
};

}  // namespace enviromic::core
