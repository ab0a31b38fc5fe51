// Distributed storage balancing (paper §II-B).
//
// Every node tracks its data acquisition rate R(t) with an EWMA, computes
// TTL_storage = C(t)/R(t) and TTL_energy = E(t)/D(R(t)), beacons its state,
// and — when a neighbour's TTL exceeds its own by the sensitivity factor
// beta_i (linear in the current TTL between 1 and beta_max) while energy is
// not the bottleneck — migrates chunks from the head of its queue to that
// neighbour via the bulk-transfer component. Received data may be pushed
// further on later evaluations, letting hot-spot data diffuse outward
// (paper Fig 13/18).
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

#include "core/config.h"
#include "net/message.h"
#include "sim/coalesced_timer.h"
#include "sim/event_queue.h"
#include "sim/time.h"
#include "util/stats.h"

namespace enviromic::core {

class Node;

/// EWMA weight of each new acquisition-rate sample.
inline constexpr double kEwmaAlpha = 0.25;
/// Period of the acquisition-rate samples fed to the EWMA.
inline constexpr sim::Time kRateUpdatePeriod = sim::Time::seconds_i(10);
/// Floor applied to R(t) when computing TTLs so a quiet node's TTL stays
/// finite and beta-comparable instead of collapsing to infinity as its
/// EWMA decays. The paper's R0 heuristic implies the same intent ("R0 is
/// basically the average data acquisition rate if events are uniformly
/// distributed").
inline constexpr double kRateFloorBytesPerS = 25.0;

struct BalancerStats {
  std::uint32_t beacons_sent = 0;
  std::uint32_t sessions_started = 0;
  std::uint64_t bytes_pushed = 0;
};

class Balancer {
 public:
  explicit Balancer(Node& node);

  void start();

  /// Forget all soft state and stop ticking — the node crashed or rebooted.
  /// The rate EWMA restarts from R0 (paper §II-B: the initial-rate rule),
  /// since the pre-crash acquisition history died with RAM. `start()` may be
  /// called again afterwards.
  void reset();

  /// Drop one neighbour's beacon soft state (it stopped responding), so the
  /// next evaluation cannot pick it until it beacons again.
  void note_peer_unreachable(net::NodeId id);

  /// Recorder reports freshly acquired audio (attempted, whether or not the
  /// store had room — R measures environmental input while awake).
  void note_recorded_bytes(std::uint64_t bytes);

  /// Paper metrics -------------------------------------------------------
  double acquisition_rate() const { return rate_.value(); }
  /// TTL_storage = C(t)/R(t); +inf when R ~ 0, 0 when the store is full.
  double ttl_storage_seconds() const;
  double ttl_energy_seconds() const;
  /// beta_i = 1 + (beta_max - 1) * min(1, TTL_i / ttl_reference).
  double beta() const;

  // Neighbour state (from STATE_BEACON and SENSING soft state).
  void handle(const net::StateBeacon& m);
  void note_neighbor(net::NodeId id, double ttl_storage_s,
                     std::uint64_t free_bytes);

  /// Bulk transfer completion callback: update local estimates & re-check.
  void on_session_end(net::NodeId to, std::uint64_t bytes_moved);

  /// Re-evaluate the migration trigger now (also runs on every tick).
  void evaluate();

  /// Current gossip estimate of the network-mean free bytes (global
  /// strategy; falls back to the local free space before any exchange).
  double estimated_mean_free() const;

  /// Neighbours with live beacon soft state (instrumentation).
  std::size_t neighbor_count() const { return neighbors_.size(); }

  const BalancerStats& stats() const { return stats_; }

 private:
  struct NeighborState {
    net::NodeId id = net::kInvalidNode;
    double ttl_storage_s = std::numeric_limits<double>::infinity();
    double ttl_energy_s = std::numeric_limits<double>::infinity();
    std::uint64_t free_bytes = 0;
    double est_mean_free = -1.0;  //!< <0: sender runs local-greedy
    /// Entry expiry deadline, advanced on every beacon/heartbeat from the
    /// sender. Replaces the per-scan `now - last_heard > freshness` check:
    /// scans just compare against the precomputed deadline, and pruning is
    /// amortized behind next_prune_.
    sim::Time expires_at;
  };

  void tick();
  void update_rate_if_due();
  NeighborState& touch(net::NodeId id);
  void maybe_prune(sim::Time now);
  void wake_beacon();

  Node& node_;
  std::uint64_t bytes_this_period_ = 0;
  sim::Time last_rate_update_;
  util::Ewma rate_;

  /// Flat table: neighbourhoods are small (one radio hop), so linear find
  /// beats the old std::map's pointer chasing on every beacon.
  std::vector<NeighborState> neighbors_;
  sim::Time next_prune_;
  /// Gossip estimate of network-mean free bytes (global strategy).
  double est_mean_free_ = -1.0;
  sim::Time last_session_end_;
  /// Current beacon interval; doubles up to the base period times the idle
  /// back-off cap while the node is idle, snaps back on activity.
  sim::Time beacon_interval_;
  bool activity_since_tick_ = false;
  sim::CoalescedTimer::Slot tick_slot_;
  bool started_ = false;
  BalancerStats stats_;
};

}  // namespace enviromic::core
