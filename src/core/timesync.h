// Loose time synchronization (paper §III-A, adapted from FTSP).
//
// Each node's crystal has an initial offset and a ppm drift; recorded chunks
// must carry meaningful timestamps, so nodes estimate the root's clock from
// periodic flooded beacons. The paper's power optimization — reduce the sync
// frequency when events are rare — is implemented as a period multiplier
// after a quiet spell.
#pragma once

#include <cstdint>
#include <functional>

#include "net/message.h"
#include "sim/event_queue.h"
#include "sim/rng.h"
#include "sim/scheduler.h"
#include "sim/time.h"

namespace enviromic::core {

/// The node's imperfect hardware clock: reads global simulated time through
/// an affine error (initial offset + ppm drift), and applies the current
/// sync correction to produce the timestamps stored with data.
class LocalClock {
 public:
  LocalClock(sim::Scheduler& sched, double offset_s, double drift_ppm)
      : sched_(sched), offset_s_(offset_s), drift_(drift_ppm * 1e-6) {}

  /// What the node's crystal reads at the current instant.
  sim::Time raw_now() const {
    const double t = sched_.now().to_seconds();
    return sim::Time::seconds(t * (1.0 + drift_) + offset_s_);
  }

  /// Root-frame timestamp estimate = raw clock minus the sync correction.
  sim::Time corrected_now() const {
    return raw_now() - correction_;
  }

  /// Set by the sync protocol: raw_now() - correction == root time estimate.
  void set_correction(sim::Time c) { correction_ = c; }
  sim::Time correction() const { return correction_; }

  /// Fault injection: the crystal jumps by `seconds` (e.g. a brown-out
  /// glitch). The sync protocol must re-converge.
  void step(double seconds) { offset_s_ += seconds; }

  /// Signed error of corrected_now() against true simulated time (seconds);
  /// instrumentation only.
  double error_seconds() const {
    return (corrected_now() - sched_.now()).to_seconds();
  }

 private:
  sim::Scheduler& sched_;
  double offset_s_;
  double drift_;
  sim::Time correction_;
};

class NeighborhoodBroadcast;

/// FTSP-lite: the root floods numbered beacons carrying its current root-
/// frame time; every node adopts the newest sequence number, corrects its
/// clock, and rebroadcasts the beacon once.
class TimeSync {
 public:
  TimeSync(net::NodeId self, sim::Scheduler& sched, sim::Rng rng,
           LocalClock& clock, NeighborhoodBroadcast& nb, bool is_root);

  /// Idempotent: calling again (after a reboot) restarts the root's beacon
  /// chain and re-pins its correction.
  void start();

  /// Forget sync state — the node crashed or rebooted. A non-root loses its
  /// correction (timestamps drift until the next flood); the root keeps its
  /// sequence counter so post-reboot floods are not ignored as stale.
  void reset();

  void handle(const net::TimeSyncBeacon& b);

  /// Group management pokes this whenever acoustic activity occurs, so the
  /// root keeps the fast sync cadence while events are frequent.
  void note_activity();

  std::uint32_t last_seq() const { return last_seq_; }
  std::uint32_t beacons_sent() const { return beacons_sent_; }

 private:
  void root_tick();

  net::NodeId self_;
  sim::Scheduler& sched_;
  sim::Rng rng_;
  LocalClock& clock_;
  NeighborhoodBroadcast& nb_;
  bool is_root_;
  sim::EventHandle root_timer_;
  std::uint32_t seq_ = 0;
  std::uint32_t last_seq_ = 0;
  bool have_seq_ = false;
  sim::Time last_activity_;
  std::uint32_t beacons_sent_ = 0;
};

}  // namespace enviromic::core
