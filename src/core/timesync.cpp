#include "core/timesync.h"

#include "core/neighborhood.h"

namespace enviromic::core {

namespace {
/// Root beacon period while events are frequent.
constexpr sim::Time kSyncPeriod = sim::Time::seconds_i(30);
/// Paper §III-A: "we reduce synchronization frequency when events are
/// rare" — period multiplier applied after a quiet spell.
constexpr double kSyncIdleBackoff = 4.0;
/// Quiet spell after which the root backs its beacon period off.
constexpr sim::Time kSyncIdleThreshold = sim::Time::seconds_i(120);
}  // namespace

TimeSync::TimeSync(net::NodeId self, sim::Scheduler& sched, sim::Rng rng,
                   LocalClock& clock, NeighborhoodBroadcast& nb, bool is_root)
    : self_(self),
      sched_(sched),
      rng_(rng),
      clock_(clock),
      nb_(nb),
      is_root_(is_root) {}

void TimeSync::start() {
  if (is_root_) {
    // The root's corrected frame *is* the root frame: pin its correction so
    // corrected_now() == raw_now() - (raw_now() - now) == now.
    clock_.set_correction(clock_.raw_now() - sched_.now());
    // Small phase stagger so multiple worlds don't beat in lockstep. Cancel
    // any previous chain first so a restart does not double the cadence.
    root_timer_.cancel();
    root_timer_ = sched_.after(sim::Time::millis(rng_.uniform_int(50, 400)),
                               [this] { root_tick(); });
  }
  last_activity_ = sched_.now();
}

void TimeSync::reset() {
  root_timer_.cancel();
  have_seq_ = false;
  last_seq_ = 0;
  clock_.set_correction(sim::Time{});
  // seq_ survives on the root: a reboot must not replay already-used flood
  // sequence numbers (non-roots would discard them as stale).
}

void TimeSync::note_activity() { last_activity_ = sched_.now(); }

void TimeSync::root_tick() {
  ++seq_;
  net::TimeSyncBeacon b;
  b.sender = self_;
  b.root = self_;
  b.seq = seq_;
  b.root_time = clock_.corrected_now();
  // Sync beacons carry a timestamp, so they cannot sit in the lazy queue:
  // FTSP solves this with MAC-layer timestamping; we approximate it by
  // stamping at the send call (residual error: CSMA deferral, usually < 8 ms).
  nb_.send_now(b);
  ++beacons_sent_;
  // Back off the cadence while the network is quiet (paper §III-A).
  sim::Time period = kSyncPeriod;
  if (sched_.now() - last_activity_ > kSyncIdleThreshold) {
    period = period.scaled(kSyncIdleBackoff);
  }
  root_timer_ = sched_.after(period, [this] { root_tick(); });
}

void TimeSync::handle(const net::TimeSyncBeacon& b) {
  if (is_root_) return;
  if (have_seq_ && b.seq <= last_seq_) return;
  have_seq_ = true;
  last_seq_ = b.seq;
  // Receive-side MAC timestamping gives ~ sub-ms accuracy on real FTSP; we
  // model the residual as a small uniform error.
  const sim::Time jitter = sim::Time::ticks(rng_.uniform_int(-16384, 16384));
  clock_.set_correction(clock_.raw_now() - b.root_time + jitter);
  // Rebroadcast once per sequence so the flood covers multi-hop networks;
  // a random stagger avoids a synchronized collision burst, and the
  // timestamp is re-taken at departure.
  const auto delay = sim::Time::millis(rng_.uniform_int(10, 150));
  const std::uint32_t seq = b.seq;
  const net::NodeId root = b.root;
  sched_.after(delay, [this, seq, root] {
    if (seq != last_seq_) return;  // a newer flood superseded this one
    net::TimeSyncBeacon fwd;
    fwd.sender = self_;
    fwd.root = root;
    fwd.seq = seq;
    fwd.root_time = clock_.corrected_now();
    nb_.send_now(fwd);
    ++beacons_sent_;
  });
}

}  // namespace enviromic::core
