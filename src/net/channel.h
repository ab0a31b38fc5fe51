// Shared wireless medium.
//
// Unit-disc connectivity with configurable packet-loss probability, the
// CC2420 bitrate (kBitrateBps) for transmission delay, CSMA deferral when
// the medium is busy near the sender, and receiver-side collisions when two
// transmissions overlap in time and range. This is deliberately in the
// spirit of ns-3's simple wireless models: enough realism that control
// packets get lost and duplicated the way the paper describes, without
// modelling RF propagation.
//
// Every query is a scan. A range query walks the registry in registration
// order, the order deliveries (and their RNG draws) follow; carrier sense
// and the interferer gather walk the short list of transmissions on the
// air. Each sender caches its in-range receivers until a radio registers,
// unregisters or moves, so a static deployment scans the registry once per
// transmitting radio.
#pragma once

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "net/message.h"
#include "net/radio.h"
#include "sim/geometry.h"
#include "sim/rng.h"
#include "sim/scheduler.h"

namespace enviromic::net {

/// Gilbert–Elliott two-state burst-loss model, kept per directed (tx, rx)
/// link. Each delivery attempt samples a loss with the current state's
/// probability, then advances the state chain; runs of bad state produce the
/// correlated losses real 802.15.4 links show (multipath fades, interference
/// bursts) that an i.i.d. probability cannot.
struct BurstLossConfig {
  bool enabled = false;
  double p_good_to_bad = 0.02;  //!< per-delivery transition probability
  double p_bad_to_good = 0.25;
  double loss_good = 0.0;  //!< loss probability while the link is good
  double loss_bad = 0.85;  //!< loss probability while the link fades
};

struct ChannelConfig {
  /// Feet. Must exceed the sensing range (paper §II-A.1) so one-hop
  /// elections cover a group; two grid lengths on the indoor testbed.
  double comm_range = 4.0;
  double loss_probability = 0.05;  //!< independent per (tx, receiver)
  /// CSMA parameters: when the medium is busy within carrier-sense range of
  /// the sender, retry after U(0, backoff_window); give up after max_retries.
  sim::Time backoff_window = sim::Time::millis(8);
  int max_retries = 8;
  /// Carrier sensing typically reaches a bit beyond communication range.
  double carrier_sense_factor = 1.5;
  /// Burst (correlated) losses on top of — or instead of — the i.i.d.
  /// `loss_probability`; disabled by default so existing setups are
  /// bit-identical.
  BurstLossConfig burst;
  /// Per directed link, an extra loss probability drawn deterministically in
  /// U(0, link_asymmetry_max) from the link endpoints. Nonzero values make
  /// links asymmetric: A may hear B much better than B hears A.
  double link_asymmetry_max = 0.0;
};

/// Global channel statistics, used by the overhead figures.
struct ChannelStats {
  std::uint64_t transmissions = 0;
  std::uint64_t deliveries = 0;
  std::uint64_t losses_random = 0;
  std::uint64_t losses_collision = 0;
  std::uint64_t losses_radio_off = 0;
  std::uint64_t losses_burst = 0;  //!< Gilbert–Elliott bad-state losses
  /// Summed transmission air time in ticks. Overlapping transmissions each
  /// count in full, so busy_ticks / elapsed_ticks can exceed 1 under heavy
  /// contention — the telemetry busy-fraction gauge reports exactly that
  /// offered-load number.
  std::uint64_t busy_ticks = 0;
};

class Channel {
 public:
  Channel(sim::Scheduler& sched, sim::Rng rng, ChannelConfig cfg);

  /// Create a radio attached to this channel. The channel keeps a non-owning
  /// registry; a radio unregisters itself when it is destroyed, and the World
  /// owns both and tears them down together. A node that crashes or fails
  /// only switches its radio off.
  std::unique_ptr<Radio> create_radio(NodeId id, sim::Position pos);

  const ChannelStats& stats() const { return stats_; }
  sim::Scheduler& scheduler() { return sched_; }

  /// Transmission air time for a packet of `bytes` total size.
  sim::Time air_time(std::uint32_t bytes) const;

  /// Nodes within communication range of `of` (excluding itself); `of` is
  /// the first-registered live radio with that id.
  std::vector<NodeId> neighbors_of(NodeId of) const;

  /// Extra loss probability of the directed link src -> dst (deterministic
  /// in the endpoints; 0 unless link_asymmetry_max is set).
  double link_extra_loss(NodeId src, NodeId dst) const;

 private:
  friend class Radio;

  using RadioRef = detail::RadioRef;

  /// A transmission on the air, or one that ended recently enough to overlap
  /// a transmission still being delivered (see prune_active).
  struct ActiveTx {
    NodeId src;
    sim::Position pos;
    sim::Time start;
    sim::Time end;
  };

  void start_send(Radio& from, Packet packet, int attempt);
  void begin_transmission(Radio& from, Packet packet);
  /// The transmission-end fan-out: snapshot recipients, gather interferers
  /// once, then per receiver in registration order decide collision and
  /// loss and run its handler — unless addressee_only(packet) says the
  /// packet is for another node. `tx_bytes` is the packet size computed
  /// once at send time.
  void deliver_transmission(Radio& from, const Packet& packet, sim::Time start,
                            sim::Time end, std::uint32_t tx_bytes);
  /// Carrier sense: is a transmission on the air within carrier-sense range
  /// of `pos`?
  bool medium_busy_near(const sim::Position& pos) const;
  /// Collect into `interferers_scratch_` every active transmission that
  /// temporally overlaps `me` and could reach any receiver of `me` (i.e.
  /// within 2x comm_range of the sender — the union of all receivers'
  /// interference discs). One gather per delivery event replaces a full
  /// active-list scan per recipient.
  void gather_interferers(const ActiveTx& me);
  /// Did any gathered interferer reach this receiver at its current
  /// position? Exact distance test, so the verdict does not depend on how
  /// wide a superset the gather produced.
  bool collided(const Radio& receiver) const;
  /// Sample the non-collision loss processes for one delivery attempt on the
  /// directed link src -> dst (mutates the burst state chain). Returns true
  /// when the packet is lost and bumps the matching stats counter.
  bool drop_random(NodeId src, NodeId dst);
  /// Where the radio registered with sequence `seq` sits in `radios_` (a
  /// binary search; the registry is sorted by sequence), or where it would.
  std::vector<Radio*>::const_iterator registry_at(std::uint64_t seq) const;
  /// `ref.radio` when the topology counter still reads `seen` (nothing
  /// registered, unregistered or moved since the caller took the pair), else
  /// the registered radio with sequence `ref.seq`, or nullptr when that
  /// radio has been torn down.
  Radio* live(const RadioRef& ref, std::uint64_t seen) const;
  void unregister(Radio* r);
  /// Radio-initiated position change (the data mule moves every tick);
  /// bumps the topology counter, so every neighbor cache rebuilds.
  void move_radio(Radio* r, const sim::Position& p);
  /// Fill `out` with the registered radios within `range` of `pos`, in
  /// registration order: one scan of the registry. Feeds neighbors_of and
  /// the per-radio neighbor cache; the delivery loop walks a copy of the
  /// cache, so register/unregister from delivery callbacks cannot
  /// invalidate it.
  void radios_in_range(const sim::Position& pos, double range,
                       std::vector<RadioRef>& out) const;
  void prune_active(sim::Time now);

  sim::Scheduler& sched_;
  sim::Rng rng_;
  ChannelConfig cfg_;
  ChannelStats stats_;
  /// The registry, in registration order (the delivery visit order), hence
  /// sorted by reg_seq_.
  std::vector<Radio*> radios_;
  /// Every transmission that can still overlap one being delivered, in
  /// start order; carrier sense and the interferer gather scan it whole.
  /// Pruned lazily. The paper's workloads hold a handful of entries: 5.4 on
  /// average (13 at most) on the indoor grid, 5.6 (17) in the forest.
  std::vector<ActiveTx> active_;
  /// Per-directed-link loss state, keyed (src << 32 | dst): the
  /// Gilbert–Elliott burst chain position plus the cached asymmetric extra
  /// loss (a pure hash of the endpoint pair, memoized here so the hot loss
  /// path computes it once per link instead of once per delivery attempt).
  /// Absent links are good. Open-addressing linear probing over a
  /// power-of-two slot array at <= 0.5 load: this is probed once per
  /// (delivery, receiver) when burst loss is on, and the node-based
  /// unordered_map it replaces (prime-modulo bucket index plus a pointer
  /// chase per probe) was a measured top cost of the delivery fan-out.
  /// Iteration order is never observed, so the layout cannot perturb
  /// seeded runs.
  struct LinkStateTable {
    struct Slot {
      std::uint64_t key = 0;
      float extra = -1.0f;     //!< link_extra_loss, < 0 = not yet computed
      std::uint8_t state = 0;  //!< 0 = empty, 1 = good, 2 = bad
    };
    std::vector<Slot> slots;
    std::size_t used = 0;

    /// SplitMix64 finalizer; the raw key's low bits are just the dst id.
    static std::uint64_t mix(std::uint64_t k) {
      k += 0x9E3779B97F4A7C15ull;
      k = (k ^ (k >> 30)) * 0xBF58476D1CE4E5B9ull;
      k = (k ^ (k >> 27)) * 0x94D049BB133111EBull;
      return k ^ (k >> 31);
    }

    /// Find-or-insert; new links start good with the extra loss unset. The
    /// returned reference stays valid until the next slot() call (growth
    /// happens only on entry).
    Slot& slot(std::uint64_t key) {
      if (slots.size() < 2 * (used + 1)) grow();
      const std::size_t mask = slots.size() - 1;
      for (std::size_t i = static_cast<std::size_t>(mix(key)) & mask;;
           i = (i + 1) & mask) {
        Slot& s = slots[i];
        if (s.state == 0) {
          s.key = key;
          s.state = 1;
          ++used;
          return s;
        }
        if (s.key == key) return s;
      }
    }

    void grow() {
      std::vector<Slot> old = std::move(slots);
      slots.assign(old.empty() ? 1024 : old.size() * 2, Slot{});
      const std::size_t mask = slots.size() - 1;
      for (const Slot& s : old) {
        if (s.state == 0) continue;
        std::size_t i = static_cast<std::size_t>(mix(s.key)) & mask;
        while (slots[i].state != 0) i = (i + 1) & mask;
        slots[i] = s;
      }
    }
  };
  LinkStateTable link_bad_;

  /// Bumped by every register, unregister and move: the one topology change
  /// signal. A neighbor cache is valid while its recorded value matches, and
  /// a RadioRef taken at a matching value needs no registry lookup.
  std::uint64_t topology_ = 0;
  std::uint64_t next_reg_seq_ = 0;
  /// Recipient snapshot reused across delivery events (one live use at a
  /// time: nested channel work from receive handlers never re-enters the
  /// delivery gather synchronously — new transmissions resolve later). A
  /// receive handler may tear radios down mid-loop; once the topology
  /// counter has moved, the loop looks each later entry up (live()) before
  /// touching it.
  std::vector<RadioRef> delivery_scratch_;
  /// Positions of interferer candidates for the delivery event in flight
  /// (same single-use discipline as delivery_scratch_; the per-receiver test
  /// only needs positions, and the compact layout keeps its scan tight).
  std::vector<sim::Position> interferers_scratch_;
  /// Deliveries since the last prune; prune_active erases on every 8th
  /// delivery, whatever the list's size.
  std::uint32_t prune_skips_ = 0;
};

}  // namespace enviromic::net
