// Shared wireless medium.
//
// Unit-disc connectivity with configurable packet-loss probability, the
// CC2420 bitrate (kBitrateBps) for transmission delay, CSMA deferral when
// the medium is busy near the sender, and receiver-side collisions when two
// transmissions overlap in time and range. This is deliberately in the
// spirit of ns-3's simple wireless models: enough realism that control
// packets get lost and duplicated the way the paper describes, without
// modelling RF propagation.
#pragma once

#include <cstdint>
#include <memory>
#include <unordered_map>
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
  /// Use the uniform-grid spatial index (cell size = comm_range) for
  /// delivery, carrier sensing, and neighbor queries instead of linear scans
  /// over every radio. Results are bit-identical either way — candidates are
  /// visited in registration order, so the RNG draw sequence matches the
  /// linear path exactly; the flag exists for the determinism test and for
  /// A/B timing in the bench harness.
  bool use_spatial_index = true;
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

namespace detail {
/// A transmission currently on the air. Lives at namespace scope (not nested
/// in Channel) so Radio can hold pointers to active-cell buckets without
/// depending on channel.h; it is still an implementation detail.
struct ActiveTx {
  NodeId src;
  sim::Position pos;
  sim::Time start;
  sim::Time end;
};
}  // namespace detail

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

  /// True when the grid index is active (config flag and comm_range > 0).
  bool spatial_index_active() const { return grid_on_; }

 private:
  friend class Radio;

  using ActiveTx = detail::ActiveTx;
  using RadioRef = detail::RadioRef;

  /// Per-cell radio state, structure-of-arrays: the coordinates live beside
  /// the pointers so range queries scan two contiguous double arrays and only
  /// dereference a Radio that actually matches. `radios[i]`'s position is
  /// exactly (xs[i], ys[i]); each radio knows its slot (cell_slot_) so
  /// erasure is an O(1) swap-remove — bucket order is arbitrary, queries
  /// re-sort matches by registration sequence anyway.
  struct CellBucket {
    std::vector<Radio*> radios;
    std::vector<double> xs;
    std::vector<double> ys;
    /// radios[i]->reg_seq_, mirrored so the range gather can sort
    /// candidates into registration order without dereferencing any Radio
    /// (the comparator used to pointer-chase two cache lines per compare).
    std::vector<std::uint64_t> seqs;
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
  /// Carrier sense around the sending radio's position. Takes the radio
  /// (not just a position) so the 3x3 probe reuses the sender's cached
  /// active-cell bucket pointers instead of hashing per probe.
  bool medium_busy_near(Radio& from);
  /// (Re)build `from`'s 3x3 active-cell bucket-pointer cache around cell
  /// `c`; shared by carrier sense and the interferer gather.
  void ensure_probe_cache(Radio& from, sim::CellCoord c);
  /// Collect into `interferers_scratch_` every active transmission that
  /// temporally overlaps `me` and could reach any receiver of `me` (i.e.
  /// within 2x comm_range of the sender — the union of all receivers'
  /// interference discs). One gather per delivery event replaces a full
  /// active-list scan per recipient.
  void gather_interferers(const ActiveTx& me, Radio& from);
  /// Did any gathered interferer reach this receiver at its current
  /// position? Exact distance test, so the verdict is identical whichever
  /// superset the gather produced.
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
  /// Radio-initiated position change; keeps the grid cell current (data
  /// mules move every tick, so this must be O(1)).
  void move_radio(Radio* r, const sim::Position& p);

  // --- Spatial index -------------------------------------------------------
  // Radios bucket into SoA cells of side comm_range (range queries visit
  // 3x3). Active transmissions bucket into coarser cells of side
  // max(2*comm_range, carrier-sense range): their queries use larger radii
  // (interference horizon 2r, carrier sense 1.5r by default), and the
  // coarse grid covers both with one 3x3 probe. Invariants: every
  // registered radio appears in exactly the cell bucket of its current
  // position, at the slot its cell_slot_ names, with its coordinates
  // mirrored in the bucket's xs/ys; bucket order is arbitrary (queries
  // re-sort candidates by registration sequence to reproduce the linear
  // scan's visit order bit for bit). Active transmissions are double-booked
  // in `active_` and `active_cells_` and pruned together with the same
  // predicate, so grid queries see exactly the transmissions the linear
  // scan would.
  std::uint64_t cell_for(const sim::Position& p) const;
  std::uint64_t active_cell_for(const sim::Position& p) const;
  void grid_insert(Radio* r);
  void grid_erase(Radio* r);
  /// Fill `out` with the registered radios within `range` of `pos`, in
  /// registration order. Feeds neighbors_of, the per-radio neighbor cache
  /// and the delivery loop, which walks this copy rather than the index, so
  /// register/unregister from delivery callbacks cannot invalidate it. The
  /// grid path pre-filters candidates on squared distance (with a boundary
  /// band falling back to the exact test) and sorts on the bucket's mirrored
  /// sequences, so it never dereferences a Radio.
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
  std::vector<ActiveTx> active_;  //!< pruned lazily
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

  bool grid_on_ = false;
  double cell_size_ = 0.0;         //!< radio cells: comm_range
  double active_cell_size_ = 0.0;  //!< active-tx cells: see above
  /// Bumped by every register, unregister and move: the one topology change
  /// signal. A neighbor cache is valid while its recorded value matches, and
  /// a RadioRef taken at a matching value needs no registry lookup.
  std::uint64_t topology_ = 0;
  std::uint64_t next_reg_seq_ = 0;
  std::unordered_map<std::uint64_t, CellBucket> cells_;
  std::unordered_map<std::uint64_t, std::vector<ActiveTx>> active_cells_;
  /// The active-cell buckets currently holding entries, so pruning visits
  /// only them. The map itself never erases buckets (probe caches hold
  /// pointers into it), and walking every bucket the deployment ever touched
  /// on each delivery was the single hottest line of the old delivery path.
  /// A bucket enters on its empty -> non-empty transition and leaves when a
  /// prune finds it drained; list order is irrelevant (queries read the map,
  /// never this list).
  std::vector<std::vector<ActiveTx>*> active_nonempty_;
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
