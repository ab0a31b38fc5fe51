// Per-node radio endpoint.
//
// EnviroMic turns the radio off completely while a node records (paper
// §III-B.1): packets arriving then are lost, and the node cannot send.
// The endpoint also reports TX/RX activity windows so the acoustic sampler
// can model CPU contention (Fig 3), and TX/RX air time so the energy model
// can charge the battery.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <vector>

#include "net/message.h"
#include "sim/geometry.h"
#include "sim/time.h"

namespace enviromic::net {

class Channel;

namespace detail {
struct ActiveTx;  // defined in channel.h
}

/// Counters a radio keeps about its own traffic.
struct RadioStats {
  std::uint64_t packets_sent = 0;
  std::uint64_t packets_received = 0;
  std::uint64_t packets_missed_off = 0;   //!< arrived while radio off
  std::uint64_t packets_lost = 0;         //!< loss/collision at this receiver
  std::uint64_t csma_backoffs = 0;
  std::uint64_t send_failures = 0;        //!< gave up after max backoffs
  std::uint64_t bytes_sent = 0;
  std::uint64_t bytes_received = 0;
  std::uint64_t messages_sent[kMessageTypeCount] = {};
};

class Radio {
 public:
  using ReceiveHandler = std::function<void(const Packet&)>;
  /// (start, end, is_tx) of an air activity involving this node's CPU.
  using ActivityHandler = std::function<void(sim::Time, sim::Time, bool)>;
  /// (air_seconds, is_tx) for energy accounting.
  using AirTimeHandler = std::function<void(double, bool)>;

  Radio(Channel& channel, NodeId id, sim::Position pos);
  ~Radio();

  Radio(const Radio&) = delete;
  Radio& operator=(const Radio&) = delete;

  NodeId id() const { return id_; }
  const sim::Position& position() const { return pos_; }
  /// Mobility-safe: updates the channel's spatial index along with the
  /// position (defined in channel.cpp).
  void set_position(const sim::Position& p);

  bool is_on() const { return on_; }
  /// Turning the radio off aborts nothing in flight at other nodes, but this
  /// node stops receiving immediately.
  void set_on(bool on) { on_ = on; }

  /// Queue a packet for transmission (CSMA; the channel may defer it).
  /// Returns false if the radio is off.
  bool send(Packet packet);

  void set_receive_handler(ReceiveHandler h) { on_receive_ = std::move(h); }
  void set_activity_handler(ActivityHandler h) { on_activity_ = std::move(h); }
  void set_airtime_handler(AirTimeHandler h) { on_airtime_ = std::move(h); }

  const RadioStats& stats() const { return stats_; }

 private:
  friend class Channel;

  // Channel-side entry points. The packet is sized (total_bytes) exactly once
  // per transmission by the channel; receivers get the precomputed size and
  // air seconds instead of re-walking the message list per delivery.
  void deliver(const Packet& p, std::uint32_t total_bytes, double air_s,
               sim::Time start, sim::Time end);
  void note_loss() { ++stats_.packets_lost; }
  void note_missed_off() { ++stats_.packets_missed_off; }
  void note_backoff() { ++stats_.csma_backoffs; }
  void note_send_failure() { ++stats_.send_failures; }
  void note_sent(const Packet& p, std::uint32_t total_bytes, sim::Time start,
                 sim::Time end);

  Channel& channel_;
  NodeId id_;
  sim::Position pos_;
  /// Registration sequence; queries sort candidates by it so the spatial
  /// index visits radios in the same order as a linear scan of the registry.
  /// Also the liveness cross-check for in-flight transmissions: a delivery
  /// event re-validates the sender by pointer *and* sequence, so a recycled
  /// allocation at the same address cannot impersonate a torn-down sender.
  std::uint64_t reg_seq_ = 0;
  std::uint64_t cell_key_ = 0;   //!< current grid cell (valid while indexed)
  std::uint32_t cell_slot_ = 0;  //!< index in that cell's SoA bucket
  /// Membership in the delivery snapshot currently being walked: when a
  /// receive handler tears this radio down mid-loop, unregister() nulls its
  /// snapshot slot in O(1) (stamp match = "I am in the live snapshot")
  /// instead of growing a dead-list the loop would have to search per
  /// recipient.
  std::uint64_t delivery_stamp_ = 0;
  std::uint32_t delivery_slot_ = 0;
  /// Deliberately packed beside delivery_slot_: the fan-out loop writes the
  /// stamp pair and reads on_ for every receiver of every delivery, and
  /// keeping them on one cache line halves the lines touched per receiver.
  bool on_ = true;
  /// Cached in-range neighbor snapshot (registration order, includes self),
  /// valid while nbr_sig_ matches the summed modification counters of the
  /// 3x3 radio cells around this radio's position — any radio within range
  /// lives in one of those cells, so a register/unregister/move elsewhere in
  /// the deployment (a crash in a far cell under a FaultPlan) no longer
  /// invalidates this cache the way the old channel-global epoch did.
  /// Static deployments re-broadcast from the same spot constantly, so the
  /// delivery gather is a cache hit for every transmission after a node's
  /// first.
  std::vector<Radio*> nbr_cache_;
  std::uint64_t nbr_sig_ = 0;  //!< 0 never matches a live signature
  /// Channel-wide modification count at the last cache validation; matching
  /// means no radio anywhere registered/unregistered/moved since, so the
  /// per-cell signature cannot have changed either. ~0 is unreachable.
  std::uint64_t nbr_topo_mods_ = ~0ull;
  /// Cached pointers to the 3x3 cell modification counters around this
  /// radio's position (channel cell_mod_ entries are created up front and
  /// never erased, so the pointers cannot dangle); self-validated against
  /// the position's cell like probe_cache_. Turns the per-delivery cache
  /// validity check into nine loads.
  std::array<const std::uint64_t*, 9> nbr_mod_cache_{};
  sim::CellCoord nbr_mod_cell_{};
  bool nbr_mod_ok_ = false;
  /// Cached pointers to the 3x3 coarse-cell buckets around this radio's
  /// transmit position, valid while probe_cell_ matches the position's cell.
  /// The channel never erases active-cell buckets and unordered_map keeps
  /// references stable across rehash, so the pointers cannot dangle; this
  /// turns the per-delivery interferer gather's 9 hash probes into 9 loads.
  std::array<std::vector<detail::ActiveTx>*, 9> probe_cache_{};
  sim::CellCoord probe_cell_{};
  bool probe_cache_ok_ = false;
  ReceiveHandler on_receive_;
  ActivityHandler on_activity_;
  AirTimeHandler on_airtime_;
  RadioStats stats_;
};

}  // namespace enviromic::net
