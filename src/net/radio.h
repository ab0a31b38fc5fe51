// Per-node radio endpoint.
//
// EnviroMic turns the radio off completely while a node records (paper
// §III-B.1): packets arriving then are lost, and the node cannot send.
// The endpoint reports TX/RX air time so the energy model can charge the
// battery. Fig 3's CPU-contention study does not run through a radio:
// bench/paper hands fixed TX/RX activity windows straight to
// acoustic::JitterSampler::note_radio_activity.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "net/message.h"
#include "sim/geometry.h"

namespace enviromic::net {

/// CC2420 802.15.4 bitrate: air time, drain-rate and upload-time basis.
inline constexpr double kBitrateBps = 250000.0;

class Channel;
class Radio;

namespace detail {
/// A registered radio with its registration sequence. The sequence outlives
/// the radio, so whoever holds the pair across a topology change can ask the
/// channel whether that radio is still registered before touching it.
struct RadioRef {
  std::uint64_t seq;
  Radio* radio;
};
}  // namespace detail

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
  /// (air_seconds, is_tx) for energy accounting.
  using AirTimeHandler = std::function<void(double, bool)>;

  Radio(Channel& channel, NodeId id, sim::Position pos);
  ~Radio();

  Radio(const Radio&) = delete;
  Radio& operator=(const Radio&) = delete;

  NodeId id() const { return id_; }
  const sim::Position& position() const { return pos_; }
  /// Mobility-safe: tells the channel, whose neighbor caches then rebuild
  /// (defined in channel.cpp).
  void set_position(const sim::Position& p);

  bool is_on() const { return on_; }
  /// Turning the radio off aborts nothing in flight at other nodes, but this
  /// node stops receiving immediately.
  void set_on(bool on) { on_ = on; }

  /// Queue a packet for transmission (CSMA; the channel may defer it).
  /// Returns false if the radio is off.
  bool send(Packet packet);

  void set_receive_handler(ReceiveHandler h) { on_receive_ = std::move(h); }
  void set_airtime_handler(AirTimeHandler h) { on_airtime_ = std::move(h); }

  const RadioStats& stats() const { return stats_; }

 private:
  friend class Channel;

  // Channel-side entry points. The packet is sized (total_bytes) exactly once
  // per transmission by the channel; receivers get the precomputed size and
  // air seconds instead of re-walking the message list per delivery. A
  // receiver the packet is not for (see addressee_only) still counts it and
  // pays its RX air time, but `dispatch` is false and its receive handler
  // does not run.
  void deliver(const Packet& p, std::uint32_t total_bytes, double air_s,
               bool dispatch);
  void note_loss() { ++stats_.packets_lost; }
  void note_missed_off() { ++stats_.packets_missed_off; }
  void note_backoff() { ++stats_.csma_backoffs; }
  void note_send_failure() { ++stats_.send_failures; }
  void note_sent(const Packet& p, std::uint32_t total_bytes, double air_s);

  Channel& channel_;
  NodeId id_;
  sim::Position pos_;
  /// Registration sequence, unique and increasing: the channel's registry,
  /// and so every range query's result, is sorted by it, and holders of a
  /// RadioRef look the radio up by it after a topology change (a recycled
  /// allocation at the same address gets a new sequence).
  std::uint64_t reg_seq_ = 0;
  bool on_ = true;
  /// Cached in-range neighbor snapshot (registration order, includes self),
  /// valid while nbr_topology_ equals the channel's topology counter. The
  /// paper's motes never move and a crash only switches a radio off, so a
  /// static deployment rebuilds each sender's cache once and every later
  /// delivery gather is a copy.
  std::vector<detail::RadioRef> nbr_cache_;
  std::uint64_t nbr_topology_ = ~0ull;  //!< never a live counter value
  ReceiveHandler on_receive_;
  AirTimeHandler on_airtime_;
  RadioStats stats_;
};

}  // namespace enviromic::net
