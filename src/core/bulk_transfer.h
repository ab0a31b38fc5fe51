// Local reliable bulk transfer (paper §III-A) used by storage balancing.
//
// Windowed fragment pipeline: OFFER -> GRANT, then chunks stream as paced
// fragment bursts — up to transfer_window_frags fragments in flight, with
// cumulative + selective acks (Flush-style) instead of an ack per fragment.
// A chunk is popped from the sender's store only after every fragment is
// acked. The whole session runs off two sim::CoalescedTimer slots (pacing
// pump + retransmit watchdog), so a migration session costs O(1) standing
// scheduler events rather than one per fragment. transfer_window_frags = 1
// degenerates to the original stop-and-wait behaviour.
//
// An aborted session (retries exhausted) can leave a completed copy at the
// receiver while the sender keeps its own — the "incidental replication" the
// paper observes as residual redundancy under aggressive balancing (Fig 11).
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <optional>
#include <set>
#include <vector>

#include "core/config.h"
#include "net/message.h"
#include "sim/coalesced_timer.h"
#include "sim/event_queue.h"
#include "sim/time.h"
#include "storage/chunk.h"

namespace enviromic::core {

class Node;

struct TransferStats {
  std::uint32_t sessions = 0;
  std::uint32_t aborts = 0;
  std::uint32_t chunks_sent = 0;
  std::uint32_t chunks_received = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t bytes_received = 0;
  std::uint32_t fragments_retried = 0;
  std::uint32_t duplicate_risks = 0;  //!< aborted with receiver state unknown
  std::uint32_t rx_expired = 0;  //!< partial incoming sessions timed out
  std::uint32_t window_stalls = 0;  //!< pacing pump halted on a full window
  std::uint32_t max_in_flight = 0;  //!< peak unacked fragments outstanding
};

class BulkTransfer {
 public:
  explicit BulkTransfer(Node& node);

  bool sending() const { return tx_.has_value(); }

  /// Start migrating up to `max_chunks` chunks (head-of-queue first) to
  /// `to`. No-op if a session is already active.
  void start_session(net::NodeId to, int max_chunks);

  /// Push one already-materialized chunk (e.g. an erasure-coded fragment) to
  /// `to` through the same OFFER -> GRANT -> windowed-fragment machinery as a
  /// migration session — but without touching the store: the chunk is not
  /// popped on completion. `done(true)` fires once the peer acked the whole
  /// chunk, `done(false)` on any other outcome (busy, no grant, too small a
  /// grant, retries exhausted). The callback is dropped without being
  /// invoked when the node crashes mid-push (reset()).
  ///
  /// A push with `drain_sink` set is a retrieval-drain hop: the sink/query
  /// pair rides fragment 0, and the receiver hands the completed chunk to
  /// its RetrievalService (deliver or relay upstream) instead of storing it.
  void start_push(net::NodeId to, storage::Chunk chunk,
                  std::function<void(bool)> done,
                  net::NodeId drain_sink = net::kInvalidNode,
                  std::uint32_t drain_query = 0);

  void handle(const net::TransferOffer& m);
  void handle(const net::TransferGrant& m);
  void handle(const net::TransferData& m);
  void handle(const net::TransferAck& m);

  const TransferStats& stats() const { return stats_; }

  /// Partial incoming chunks currently buffered (not yet completed or
  /// expired).
  std::size_t rx_pending() const { return rx_.size(); }

  /// Unacked fragments currently outstanding on the outgoing session.
  std::uint32_t frags_in_flight() const;

  /// Drop all session state without notifying peers — the node crashed or
  /// rebooted. An in-flight outgoing chunk counts as a duplicate risk (the
  /// receiver may have completed it) and the session as an abort. Disarms
  /// the pacing/retransmit/rx-sweep slots so no stale timer can fire into a
  /// later session.
  void reset();

  /// True when an outgoing session has seen no progress for far longer than
  /// the retry budget allows — i.e. the session leaked (chaos invariant).
  bool tx_stuck(sim::Time now) const;
  /// True when any partial incoming session outlived the reassembly timeout
  /// without being swept (chaos invariant).
  bool rx_stuck(sim::Time now) const;

 private:
  struct SendSession {
    net::NodeId to;
    int chunks_left;
    std::uint64_t granted_bytes = 0;
    bool grant_received = false;
    std::uint64_t bytes_moved = 0;
    // Current chunk in flight.
    std::optional<storage::Chunk> current;
    std::uint32_t frag_count = 0;
    // Sliding window over the current chunk's fragments.
    std::uint32_t next_frag = 0;   //!< lowest never-sent fragment index
    std::uint32_t cum_acked = 0;   //!< every fragment below this is acked
    std::uint32_t acked_total = 0; //!< distinct acked fragments
    std::vector<bool> acked;
    /// Hole already fast-retransmitted once (SACK beyond it); cleared when
    /// the cumulative edge moves past it.
    std::uint32_t fast_retx_frag = 0xffffffffu;
    int retries = 0;
    // Burst pacing: up to the window size of fragments per spacing period,
    // kTransferBurstGap apart within a burst.
    std::uint32_t burst_left = 0;
    sim::Time next_burst_at;
    bool stalled = false;  //!< pump parked on a full window, ack restarts it
    // Push mode (start_push): the chunk comes from the caller, not the
    // store head, and nothing is popped on completion.
    bool push_mode = false;
    std::optional<storage::Chunk> push_chunk;  //!< not yet in flight
    bool push_delivered = false;
    std::function<void(bool)> push_done;
    /// Retrieval-drain routing carried on fragment 0 (kInvalidNode for a
    /// plain migration or dispersal push).
    net::NodeId drain_sink = net::kInvalidNode;
    std::uint32_t drain_query = 0;
  };

  struct RecvState {
    net::NodeId from;
    storage::ChunkMeta meta;
    std::uint32_t frag_count = 0;
    std::uint32_t contig = 0;  //!< fragments received contiguously from 0
    /// Received fragment indices: bit i%64 of word i/64, grown on demand.
    std::vector<std::uint64_t> got;
    std::vector<std::uint8_t> payload;
    sim::Time last_activity;
    net::NodeId drain_sink = net::kInvalidNode;
    std::uint32_t drain_query = 0;
  };

  std::uint32_t window() const;
  void send_offer();
  void next_chunk();
  /// Pacing slot callback: emit the next fragment of the current burst (or
  /// park until the next burst period / an ack frees window space).
  void pump();
  /// Retransmit/grant watchdog slot callback (lazy deadline re-check).
  void on_retx_timer();
  bool send_fragment(std::uint32_t frag, bool ack_request);
  void arm_rx_sweep();
  void sweep_rx();
  void end_session(bool aborted);
  void send_ack(net::NodeId to, std::uint64_t key, std::uint32_t frag,
                std::uint32_t cum_frags, std::uint32_t sack);
  static std::uint32_t sack_bits(const RecvState& st);

  Node& node_;
  std::optional<SendSession> tx_;
  sim::CoalescedTimer::Slot pacing_slot_;
  sim::CoalescedTimer::Slot retx_slot_;
  sim::CoalescedTimer::Slot rx_sweep_slot_;
  sim::Time last_tx_activity_;
  std::map<std::uint64_t, RecvState> rx_;
  /// Recently completed chunk keys, re-acked idempotently.
  std::deque<std::uint64_t> completed_order_;
  std::set<std::uint64_t> completed_;
  TransferStats stats_;
};

}  // namespace enviromic::core
