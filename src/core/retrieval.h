// Data retrieval (paper §II-C): the retrieval plane.
//
// Both designs the paper discusses are implemented, generalized to several
// concurrent collection points:
//
//  * `hops` = 1 — the final single-hop scheme: a user (the "data mule")
//    broadcasts a query; nodes in range stream back chunk descriptors, and
//    the user walks the field (or physically collects the motes).
//
//  * `hops` > 1 — the spanning-tree design the paper describes first: the
//    query floods, each node remembers the neighbour it first heard it from
//    as its tree parent, replies route hop by hop up the tree to the sink,
//    and "if gaps are observed in retrieved files, their IDs are flooded
//    until all parts are retrieved successfully" (see `find_gap_windows`).
//
// On top of the flood, three mechanisms make this a usable drain plane
// rather than a one-shot query primitive (DESIGN.md §13):
//
//  * Per-sink serve sessions. A node uploads to any number of concurrent
//    sinks, one session per sink keyed by the sink's latest flood round.
//    A chunk already streamed into one sink's drain is descriptor-acked
//    (`QueryReply::collected_by`) — never re-uploaded — to a second.
//
//  * Pipelined upstream streaming. Harvest uploads ride the windowed
//    bulk-transfer pipeline (`BulkTransfer::start_push`) hop by hop toward
//    the tree parent, so multi-hop drains inherit cumulative+SACK acking,
//    fast retransmit, and crash-clean teardown. Intermediate nodes relay
//    from a bounded RAM queue and fall back to absorbing a chunk into their
//    own store when the route dies (data is preserved; a later re-flood
//    re-serves it).
//
//  * CoAP-style resource addressing. Queries name the chunks they want —
//    `/chunks/all`, `/chunks/time/<from>-<to>`, `/chunks/source/<id>` —
//    resolved against each store's chunk metadata (see ResourceSelector).
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/config.h"
#include "net/message.h"
#include "sim/time.h"
#include "storage/chunk.h"
#include "storage/file_index.h"

namespace enviromic::core {

class Node;

/// The §II-C gap step: time windows not covered inside each reassembled
/// file, to be re-flooded "until all parts are retrieved successfully".
std::vector<std::pair<sim::Time, sim::Time>> find_gap_windows(
    const storage::FileIndex& index);

// --- Resource addressing ----------------------------------------------------

/// What a query asks for, CoAP-style: a path names a set of stored chunks,
/// resolved against ChunkMeta at every node the flood reaches.
///
///   /chunks/all                 every stored chunk
///   /chunks/time/<from>-<to>    chunks overlapping [from, to) seconds
///   /chunks/source/<id>         chunks recorded by node <id>
struct ResourceSelector {
  enum class Kind : std::uint8_t { kTime = 0, kSource = 1 };

  Kind kind = Kind::kTime;
  sim::Time from;                          //!< kTime
  sim::Time to = sim::Time::max();         //!< kTime (exclusive)
  net::NodeId source = net::kInvalidNode;  //!< kSource

  static ResourceSelector all() { return {}; }
  static ResourceSelector time_range(sim::Time from, sim::Time to) {
    ResourceSelector s;
    s.from = from;
    s.to = to;
    return s;
  }
  static ResourceSelector by_source(net::NodeId id) {
    ResourceSelector s;
    s.kind = Kind::kSource;
    s.source = id;
    return s;
  }

  bool matches(const storage::ChunkMeta& m) const {
    if (kind == Kind::kSource) return m.recorded_by == source;
    return m.end > from && m.start < to;
  }
};

/// Parses a resource path; nullopt on malformed input (unknown prefix,
/// non-numeric bounds, empty or inverted time window, a bound above
/// sim::kMaxSeconds).
std::optional<ResourceSelector> parse_resource(const std::string& path);

// --- Decode-on-drain (coded dispersal) --------------------------------------

/// One chunk as physically collected from a store: metadata plus the payload
/// bytes (empty when the experiment only tracks byte counts).
struct CollectedChunk {
  storage::ChunkMeta meta;
  std::vector<std::uint8_t> payload;
};

struct DecodeDrainStats {
  std::uint64_t groups_seen = 0;           //!< distinct ec_group values
  std::uint64_t groups_reconstructed = 0;  //!< >= k fragments, decoded
  std::uint64_t groups_redundant = 0;      //!< a whole copy also survived
  std::uint64_t groups_partial = 0;        //!< < k fragments, no whole copy
  std::uint64_t fragments_consumed = 0;    //!< distinct (group, index) pairs
  /// Every reconstruction with a surviving whole copy to compare against
  /// matched it byte for byte (vacuously true without payloads).
  bool byte_exact = true;
};

/// The coded half of draining the network: group collected fragments by
/// their original chunk, reconstruct every original with at least k distinct
/// surviving fragments, and pass whole chunks through. Partial groups are
/// accounted (not returned) rather than stalling the drain; fragments are
/// consumed. Payloads are decoded only when the fragments carry them.
std::vector<storage::Chunk> decode_collected(
    const std::vector<CollectedChunk>& collected, DecodeDrainStats* stats);

// --- The service ------------------------------------------------------------

struct RetrievalStats {
  std::uint32_t queries_served = 0;   //!< remote queries actually served
  std::uint32_t queries_forwarded = 0;
  std::uint32_t replies_relayed = 0;  //!< routed up the spanning tree
  std::uint32_t chunks_uploaded = 0;  //!< streamed into a sink's drain
  std::uint32_t chunks_relayed = 0;   //!< drain chunks forwarded upstream
  std::uint32_t relay_fallbacks = 0;  //!< relay absorbed to local store
  std::uint32_t descriptor_acks = 0;  //!< overlap collected_by acks sent
};

/// How a sink drains the field.
struct DrainOptions {
  ResourceSelector selector = ResourceSelector::all();
  std::uint8_t hops = 4;
  /// Stream chunk data over the bulk-transfer pipeline toward the tree
  /// parent (multi-hop); false reproduces the single-hop mule scheme where
  /// each chunk is a direct QueryReply to the sink.
  bool pipelined = true;
};

/// Soft-state budget for flooded queries (seen-set entries, spanning-tree
/// parents). Entries expire after the query TTL; the hard cap (4x this
/// value, enforced oldest-first) only backstops a query storm faster than
/// the TTL can age entries out — it never evicts a young live query.
inline constexpr std::size_t kRetrievalMaxQueries = 64;

class RetrievalService {
 public:
  using ReplyHandler = std::function<void(const net::QueryReply&)>;

  explicit RetrievalService(Node& node);

  /// Sink side, descriptor queries: broadcast a query; matching replies
  /// arriving at this node are passed to `on_reply`. Returns the query id.
  /// Concurrent queries are independent — each keeps its handler until the
  /// query soft-state TTL expires it.
  std::uint32_t start_query(sim::Time from, sim::Time to, std::uint8_t hops,
                            ReplyHandler on_reply);

  /// Sink side, data drains: flood a harvest query and keep re-flooding
  /// (every kDrainRequery, fresh query id each round, mule-style) until
  /// no chunk has arrived for kDrainTimeout. Chunks stream in over the
  /// spanning tree into collected(). Returns a drain id for stop_drain /
  /// drain_active.
  std::uint32_t start_drain(const DrainOptions& opts);
  void stop_drain(std::uint32_t drain_id);
  bool drain_active(std::uint32_t drain_id) const {
    return drains_.count(drain_id) != 0;
  }

  /// Everything this node has collected while acting as a sink, in arrival
  /// order (duplicates already dropped). Soft state: lost if the sink
  /// crashes mid-drain, and accounted as misses.
  const std::vector<CollectedChunk>& collected() const { return collected_; }
  const std::set<std::uint64_t>& collected_keys() const {
    return collected_keys_;
  }
  /// Simulated time the most recent chunk reached this sink; zero until the
  /// first delivery. Survives stop_drain, so a harness can measure drain
  /// span after the sessions wind down.
  sim::Time last_collected_at() const { return last_collected_at_; }

  /// `from` is the radio-level sender (the flood hop we heard the query
  /// from); it becomes this node's spanning-tree parent for the query.
  void handle(const net::QueryRequest& m, net::NodeId from);
  /// `dst` is the packet's unicast destination: only the addressed node
  /// relays a tree-routed reply further (everyone overhears it).
  void handle(const net::QueryReply& m, net::NodeId dst);

  /// Bulk-transfer hand-off: a completed incoming chunk carried a drain
  /// descriptor. Returns true when the retrieval plane consumed the chunk
  /// (delivered to a local drain, or queued for upstream relay) — the
  /// caller must then NOT append it to the store. Returns false when the
  /// relay queue is full or the node is not on this drain's tree; the chunk
  /// is then absorbed into the local store like a migration (data is
  /// preserved, a later re-flood re-serves it).
  bool on_drain_chunk(net::NodeId sink, std::uint32_t query,
                      net::NodeId from, storage::Chunk& chunk);

  const RetrievalStats& stats() const { return stats_; }
  /// Serve sessions currently streaming chunks out of this node.
  std::size_t active_serves() const { return serving_.size(); }
  /// Soft-state entries held for flooded queries (seen-set + tree parents).
  std::size_t query_state_size() const { return query_state_.size(); }
  /// Chunks parked in the upstream relay queue.
  std::size_t relay_backlog() const { return relay_.size(); }

  /// Drop all query soft state — the node crashed or rebooted. The query-id
  /// counter survives so a rebooted sink cannot reuse a live query id.
  void reset();

 private:
  struct QueryState {
    net::NodeId parent = net::kInvalidNode;  //!< invalid for own queries
    sim::Time heard;
  };
  /// One outgoing drain this node serves, per sink.
  struct ServeSession {
    std::uint32_t query_id = 0;  //!< the sink's latest flood round
    ResourceSelector sel;
    bool pipelined = false;
    sim::Time last_heard;
    std::uint64_t gen = 0;
    std::uint32_t uploaded = 0;
    /// Keys descriptor-acked to this sink already (overlap with another
    /// sink's drain), so re-floods do not re-ack.
    std::set<std::uint64_t> acked;
  };
  /// One drain this node runs as a sink.
  struct SinkDrain {
    DrainOptions opts;
    sim::Time last_progress;
    std::uint64_t gen = 0;
    std::vector<std::uint32_t> qids;  //!< flood rounds minted for this drain
  };
  struct RelayChunk {
    net::NodeId sink;
    std::uint32_t query;
    storage::Chunk chunk;
    int failures = 0;
  };

  void serve(const net::QueryRequest& q);
  void serve_descriptors(const net::QueryRequest& q);
  /// One pump step of the per-sink serve session (gen-guarded).
  void drain_step(net::NodeId sink, std::uint64_t gen);
  void finish_serve(net::NodeId sink);
  /// Upstream next hop for a drain: exact (sink, query) tree parent, else
  /// the freshest parent known for that sink, else the sink itself.
  net::NodeId route_to(net::NodeId sink, std::uint32_t query) const;
  /// Pops every store-head chunk already drained into some sink.
  void pop_uploaded_heads();
  void note_uploaded(std::uint64_t key, net::NodeId sink);
  /// Sink side: mint a fresh query id, flood one round, serve own store.
  void flood_round(std::uint32_t drain_id);
  void drain_tick(std::uint32_t drain_id, std::uint64_t gen);
  void collect_local(SinkDrain& d);
  void deliver(net::NodeId from, const storage::ChunkMeta& meta,
               std::vector<std::uint8_t> payload, std::uint32_t query);
  void pump_relay();
  /// Inserts (sink, query) soft state; returns false on a duplicate. Ages
  /// out expired entries and enforces the storm backstop cap.
  bool remember_query(net::NodeId sink, std::uint32_t query,
                      net::NodeId parent);
  bool query_protected(const std::pair<net::NodeId, std::uint32_t>& k) const;

  Node& node_;
  /// Flood soft state: seen-set and spanning-tree parent per (sink, query),
  /// TTL-expired, insertion order tracked for the storm backstop.
  std::map<std::pair<net::NodeId, std::uint32_t>, QueryState> query_state_;
  std::deque<std::pair<net::NodeId, std::uint32_t>> query_order_;
  std::map<net::NodeId, ServeSession> serving_;
  /// Chunk key -> sink it was drained into. Consulted for overlap
  /// resolution; purged of keys no longer stored when it grows.
  std::map<std::uint64_t, net::NodeId> uploaded_;
  std::deque<RelayChunk> relay_;
  bool relay_armed_ = false;
  std::uint64_t relay_gen_ = 0;
  std::uint64_t next_gen_ = 1;
  // Sink side.
  std::uint32_t next_query_id_ = 1;
  std::uint32_t next_drain_id_ = 1;
  std::map<std::uint32_t, SinkDrain> drains_;
  std::map<std::uint32_t, std::uint32_t> qid_drain_;  //!< query id -> drain
  std::map<std::uint32_t, ReplyHandler> legacy_;      //!< descriptor queries
  std::deque<std::uint32_t> legacy_order_;
  std::vector<CollectedChunk> collected_;
  std::set<std::uint64_t> collected_keys_;
  sim::Time last_collected_at_;
  RetrievalStats stats_;
};

}  // namespace enviromic::core
