// Wire messages of the EnviroMic protocols.
//
// The paper's control plane consists of leader election announcements,
// RESIGN hand-offs, SENSING heartbeats, TASK_REQUEST / TASK_CONFIRM /
// TASK_REJECT task management, storage-state beacons, bulk-transfer
// data/acks for load balancing, FTSP-style time-sync beacons, and the
// retrieval query/reply pair. Each message reports a wire size so the
// channel can model transmission delay and the metrics can count overhead
// bytes. A chunk's descriptor (ChunkMeta) is declared here once: the flash
// OOB tag, the transfer frame and the query reply each carry it whole.
#pragma once

#include <cstdint>
#include <string>
#include <variant>
#include <vector>

#include "sim/time.h"

namespace enviromic::net {

using NodeId = std::uint32_t;
constexpr NodeId kBroadcast = 0xFFFFFFFFu;
constexpr NodeId kInvalidNode = 0xFFFFFFFEu;

/// Identifier of an acoustic event == identifier of its distributed file.
/// Minted by the first elected leader: (leader id, per-leader sequence).
struct EventId {
  NodeId origin = kInvalidNode;
  std::uint32_t seq = 0;

  bool valid() const { return origin != kInvalidNode; }
  friend bool operator==(const EventId&, const EventId&) = default;
  friend auto operator<=>(const EventId&, const EventId&) = default;
  std::string str() const;
};

/// A chunk's descriptor. "Each data chunk is associated with certain
/// metadata, including start and end timestamps, a location-stamp (or the
/// ID of the recording node), and an event (i.e., file) ID" (paper
/// §III-B.3); the key makes the chunk unique network-wide. It is written to
/// flash with the chunk, migrates with it and returns to the user on
/// retrieval, always as this one struct.
struct ChunkMeta {
  std::uint64_t key = 0;           //!< globally unique chunk identity
  EventId event;                   //!< file id (may be invalid for preludes)
  sim::Time start;                 //!< recording start (recorder clock)
  sim::Time end;                   //!< recording end
  NodeId recorded_by = kInvalidNode;
  std::uint32_t bytes = 0;         //!< audio payload size
  bool is_prelude = false;

  // Erasure-coding descriptor: a coded fragment is a first-class chunk (it
  // migrates, checkpoints, and recovers like any other) that additionally
  // names the original chunk it encodes a share of. ec_k == 0 means a plain,
  // whole chunk.
  std::uint64_t ec_group = 0;      //!< original chunk's key
  std::uint8_t ec_index = 0;       //!< which of the n fragments this is
  std::uint8_t ec_k = 0;           //!< fragments needed to reconstruct
  std::uint8_t ec_n = 0;           //!< fragments generated
  std::uint32_t ec_orig_bytes = 0; //!< original payload size

  bool is_fragment() const { return ec_k != 0; }

  friend bool operator==(const ChunkMeta&, const ChunkMeta&) = default;
};

// ---------------------------------------------------------------------------
// Group management (paper §II-A.1)

/// Broadcast by a node whose election back-off expired first.
struct LeaderAnnounce {
  EventId event;
  NodeId leader = kInvalidNode;
  /// When the leader will hand out the first/next task; lets late joiners
  /// synchronize.
  sim::Time next_task_at;
};

/// Broadcast by a leader that no longer hears the event. Carries the event
/// id and the already-scheduled next task-assignment time so the new leader
/// continues the same file seamlessly (paper Fig 5).
struct Resign {
  EventId event;
  NodeId leader = kInvalidNode;
  sim::Time next_task_at;
  /// Recording task round counter, so the successor numbers rounds
  /// consistently.
  std::uint32_t next_round = 0;
};

/// Periodic heartbeat from every node currently hearing the event; the
/// leader (and all overhearers, for hand-off soft state) learn who can be
/// assigned tasks.
struct Sensing {
  EventId event;  //!< invalid until a leader has minted an id
  NodeId sender = kInvalidNode;
  double signal = 0.0;        //!< perceived acoustic amplitude
  double ttl_seconds = 0.0;   //!< sender's storage TTL (for recorder choice)
  std::uint64_t free_bytes = 0;  //!< soft state reused by the balancer
};

// ---------------------------------------------------------------------------
// Task management (paper §II-A.2)

struct TaskRequest {
  EventId event;
  NodeId leader = kInvalidNode;
  NodeId recorder = kInvalidNode;
  std::uint32_t round = 0;
  /// Replica slot within the round; EnviroMic normally records one copy,
  /// but "a controlled amount of redundancy can be introduced if needed for
  /// robustness" (paper footnote 1).
  std::uint8_t replica = 0;
  sim::Time start_at;
  sim::Time duration;
};

struct TaskConfirm {
  EventId event;
  NodeId recorder = kInvalidNode;
  std::uint32_t round = 0;
  std::uint8_t replica = 0;
};

/// Sent instead of a confirm when the solicited member already overheard a
/// TASK_CONFIRM for this round (Fig 1's optimization).
struct TaskReject {
  EventId event;
  NodeId recorder = kInvalidNode;
  std::uint32_t round = 0;
  std::uint8_t replica = 0;
};

/// After the prelude interval, the leader designates which node keeps its
/// locally-recorded prelude; all others erase theirs (paper §II-A.1).
struct PreludeKeep {
  EventId event;
  NodeId keeper = kInvalidNode;
};

// ---------------------------------------------------------------------------
// Storage balancing (paper §II-B)

/// Periodic storage/energy state beacon (piggybacked when possible).
struct StateBeacon {
  NodeId sender = kInvalidNode;
  double ttl_storage_s = 0.0;
  double ttl_energy_s = 0.0;
  std::uint64_t free_bytes = 0;
  /// Sender's gossip estimate of the network-mean free bytes (global
  /// balancing extension; 0 when the local-greedy strategy runs).
  double est_mean_free = 0.0;
  /// Sender's current beacon interval in seconds (idle back-off raises it
  /// above beacon_period). Receivers scale their soft-state expiry by it so
  /// a backed-off but live sender is not aged out early. 0 = sender runs
  /// the base period.
  double interval_s = 0.0;
};

/// Ask a neighbour to accept up to `bytes` of migrated data.
struct TransferOffer {
  NodeId sender = kInvalidNode;
  NodeId to = kInvalidNode;
  std::uint64_t bytes = 0;
};

/// Receiver grants a window of `bytes` it is willing to absorb.
struct TransferGrant {
  NodeId sender = kInvalidNode;
  NodeId to = kInvalidNode;
  std::uint64_t bytes = 0;
};

/// One fragment of a migrating chunk; fragments reassemble in order.
struct TransferData {
  NodeId sender = kInvalidNode;
  NodeId to = kInvalidNode;
  std::uint32_t frag_index = 0;
  std::uint32_t frag_count = 0;
  std::uint32_t payload_bytes = 0;
  /// Byte offset of this fragment within the chunk, computed by the SENDER.
  /// The receiver must place the payload here rather than derive an offset
  /// from its own transfer_fragment_bytes — the two nodes may be configured
  /// with different fragment sizes.
  std::uint32_t byte_offset = 0;
  /// The sender asks for an immediate ack (end of a window burst, or the
  /// last fragment of the chunk). In-order fragments without the flag are
  /// absorbed silently; duplicates and out-of-order arrivals always ack.
  bool ack_request = false;
  /// Like the flash OOB layout: `meta.key` on every fragment, the whole
  /// descriptor on fragment 0, from which the receiver rebuilds the chunk's
  /// metadata. Only a coded fragment 0 pays for the erasure-coding identity
  /// on the wire, so non-coded runs keep their exact airtime.
  ChunkMeta meta;
  /// Retrieval-drain routing (frag_index == 0 only): the chunk is part of a
  /// pipelined drain toward this sink; intermediate tree nodes relay it
  /// upstream instead of storing it. kInvalidNode (the default) marks an
  /// ordinary balancing migration and pays nothing on the wire.
  NodeId drain_sink = kInvalidNode;
  std::uint32_t drain_query = 0;
  /// Actual audio bytes when the experiment stores payloads (not counted in
  /// wire size beyond payload_bytes, which it mirrors).
  std::vector<std::uint8_t> payload;
};

/// Cumulative + selective acknowledgment for the windowed fragment pipeline.
/// `cum_frags` counts contiguously received fragments from index 0, `sack`
/// is a bitmap of fragments received beyond the first hole (bit i set means
/// fragment cum_frags + 1 + i arrived). `frag_index` still names the
/// fragment that triggered the ack.
struct TransferAck {
  NodeId sender = kInvalidNode;
  NodeId to = kInvalidNode;
  std::uint64_t chunk_key = 0;
  std::uint32_t frag_index = 0;
  std::uint32_t cum_frags = 0;
  std::uint32_t sack = 0;
};

// ---------------------------------------------------------------------------
// Time synchronization (paper §III-A, FTSP-derived)

struct TimeSyncBeacon {
  NodeId sender = kInvalidNode;
  NodeId root = kInvalidNode;
  std::uint32_t seq = 0;
  /// Root-clock estimate stamped at transmission.
  sim::Time root_time;
};

// ---------------------------------------------------------------------------
// Retrieval (paper §II-C)

struct QueryRequest {
  NodeId sink = kInvalidNode;
  sim::Time from;
  sim::Time to;
  /// Hop budget: 1 reproduces the paper's single-hop scheme; larger values
  /// flood along a spanning tree.
  std::uint8_t hops_left = 1;
  std::uint32_t query_id = 0;
  /// Data-mule harvest: the node uploads (and frees) its stored chunks to
  /// the sink instead of only describing them.
  bool harvest = false;
  /// Harvest uploads stream over the windowed bulk-transfer pipeline toward
  /// the spanning-tree parent (multi-hop drains) instead of as per-chunk
  /// QueryReply descriptors to the sink (the single-hop mule scheme). Packs
  /// into the same flags byte as `harvest`, so it costs nothing on the wire.
  bool pipelined = false;
  /// CoAP-style resource selector kind (ResourceSelector::Kind): 0 selects
  /// by the [from, to) time window above, 1 by recording node. Only the
  /// source form pays extra wire bytes.
  std::uint8_t sel_kind = 0;
  NodeId source = kInvalidNode;  //!< sel_kind == 1: /chunks/source/<id>
};

/// Metadata for one chunk matching a query (data itself is then pulled over
/// bulk transfer in a real deployment; here the reply carries the chunk
/// descriptor which is all the harness needs).
struct QueryReply {
  NodeId sender = kInvalidNode;
  NodeId sink = kInvalidNode;
  std::uint32_t query_id = 0;
  /// Overlap resolution between concurrent sinks: the described chunk was
  /// already streamed into this sink's drain, so the queried node answers
  /// with a descriptor ack instead of re-uploading the data. kInvalidNode
  /// (the default) pays nothing on the wire.
  NodeId collected_by = kInvalidNode;
  /// The described chunk, whole; only coded replies pay for its
  /// erasure-coding identity on the wire.
  ChunkMeta meta;
};

// ---------------------------------------------------------------------------

using Message =
    std::variant<LeaderAnnounce, Resign, Sensing, TaskRequest, TaskConfirm,
                 TaskReject, PreludeKeep, StateBeacon, TransferOffer,
                 TransferGrant, TransferData, TransferAck, TimeSyncBeacon,
                 QueryRequest, QueryReply>;

/// Payload bytes a message occupies on the air (excluding PHY/MAC framing,
/// which Packet adds).
std::uint32_t wire_size(const Message& m);

/// Index into per-type counters.
std::size_t type_index(const Message& m);
constexpr std::size_t kMessageTypeCount = std::variant_size_v<Message>;

/// A packet on the air. EnviroMic's neighbourhood-broadcast module
/// piggybacks delay-tolerant messages onto delay-sensitive ones, so a packet
/// carries one or more messages.
struct Packet {
  NodeId src = kInvalidNode;
  NodeId dst = kBroadcast;  //!< kBroadcast or a unicast destination
  std::vector<Message> messages;

  std::uint32_t payload_bytes() const;
  std::uint32_t total_bytes() const;  //!< payload + framing

  /// 802.15.4-ish fixed framing overhead per packet.
  static constexpr std::uint32_t kFramingBytes = 15;
};

/// True when only the packet's addressee acts on it: a unicast packet made
/// solely of TransferOffer/Grant/Data/Ack frames whose `to` is `p.dst`.
/// Every other receiver's bulk-transfer handlers return on `to` before any
/// state change or RNG draw, so the channel skips their receive handler.
bool addressee_only(const Packet& p);

}  // namespace enviromic::net
