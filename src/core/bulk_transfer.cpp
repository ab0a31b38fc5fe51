#include "core/bulk_transfer.h"

#include <algorithm>
#include <cassert>

#include "core/balancer.h"
#include "sim/trace.h"
#include "core/metrics.h"
#include "core/node.h"

namespace enviromic::core {

namespace {
constexpr std::size_t kCompletedMemory = 128;
constexpr std::uint32_t kNoFastRetx = 0xffffffffu;

/// Word `w` of a fragment bitmap; words past the end read as empty.
std::uint64_t frag_word(const std::vector<std::uint64_t>& bits, std::size_t w) {
  return w < bits.size() ? bits[w] : 0;
}

bool has_frag(const std::vector<std::uint64_t>& bits, std::uint32_t f) {
  return (frag_word(bits, f >> 6) >> (f & 63)) & 1;
}

/// Marks fragment `f` received; false when it already was.
bool add_frag(std::vector<std::uint64_t>& bits, std::uint32_t f) {
  const std::size_t w = f >> 6;
  if (w >= bits.size()) bits.resize(w + 1, 0);
  const std::uint64_t bit = std::uint64_t{1} << (f & 63);
  if (bits[w] & bit) return false;
  bits[w] |= bit;
  return true;
}
}  // namespace

BulkTransfer::BulkTransfer(Node& node)
    : node_(node),
      pacing_slot_(node.proto_timer().add_slot([this] { pump(); })),
      retx_slot_(node.proto_timer().add_slot([this] { on_retx_timer(); })),
      rx_sweep_slot_(node.proto_timer().add_slot([this] { sweep_rx(); })) {}

std::uint32_t BulkTransfer::window() const {
  return std::max<std::uint32_t>(1, node_.cfg().transfer_window_frags);
}

std::uint32_t BulkTransfer::frags_in_flight() const {
  if (!tx_ || !tx_->current) return 0;
  return tx_->next_frag - tx_->acked_total;
}

void BulkTransfer::start_session(net::NodeId to, int max_chunks) {
  if (tx_ || max_chunks <= 0) return;
  if (node_.store().chunk_count() == 0) return;
  tx_ = SendSession{};
  tx_->to = to;
  tx_->chunks_left = max_chunks;
  last_tx_activity_ = node_.sched().now();
  ++stats_.sessions;
  sim::trace_begin(node_.sched().trace(), node_.sched().now(),
                   sim::TraceEvent::kBulkSession, node_.id(), to);
  send_offer();
}

void BulkTransfer::start_push(net::NodeId to, storage::Chunk chunk,
                              std::function<void(bool)> done,
                              net::NodeId drain_sink,
                              std::uint32_t drain_query) {
  if (tx_) {
    if (done) done(false);
    return;
  }
  tx_ = SendSession{};
  tx_->to = to;
  tx_->chunks_left = 1;
  tx_->push_mode = true;
  tx_->push_chunk = std::move(chunk);
  tx_->push_done = std::move(done);
  tx_->drain_sink = drain_sink;
  tx_->drain_query = drain_query;
  last_tx_activity_ = node_.sched().now();
  ++stats_.sessions;
  sim::trace_begin(node_.sched().trace(), node_.sched().now(),
                   sim::TraceEvent::kBulkSession, node_.id(), to);
  send_offer();
}

void BulkTransfer::send_offer() {
  net::TransferOffer offer;
  offer.sender = node_.id();
  offer.to = tx_->to;
  // Offer what this session could move at most: the pushed chunk, or the
  // first chunks_left head chunks. Early-exit — the store may hold thousands
  // of chunks and a session only ever moves a small prefix.
  std::uint64_t bytes = 0;
  if (tx_->push_mode) {
    bytes = tx_->push_chunk->meta.bytes;
  } else {
    int counted = 0;
    node_.store().for_each_until([&](const storage::ChunkMeta& m) {
      if (counted >= tx_->chunks_left) return false;
      ++counted;
      bytes += m.bytes;
      return true;
    });
    // The offer must cover at least the head chunk, or a full grant could
    // never let next_chunk() move anything.
    assert(counted == 0 || bytes >= node_.store().head_meta()->bytes);
  }
  // A zero-byte chunk still needs a non-empty grant window.
  offer.bytes = std::max<std::uint64_t>(1, bytes);
  node_.nb().send_to(tx_->to, offer);
  // Grant timeout: the neighbour may be recording or unreachable.
  node_.proto_timer().arm_after(retx_slot_,
                                node_.cfg().transfer_ack_timeout * 4);
}

void BulkTransfer::handle(const net::TransferOffer& m) {
  if (m.to != node_.id()) return;
  if (node_.cfg().mode != Mode::kFull) return;
  const std::uint64_t free = node_.store().free_bytes();
  if (free < node_.flash().block_size()) return;  // cannot absorb anything
  net::TransferGrant g;
  g.sender = node_.id();
  g.to = m.sender;
  // Leave one block of headroom for our own next recording.
  g.bytes = std::min<std::uint64_t>(m.bytes, free - node_.flash().block_size());
  if (g.bytes == 0) return;
  node_.nb().send_to(m.sender, g);
}

void BulkTransfer::handle(const net::TransferGrant& m) {
  if (m.to != node_.id()) return;
  if (!tx_ || tx_->grant_received || m.sender != tx_->to) return;
  tx_->grant_received = true;
  tx_->granted_bytes = m.bytes;
  last_tx_activity_ = node_.sched().now();
  next_chunk();
  // The watchdog now tracks fragment progress instead of the grant.
  if (tx_) {
    node_.proto_timer().arm_after(retx_slot_, node_.cfg().transfer_ack_timeout);
  }
}

void BulkTransfer::next_chunk() {
  assert(tx_);
  if (tx_->chunks_left <= 0) {
    end_session(/*aborted=*/false);
    return;
  }
  storage::Chunk c;
  if (tx_->push_mode) {
    if (!tx_->push_chunk || tx_->push_chunk->meta.bytes > tx_->granted_bytes) {
      // The peer could not absorb the fragment; not a liveness failure, so
      // no unreachable penalty — the dispersal just tries the next peer.
      end_session(/*aborted=*/false);
      return;
    }
    c = std::move(*tx_->push_chunk);
    tx_->push_chunk.reset();
  } else {
    const storage::ChunkMeta* head = node_.store().head_meta();
    if (!head || head->bytes > tx_->granted_bytes) {
      end_session(/*aborted=*/false);
      return;
    }
    c.meta = *head;
    c.payload = node_.store().read_payload(head->key);
  }
  tx_->current = std::move(c);
  const std::uint32_t frag = node_.cfg().transfer_fragment_bytes;
  tx_->frag_count = std::max<std::uint32_t>(1, (tx_->current->meta.bytes + frag - 1) / frag);
  tx_->next_frag = 0;
  tx_->cum_acked = 0;
  tx_->acked_total = 0;
  tx_->acked.assign(tx_->frag_count, false);
  tx_->fast_retx_frag = kNoFastRetx;
  tx_->retries = 0;
  tx_->burst_left = 0;
  tx_->stalled = false;
  // Pace the first burst one spacing period out, like the original
  // stop-and-wait loop paced each fragment: the bulk stream shares the
  // channel with live control traffic.
  tx_->next_burst_at = node_.sched().now() + node_.cfg().transfer_fragment_spacing;
  node_.proto_timer().arm(pacing_slot_, tx_->next_burst_at);
}

void BulkTransfer::pump() {
  if (!tx_ || !tx_->current || !tx_->grant_received) return;
  SendSession& s = *tx_;
  const sim::Time now = node_.sched().now();
  if (s.burst_left == 0) {
    if (now < s.next_burst_at) {
      node_.proto_timer().arm(pacing_slot_, s.next_burst_at);
      return;
    }
    s.burst_left = window();
    s.next_burst_at = now + node_.cfg().transfer_fragment_spacing;
  }
  if (s.next_frag >= s.frag_count) return;  // all sent; watchdog owns progress
  if (frags_in_flight() >= window()) {
    // Window full: park the pump. The ack that frees a slot restarts it.
    ++stats_.window_stalls;
    sim::trace_instant(node_.sched().trace(), now,
                       sim::TraceEvent::kWindowStall, node_.id(), s.to,
                       frags_in_flight());
    s.stalled = true;
    return;
  }
  const std::uint32_t f = s.next_frag;
  const bool want_ack = (f + 1 == s.frag_count) ||  // last of the chunk
                        (s.burst_left == 1) ||      // last of this burst
                        (frags_in_flight() + 1 >= window());  // window closing
  if (!send_fragment(f, want_ack)) return;  // session ended (radio off)
  ++s.next_frag;
  --s.burst_left;
  stats_.max_in_flight = std::max(stats_.max_in_flight, frags_in_flight());
  if (s.next_frag < s.frag_count) {
    node_.proto_timer().arm(pacing_slot_,
                            s.burst_left > 0
                                ? now + node_.cfg().transfer_burst_gap
                                : s.next_burst_at);
  }
}

bool BulkTransfer::send_fragment(std::uint32_t frag, bool ack_request) {
  assert(tx_ && tx_->current);
  const auto& meta = tx_->current->meta;
  const std::uint32_t frag_size = node_.cfg().transfer_fragment_bytes;
  net::TransferData d;
  d.sender = node_.id();
  d.to = tx_->to;
  d.chunk_key = meta.key;
  d.frag_index = frag;
  d.frag_count = tx_->frag_count;
  d.ack_request = ack_request;
  const std::uint64_t off = static_cast<std::uint64_t>(frag) * frag_size;
  d.byte_offset = static_cast<std::uint32_t>(std::min<std::uint64_t>(off, meta.bytes));
  d.payload_bytes = static_cast<std::uint32_t>(
      std::min<std::uint64_t>(frag_size, meta.bytes - std::min<std::uint64_t>(meta.bytes, off)));
  if (d.payload_bytes == 0) d.payload_bytes = 1;  // zero-byte chunk edge
  if (d.frag_index == 0) {
    d.event = meta.event;
    d.start = meta.start;
    d.end = meta.end;
    d.recorded_by = meta.recorded_by;
    d.chunk_bytes = meta.bytes;
    d.is_prelude = meta.is_prelude;
    d.ec_group = meta.ec_group;
    d.ec_index = meta.ec_index;
    d.ec_k = meta.ec_k;
    d.ec_n = meta.ec_n;
    d.ec_orig_bytes = meta.ec_orig_bytes;
    d.drain_sink = tx_->drain_sink;
    d.drain_query = tx_->drain_query;
  }
  if (!tx_->current->payload.empty() && off < tx_->current->payload.size()) {
    const auto len = std::min<std::size_t>(
        d.payload_bytes, tx_->current->payload.size() - off);
    d.payload.assign(tx_->current->payload.begin() + static_cast<std::ptrdiff_t>(off),
                     tx_->current->payload.begin() + static_cast<std::ptrdiff_t>(off + len));
  }
  if (!node_.nb().send_to(tx_->to, std::move(d))) {
    end_session(/*aborted=*/true);
    return false;
  }
  last_tx_activity_ = node_.sched().now();
  return true;
}

void BulkTransfer::on_retx_timer() {
  if (!tx_) return;
  const sim::Time now = node_.sched().now();
  if (!tx_->grant_received) {
    // The grant never arrived within ack_timeout * 4.
    end_session(/*aborted=*/true);
    return;
  }
  if (!tx_->current) return;
  // Lazy deadline: sends and progress acks advance last_tx_activity_ without
  // re-arming the slot; the watchdog re-checks when it fires.
  const sim::Time due = last_tx_activity_ + node_.cfg().transfer_ack_timeout;
  if (now < due) {
    node_.proto_timer().arm(retx_slot_, due);
    return;
  }
  if (frags_in_flight() == 0) {
    // Nothing outstanding (pump is between bursts); check back later.
    node_.proto_timer().arm_after(retx_slot_, node_.cfg().transfer_ack_timeout);
    return;
  }
  if (++tx_->retries > node_.cfg().transfer_max_retries) {
    // Give up: keep the chunk locally. If the receiver actually completed
    // it (our acks were the losses), both sides now store a copy — the
    // incidental replication the paper describes.
    ++stats_.duplicate_risks;
    end_session(/*aborted=*/true);
    return;
  }
  ++stats_.fragments_retried;
  sim::trace_instant(node_.sched().trace(), now, sim::TraceEvent::kFragRetx,
                     node_.id(), tx_->to, tx_->cum_acked);
  // Retransmit the oldest unacked fragment and demand an ack: its cum+SACK
  // reply resynchronizes the whole window.
  if (!send_fragment(tx_->cum_acked, /*ack_request=*/true)) return;
  node_.proto_timer().arm_after(retx_slot_, node_.cfg().transfer_ack_timeout);
}

void BulkTransfer::handle(const net::TransferAck& m) {
  if (m.to != node_.id()) return;
  if (!tx_ || !tx_->current || m.sender != tx_->to) return;
  if (m.chunk_key != tx_->current->meta.key) return;
  SendSession& s = *tx_;
  bool progress = false;
  auto mark = [&](std::uint32_t f) {
    if (f >= s.frag_count || f >= s.next_frag) return;  // never ack unsent
    if (!s.acked[f]) {
      s.acked[f] = true;
      ++s.acked_total;
      progress = true;
    }
  };
  const std::uint32_t cum = std::min(m.cum_frags, s.frag_count);
  for (std::uint32_t f = s.cum_acked; f < cum; ++f) mark(f);
  for (std::uint32_t i = 0; i < 32; ++i) {
    if (m.sack & (1u << i)) mark(cum + 1 + i);
  }
  mark(m.frag_index);
  while (s.cum_acked < s.frag_count && s.acked[s.cum_acked]) ++s.cum_acked;
  if (progress) {
    s.retries = 0;
    last_tx_activity_ = node_.sched().now();
  }

  if (s.cum_acked >= s.frag_count) {
    // Chunk fully delivered: remove it locally (a pushed chunk never lived
    // in the store — its originator decides what the delivery means).
    const std::uint32_t moved = s.current->meta.bytes;
    if (s.push_mode) {
      s.push_delivered = true;
    } else {
      auto popped = node_.store().pop_head();
      assert(popped && popped->meta.key == s.current->meta.key);
      (void)popped;
    }
    s.granted_bytes -= std::min<std::uint64_t>(s.granted_bytes, moved);
    s.bytes_moved += moved;
    s.chunks_left -= 1;
    ++stats_.chunks_sent;
    stats_.bytes_sent += moved;
    if (node_.metrics()) {
      node_.metrics()->note_migration(node_.id(), s.to, moved);
    }
    s.current.reset();
    next_chunk();
    return;
  }

  // Fast retransmit: the receiver holds fragments beyond the first hole, so
  // the hole was lost rather than still in flight. Resend it once; the
  // cumulative edge advancing re-arms the heuristic for the next hole.
  if (progress && s.cum_acked < s.next_frag && s.acked_total > s.cum_acked &&
      s.fast_retx_frag != s.cum_acked) {
    s.fast_retx_frag = s.cum_acked;
    ++stats_.fragments_retried;
    sim::trace_instant(node_.sched().trace(), node_.sched().now(),
                       sim::TraceEvent::kFragRetx, node_.id(), s.to,
                       s.cum_acked);
    if (!send_fragment(s.cum_acked, /*ack_request=*/true)) return;
  }

  // An ack that freed window space restarts a parked pacing pump.
  if (s.stalled && frags_in_flight() < window()) {
    s.stalled = false;
    node_.proto_timer().arm_after(pacing_slot_, node_.cfg().transfer_burst_gap);
  }
}

std::uint32_t BulkTransfer::sack_bits(const RecvState& st) {
  // Bits contig+1 .. contig+32 of the bitmap; they straddle two words when
  // the first one sits above bit 32 of its word.
  const std::uint64_t first = std::uint64_t{st.contig} + 1;
  const std::size_t w = static_cast<std::size_t>(first >> 6);
  const unsigned shift = static_cast<unsigned>(first & 63);
  std::uint64_t bits = frag_word(st.got, w) >> shift;
  if (shift > 32) bits |= frag_word(st.got, w + 1) << (64 - shift);
  return static_cast<std::uint32_t>(bits);
}

void BulkTransfer::handle(const net::TransferData& m) {
  if (m.to != node_.id()) return;
  if (completed_.count(m.chunk_key)) {
    // Re-ack idempotently: the sender missed our earlier completion ack.
    send_ack(m.sender, m.chunk_key, m.frag_index, m.frag_count, 0);
    return;
  }
  auto it = rx_.find(m.chunk_key);
  if (it == rx_.end()) {
    RecvState st;
    st.from = m.sender;
    rx_.emplace(m.chunk_key, std::move(st));
    it = rx_.find(m.chunk_key);
    arm_rx_sweep();
  }
  RecvState& st = it->second;
  st.frag_count = m.frag_count;
  st.last_activity = node_.sched().now();
  if (m.frag_index == 0) {
    st.meta.key = m.chunk_key;
    st.meta.event = m.event;
    st.meta.start = m.start;
    st.meta.end = m.end;
    st.meta.recorded_by = m.recorded_by;
    st.meta.bytes = m.chunk_bytes;
    st.meta.is_prelude = m.is_prelude;
    st.meta.ec_group = m.ec_group;
    st.meta.ec_index = m.ec_index;
    st.meta.ec_k = m.ec_k;
    st.meta.ec_n = m.ec_n;
    st.meta.ec_orig_bytes = m.ec_orig_bytes;
    st.drain_sink = m.drain_sink;
    st.drain_query = m.drain_query;
  }
  if (!m.payload.empty()) {
    // Place the payload at the SENDER's byte offset: the two nodes may be
    // configured with different transfer_fragment_bytes, so deriving the
    // offset from the local fragment size would corrupt the reassembly.
    const std::size_t off = m.byte_offset;
    if (st.payload.size() < off + m.payload.size())
      st.payload.resize(off + m.payload.size());
    std::copy(m.payload.begin(), m.payload.end(),
              st.payload.begin() + static_cast<std::ptrdiff_t>(off));
  }
  const bool dup = !add_frag(st.got, m.frag_index);
  while (st.contig < st.frag_count && has_frag(st.got, st.contig)) ++st.contig;

  if (st.contig < st.frag_count) {
    // Out-of-order arrivals ack immediately (the SACK drives the sender's
    // fast retransmit); duplicates re-ack (the sender missed our ack);
    // in-order fragments stay silent unless the sender asked.
    const bool out_of_order = m.frag_index > st.contig;
    if (m.ack_request || dup || out_of_order) {
      send_ack(m.sender, m.chunk_key, m.frag_index, st.contig, sack_bits(st));
    }
    return;
  }

  // This fragment completes the chunk. Store it BEFORE acknowledging: an
  // acked final fragment makes the sender delete its copy, so acking a
  // failed append would destroy data.
  storage::Chunk c;
  c.meta = st.meta;
  c.payload = std::move(st.payload);
  const std::uint32_t bytes = st.meta.bytes;
  const std::uint32_t frag_count = st.frag_count;
  const net::NodeId drain_sink = st.drain_sink;
  const std::uint32_t drain_query = st.drain_query;
  rx_.erase(m.chunk_key);
  // A drain-routed chunk goes to the retrieval plane (delivered at the sink
  // or queued for the next hop); its overflow path — and every ordinary
  // migration — lands in the store.
  const bool consumed =
      drain_sink != net::kInvalidNode &&
      node_.retrieval().on_drain_chunk(drain_sink, drain_query, m.sender, c);
  if (!consumed && !node_.store().append(std::move(c))) {
    // No room after all (we filled up since granting); stay silent so the
    // sender keeps the chunk and eventually aborts.
    return;
  }
  ++stats_.chunks_received;
  stats_.bytes_received += bytes;
  completed_.insert(m.chunk_key);
  completed_order_.push_back(m.chunk_key);
  while (completed_order_.size() > kCompletedMemory) {
    completed_.erase(completed_order_.front());
    completed_order_.pop_front();
  }
  // Received data may make us the new hot spot; the balancer re-checks the
  // trigger on its next tick.
  send_ack(m.sender, m.chunk_key, m.frag_index, frag_count, 0);
}

void BulkTransfer::send_ack(net::NodeId to, std::uint64_t key,
                           std::uint32_t frag, std::uint32_t cum_frags,
                           std::uint32_t sack) {
  if (sack != 0) {
    sim::trace_instant(node_.sched().trace(), node_.sched().now(),
                       sim::TraceEvent::kTransferSack, node_.id(), to, sack);
  }
  net::TransferAck a;
  a.sender = node_.id();
  a.to = to;
  a.chunk_key = key;
  a.frag_index = frag;
  a.cum_frags = cum_frags;
  a.sack = sack;
  node_.nb().send_to(to, a);
}

void BulkTransfer::end_session(bool aborted) {
  if (!tx_) return;
  if (aborted) ++stats_.aborts;
  const net::NodeId to = tx_->to;
  const std::uint64_t moved = tx_->bytes_moved;
  auto push_done = std::move(tx_->push_done);
  const bool delivered = tx_->push_delivered && !aborted;
  sim::trace_end(node_.sched().trace(), node_.sched().now(),
                 sim::TraceEvent::kBulkSession, node_.id(), to, moved,
                 aborted ? 1.0 : 0.0);
  node_.proto_timer().disarm(pacing_slot_);
  node_.proto_timer().disarm(retx_slot_);
  tx_.reset();
  if (aborted) {
    // The peer stopped responding mid-session: drop its beacon soft state so
    // the balancer does not immediately re-target it.
    node_.balancer().note_peer_unreachable(to);
  }
  node_.balancer().on_session_end(to, moved, aborted);
  // Last: the dispersal callback may immediately start the next fragment
  // push (the balancer above already saw this session closed).
  if (push_done) push_done(delivered);
}

void BulkTransfer::arm_rx_sweep() {
  if (node_.proto_timer().armed(rx_sweep_slot_)) return;
  node_.proto_timer().arm_after(rx_sweep_slot_,
                                node_.cfg().transfer_rx_timeout.scaled(0.5));
}

void BulkTransfer::sweep_rx() {
  const sim::Time now = node_.sched().now();
  const sim::Time timeout = node_.cfg().transfer_rx_timeout;
  for (auto it = rx_.begin(); it != rx_.end();) {
    if (now - it->second.last_activity >= timeout) {
      ++stats_.rx_expired;
      sim::trace_instant(node_.sched().trace(), now,
                         sim::TraceEvent::kTransferRxExpired, node_.id(),
                         it->second.from, it->first);
      it = rx_.erase(it);
    } else {
      ++it;
    }
  }
  if (!rx_.empty()) arm_rx_sweep();
}

void BulkTransfer::reset() {
  if (tx_) {
    ++stats_.aborts;
    if (tx_->current) ++stats_.duplicate_risks;
    sim::trace_end(node_.sched().trace(), node_.sched().now(),
                   sim::TraceEvent::kBulkSession, node_.id(), tx_->to,
                   tx_->bytes_moved, 1.0);
    tx_.reset();
  }
  node_.proto_timer().disarm(pacing_slot_);
  node_.proto_timer().disarm(retx_slot_);
  node_.proto_timer().disarm(rx_sweep_slot_);
  rx_.clear();
  completed_.clear();
  completed_order_.clear();
}

bool BulkTransfer::tx_stuck(sim::Time now) const {
  if (!tx_) return false;
  // Generous bound: a live session makes progress (or aborts) within the
  // retry budget; anything slower means a timer was lost.
  const sim::Time budget =
      node_.cfg().transfer_ack_timeout * (node_.cfg().transfer_max_retries + 4);
  return now - last_tx_activity_ > budget;
}

bool BulkTransfer::rx_stuck(sim::Time now) const {
  for (const auto& [key, st] : rx_) {
    (void)key;
    if (now - st.last_activity > node_.cfg().transfer_rx_timeout * 2)
      return true;
  }
  return false;
}

}  // namespace enviromic::core
