#include "core/retrieval.h"

#include <algorithm>
#include <map>
#include <vector>

#include "core/node.h"
#include "sim/trace.h"
#include "storage/erasure.h"
#include "util/parse.h"

namespace enviromic::core {

namespace {
/// Spacing between a node's successive replies and uploads.
constexpr sim::Time kReplySpacing = sim::Time::millis(5);
/// Age at which flooded-query soft state expires.
constexpr sim::Time kRetrievalQueryTtl = sim::Time::seconds_i(30);
/// A sink re-floods its drain query on this cadence (mule-style keepalive:
/// serving nodes pause uploads for sinks they stopped hearing).
constexpr sim::Time kDrainRequery = sim::Time::seconds_i(2);
/// Serving nodes end a drain session when the sink's query goes stale for
/// this long; sinks end a drain after this long without a new chunk.
constexpr sim::Time kDrainTimeout = sim::Time::seconds_i(10);
/// Back-off before re-attempting a drain step that could not run (node
/// recording, radio off, bulk-transfer pipe busy, push not granted).
constexpr sim::Time kDrainRetry = sim::Time::millis(500);
/// Relay RAM queue bound per node for pipelined drains; overflow falls
/// back to absorbing the chunk into the local store (data preserved, the
/// drain re-serves it on a later re-flood).
constexpr std::size_t kDrainRelayQueueMax = 16;
/// A relay chunk whose upstream push keeps failing falls back to the
/// local store after this many attempts (the parent died; re-flooding
/// re-routes around it).
constexpr int kDrainRelayMaxFailures = 4;
}  // namespace

// --- Resource addressing ----------------------------------------------------

std::optional<ResourceSelector> parse_resource(const std::string& path) {
  static const std::string kTimePfx = "/chunks/time/";
  static const std::string kSrcPfx = "/chunks/source/";
  if (path == "/chunks/all") return ResourceSelector::all();
  if (path.rfind(kTimePfx, 0) == 0) {
    const std::string rest = path.substr(kTimePfx.size());
    const auto dash = rest.find('-');
    if (dash == std::string::npos || dash == 0 || dash + 1 >= rest.size())
      return std::nullopt;
    double from = 0.0, to = 0.0;
    if (!util::parse_double(rest.substr(0, dash).c_str(), &from) ||
        !util::parse_double(rest.substr(dash + 1).c_str(), &to))
      return std::nullopt;
    if (from < 0.0 || to <= from || to > sim::kMaxSeconds) return std::nullopt;
    return ResourceSelector::time_range(sim::Time::seconds(from),
                                        sim::Time::seconds(to));
  }
  if (path.rfind(kSrcPfx, 0) == 0) {
    std::uint64_t id = 0;
    if (!util::parse_u64(path.substr(kSrcPfx.size()).c_str(), &id))
      return std::nullopt;
    if (id >= net::kInvalidNode) return std::nullopt;
    return ResourceSelector::by_source(static_cast<net::NodeId>(id));
  }
  return std::nullopt;
}

namespace {

ResourceSelector selector_of(const net::QueryRequest& q) {
  if (q.sel_kind == static_cast<std::uint8_t>(ResourceSelector::Kind::kSource))
    return ResourceSelector::by_source(q.source);
  return ResourceSelector::time_range(q.from, q.to);
}

void apply_selector(net::QueryRequest& q, const ResourceSelector& s) {
  q.sel_kind = static_cast<std::uint8_t>(s.kind);
  if (s.kind == ResourceSelector::Kind::kSource) {
    q.source = s.source;
    q.from = sim::Time::zero();
    q.to = sim::Time::max();
  } else {
    q.from = s.from;
    q.to = s.to;
  }
}

net::QueryReply reply_for(net::NodeId self, net::NodeId sink,
                          std::uint32_t query_id,
                          const storage::ChunkMeta& meta) {
  net::QueryReply r;
  r.sender = self;
  r.sink = sink;
  r.query_id = query_id;
  r.meta = meta;
  return r;
}

}  // namespace

// --- Decode-on-drain --------------------------------------------------------

std::vector<storage::Chunk> decode_collected(
    const std::vector<CollectedChunk>& collected, DecodeDrainStats* stats) {
  DecodeDrainStats local;
  DecodeDrainStats& st = stats ? *stats : local;

  struct Group {
    std::vector<const CollectedChunk*> fragments;  //!< distinct ec_index only
    const CollectedChunk* whole = nullptr;         //!< surviving original copy
  };
  std::map<std::uint64_t, Group> groups;
  std::vector<storage::Chunk> out;
  for (const auto& c : collected) {
    if (!c.meta.is_fragment()) {
      // Whole chunks pass straight through; remember any that belong to a
      // coded group so redundant reconstructions can be cross-checked.
      storage::Chunk ch;
      ch.meta = c.meta;
      ch.payload = c.payload;
      out.push_back(std::move(ch));
      groups[c.meta.key].whole = &c;
      continue;
    }
    auto& g = groups[c.meta.ec_group];
    const bool dup = std::any_of(
        g.fragments.begin(), g.fragments.end(),
        [&](const CollectedChunk* f) { return f->meta.ec_index == c.meta.ec_index; });
    if (dup) continue;  // a re-collected share adds nothing to the decode
    g.fragments.push_back(&c);
    ++st.fragments_consumed;
  }

  for (auto& [orig_key, g] : groups) {
    if (g.fragments.empty()) continue;  // whole-only entry, already emitted
    ++st.groups_seen;
    const storage::ChunkMeta& fm = g.fragments.front()->meta;
    const unsigned k = fm.ec_k;
    if (g.whole) {
      // The original itself survived; the fragments are pure surplus. When
      // both carry payloads and enough fragments are on hand, cross-check
      // the decode against the surviving copy.
      ++st.groups_redundant;
      if (!g.whole->payload.empty() && g.fragments.size() >= k &&
          std::all_of(g.fragments.begin(), g.fragments.end(),
                      [](const CollectedChunk* f) { return !f->payload.empty(); })) {
        std::vector<storage::ErasureShard> shards;
        for (const CollectedChunk* f : g.fragments)
          shards.push_back({f->meta.ec_index, f->payload});
        const storage::ErasureCodec codec(k, fm.ec_n, orig_key);
        auto decoded = codec.decode(shards, g.whole->payload.size());
        if (!decoded || *decoded != g.whole->payload) st.byte_exact = false;
      }
      continue;
    }
    if (g.fragments.size() < k) {
      ++st.groups_partial;
      continue;
    }
    storage::Chunk rec;
    rec.meta = fm;
    rec.meta.key = orig_key;
    rec.meta.bytes = fm.ec_orig_bytes;
    rec.meta.ec_group = 0;
    rec.meta.ec_index = 0;
    rec.meta.ec_k = 0;
    rec.meta.ec_n = 0;
    rec.meta.ec_orig_bytes = 0;
    const bool have_payloads = std::all_of(
        g.fragments.begin(), g.fragments.end(),
        [](const CollectedChunk* f) { return !f->payload.empty(); });
    if (have_payloads && fm.ec_orig_bytes > 0) {
      std::vector<storage::ErasureShard> shards;
      shards.reserve(g.fragments.size());
      for (const CollectedChunk* f : g.fragments)
        shards.push_back({f->meta.ec_index, f->payload});
      const storage::ErasureCodec codec(k, fm.ec_n, orig_key);
      auto decoded = codec.decode(shards, fm.ec_orig_bytes);
      if (!decoded) {
        ++st.groups_partial;
        continue;
      }
      rec.payload = std::move(*decoded);
    }
    ++st.groups_reconstructed;
    out.push_back(std::move(rec));
  }
  return out;
}

std::vector<std::pair<sim::Time, sim::Time>> find_gap_windows(
    const storage::FileIndex& index) {
  std::vector<std::pair<sim::Time, sim::Time>> out;
  for (const auto& event : index.events()) {
    const auto s = index.summarize(event);
    for (const auto& g : s.gaps) out.emplace_back(g.start, g.end);
  }
  return out;
}

// --- The service ------------------------------------------------------------

RetrievalService::RetrievalService(Node& node) : node_(node) {}

std::uint32_t RetrievalService::start_query(sim::Time from, sim::Time to,
                                            std::uint8_t hops,
                                            ReplyHandler on_reply) {
  const std::uint32_t qid = next_query_id_++;
  legacy_[qid] = std::move(on_reply);
  legacy_order_.push_back(qid);
  while (legacy_.size() > kRetrievalMaxQueries) {
    legacy_.erase(legacy_order_.front());
    legacy_order_.pop_front();
  }

  net::QueryRequest q;
  q.sink = node_.id();
  apply_selector(q, ResourceSelector::time_range(from, to));
  q.hops_left = hops;
  q.query_id = qid;
  remember_query(q.sink, qid, net::kInvalidNode);
  node_.nb().send_now(q);
  // The sink answers its own query locally too (the mule standing at a node
  // reads that node's chunks directly).
  serve(q);
  return qid;
}

std::uint32_t RetrievalService::start_drain(const DrainOptions& opts) {
  const std::uint32_t id = next_drain_id_++;
  SinkDrain d;
  d.opts = opts;
  d.last_progress = node_.sched().now();
  d.gen = next_gen_++;
  const std::uint64_t gen = d.gen;
  drains_.emplace(id, std::move(d));
  flood_round(id);
  node_.sched().after(kDrainRequery, [this, id, gen] { drain_tick(id, gen); });
  return id;
}

void RetrievalService::stop_drain(std::uint32_t drain_id) {
  auto it = drains_.find(drain_id);
  if (it == drains_.end()) return;
  for (std::uint32_t qid : it->second.qids) qid_drain_.erase(qid);
  drains_.erase(it);
}

void RetrievalService::flood_round(std::uint32_t drain_id) {
  auto it = drains_.find(drain_id);
  if (it == drains_.end()) return;
  SinkDrain& d = it->second;
  // Every round floods under a fresh query id: the seen-set de-duplicates
  // repeats of one id, so re-advertising (mule-style keepalive) needs a new
  // one — and each new flood re-installs tree parents, routing around nodes
  // that died since the last round.
  const std::uint32_t qid = next_query_id_++;
  d.qids.push_back(qid);
  qid_drain_[qid] = drain_id;

  net::QueryRequest q;
  q.sink = node_.id();
  apply_selector(q, d.opts.selector);
  q.hops_left = d.opts.hops;
  q.query_id = qid;
  q.harvest = true;
  q.pipelined = d.opts.pipelined;
  remember_query(q.sink, qid, net::kInvalidNode);
  node_.nb().send_now(q);
  collect_local(d);
}

void RetrievalService::collect_local(SinkDrain& d) {
  // The sink is its own collection point: matching chunks in the local
  // store are "drained" in place, each read in the one walk that finds it.
  auto fresh = node_.store().copy_if([&](const storage::ChunkMeta& m) {
    return d.opts.selector.matches(m) && !collected_keys_.count(m.key);
  });
  const std::uint32_t qid = d.qids.empty() ? 0 : d.qids.back();
  for (auto& c : fresh) {
    deliver(node_.id(), c.meta, std::move(c.payload), qid);
    note_uploaded(c.meta.key, node_.id());
  }
  pop_uploaded_heads();
}

void RetrievalService::drain_tick(std::uint32_t drain_id, std::uint64_t gen) {
  auto it = drains_.find(drain_id);
  if (it == drains_.end() || it->second.gen != gen) return;
  if (node_.sched().now() - it->second.last_progress > kDrainTimeout) {
    stop_drain(drain_id);
    return;
  }
  flood_round(drain_id);
  node_.sched().after(kDrainRequery,
                      [this, drain_id, gen] { drain_tick(drain_id, gen); });
}

void RetrievalService::handle(const net::QueryRequest& m, net::NodeId from) {
  if (!remember_query(m.sink, m.query_id, from)) return;
  serve(m);
  if (m.hops_left > 1) {
    net::QueryRequest fwd = m;
    fwd.hops_left = static_cast<std::uint8_t>(m.hops_left - 1);
    // Random stagger to de-synchronize the flood.
    node_.sched().after(sim::Time::millis(node_.rng().uniform_int(5, 60)),
                        [this, fwd] {
                          if (node_.nb().send_now(fwd))
                            ++stats_.queries_forwarded;
                        });
  }
}

bool RetrievalService::remember_query(net::NodeId sink, std::uint32_t query,
                                      net::NodeId parent) {
  const sim::Time now = node_.sched().now();
  const auto key = std::make_pair(sink, query);
  auto [it, fresh] = query_state_.try_emplace(key, QueryState{parent, now});
  if (!fresh) return false;
  query_order_.push_back(key);

  // Age out expired soft state (queries are transient).
  while (!query_order_.empty()) {
    const auto& front = query_order_.front();
    auto qit = query_state_.find(front);
    if (qit == query_state_.end()) {
      query_order_.pop_front();
      continue;
    }
    if (now - qit->second.heard <= kRetrievalQueryTtl) break;
    query_state_.erase(qit);
    query_order_.pop_front();
  }
  // Storm backstop: hard cap, oldest first — but never a query this node is
  // actively sinking or serving (evicting a live query's tree parent would
  // black-hole everything routed through us).
  const std::size_t cap = 4 * kRetrievalMaxQueries;
  std::size_t scan = query_order_.size();
  while (query_state_.size() > cap && scan-- > 0) {
    const auto k = query_order_.front();
    query_order_.pop_front();
    if (query_state_.count(k) == 0) continue;
    if (query_protected(k)) {
      query_order_.push_back(k);
      continue;
    }
    query_state_.erase(k);
  }
  return true;
}

bool RetrievalService::query_protected(
    const std::pair<net::NodeId, std::uint32_t>& k) const {
  if (k.first == node_.id()) return true;  // our own query's seen marker
  const auto sit = serving_.find(k.first);
  return sit != serving_.end() && sit->second.query_id == k.second;
}

void RetrievalService::serve(const net::QueryRequest& q) {
  if (q.harvest) {
    if (q.sink == node_.id()) return;  // our own flood echoed back
    // Create or refresh the per-sink serve session. Refreshes (the sink's
    // periodic re-flood) adopt the new query id — replies and pushes route
    // along the freshest tree — without restarting the pump.
    const sim::Time now = node_.sched().now();
    auto [it, fresh] = serving_.try_emplace(q.sink);
    ServeSession& s = it->second;
    s.query_id = q.query_id;
    s.sel = selector_of(q);
    s.pipelined = q.pipelined;
    s.last_heard = now;
    if (fresh) {
      s.gen = next_gen_++;
      ++stats_.queries_served;
      sim::trace_begin(node_.sched().trace(), now,
                       sim::TraceEvent::kDrainSession, node_.id(), q.sink,
                       q.query_id);
      const net::NodeId sink = q.sink;
      const std::uint64_t gen = s.gen;
      node_.sched().after(node_.proc_delay(),
                          [this, sink, gen] { drain_step(sink, gen); });
    }
    return;
  }
  serve_descriptors(q);
}

void RetrievalService::serve_descriptors(const net::QueryRequest& q) {
  const bool local = q.sink == node_.id();
  if (!local) ++stats_.queries_served;
  const ResourceSelector sel = selector_of(q);
  // Collect matching chunks, then stream replies with spacing so a node
  // with many chunks does not monopolize the channel.
  std::vector<net::QueryReply> replies;
  node_.store().for_each([&](const storage::ChunkMeta& meta) {
    if (!sel.matches(meta)) return;
    replies.push_back(reply_for(node_.id(), q.sink, q.query_id, meta));
  });
  // Replies route toward the sink via the tree parent (which *is* the sink
  // for single-hop queries).
  const net::NodeId next_hop = route_to(q.sink, q.query_id);
  sim::Time when = node_.proc_delay();
  for (const auto& r : replies) {
    if (local) {
      const auto hit = legacy_.find(r.query_id);
      if (hit != legacy_.end() && hit->second) hit->second(r);
      continue;
    }
    node_.sched().after(
        when, [this, r, next_hop] { node_.nb().send_to(next_hop, r); });
    when += kReplySpacing;
  }
}

void RetrievalService::drain_step(net::NodeId sink, std::uint64_t gen) {
  auto it = serving_.find(sink);
  if (it == serving_.end() || it->second.gen != gen) return;
  ServeSession& s = it->second;
  const sim::Time now = node_.sched().now();
  // Stop uploading once the sink stops querying (the mule walked out of
  // range); popping chunks into dead air would destroy data.
  if (now - s.last_heard > kDrainTimeout) {
    finish_serve(sink);
    return;
  }
  const auto retry = [this, sink, gen] {
    node_.sched().after(kDrainRetry,
                        [this, sink, gen] { drain_step(sink, gen); });
  };
  if (node_.is_recording() || !node_.radio().is_on()) {
    retry();
    return;
  }
  // Pick the oldest stored chunk this sink still needs. A chunk already
  // drained into a *different* sink is descriptor-acked instead (overlap
  // resolution): the sink learns where the data went without a re-upload.
  std::optional<storage::ChunkMeta> pick;
  std::optional<storage::ChunkMeta> overlap;
  net::NodeId overlap_sink = net::kInvalidNode;
  node_.store().for_each_until([&](const storage::ChunkMeta& m) {
    if (!s.sel.matches(m)) return true;
    const auto uit = uploaded_.find(m.key);
    if (uit != uploaded_.end()) {
      if (uit->second != sink && !s.acked.count(m.key) && !overlap) {
        overlap = m;
        overlap_sink = uit->second;
      }
      return true;
    }
    pick = m;
    return false;
  });
  if (overlap) {
    net::QueryReply r = reply_for(node_.id(), sink, s.query_id, *overlap);
    r.collected_by = overlap_sink;
    if (node_.nb().send_to(route_to(sink, s.query_id), r)) {
      ++stats_.descriptor_acks;
      s.acked.insert(overlap->key);
      sim::trace_instant(node_.sched().trace(), now, sim::TraceEvent::kDrainAck,
                         node_.id(), sink, overlap->key);
    }
    node_.sched().after(kReplySpacing,
                        [this, sink, gen] { drain_step(sink, gen); });
    return;
  }
  if (!pick) {
    finish_serve(sink);  // nothing left this sink needs
    return;
  }
  if (!s.pipelined) {
    // Single-hop mule scheme: the chunk "uploads" as a direct reply, and
    // the audio occupies the air for bytes*8/bitrate, modelled as spacing
    // before the next chunk departs. The chunk leaves the store only after
    // the send went out — a failed send must not destroy data.
    net::QueryReply r = reply_for(node_.id(), sink, s.query_id, *pick);
    if (!node_.nb().send_to(route_to(sink, s.query_id), r)) {
      retry();
      return;
    }
    ++stats_.chunks_uploaded;
    ++s.uploaded;
    note_uploaded(pick->key, sink);
    pop_uploaded_heads();
    const auto upload_time =
        sim::Time::seconds(static_cast<double>(pick->bytes) * 8.0 /
                           net::kBitrateBps) +
        kReplySpacing;
    node_.sched().after(upload_time,
                        [this, sink, gen] { drain_step(sink, gen); });
    return;
  }
  // Pipelined drain: stream the chunk over the windowed bulk-transfer
  // pipeline toward the tree parent. The store is only popped once the peer
  // acked every fragment; an aborted push keeps the chunk for a retry.
  if (node_.bulk().sending()) {
    retry();
    return;
  }
  storage::Chunk c;
  c.meta = *pick;
  c.payload = node_.store().read_payload(pick->key);
  const std::uint64_t key = pick->key;
  node_.bulk().start_push(
      route_to(sink, s.query_id), std::move(c),
      [this, sink, gen, key](bool ok) {
        if (ok) {
          // Delivered upstream even if our session has since ended: record
          // it so the chunk is never re-uploaded, and free the store.
          ++stats_.chunks_uploaded;
          note_uploaded(key, sink);
          pop_uploaded_heads();
        }
        auto sit = serving_.find(sink);
        if (sit == serving_.end() || sit->second.gen != gen) return;
        if (ok) ++sit->second.uploaded;
        node_.sched().after(ok ? kReplySpacing : kDrainRetry,
                            [this, sink, gen] { drain_step(sink, gen); });
      },
      sink, s.query_id);
}

void RetrievalService::finish_serve(net::NodeId sink) {
  auto it = serving_.find(sink);
  if (it == serving_.end()) return;
  sim::trace_end(node_.sched().trace(), node_.sched().now(),
                 sim::TraceEvent::kDrainSession, node_.id(), sink,
                 it->second.uploaded);
  serving_.erase(it);
}

net::NodeId RetrievalService::route_to(net::NodeId sink,
                                       std::uint32_t query) const {
  const auto it = query_state_.find({sink, query});
  if (it != query_state_.end() && it->second.parent != net::kInvalidNode)
    return it->second.parent;
  // Fall back to the freshest flood round known for this sink: re-floods
  // carry higher query ids and re-install parents around dead nodes.
  auto ub = query_state_.lower_bound({sink, 0xFFFFFFFFu});
  if (ub != query_state_.begin()) {
    const auto prev = std::prev(ub);
    if (prev->first.first == sink &&
        prev->second.parent != net::kInvalidNode)
      return prev->second.parent;
  }
  return sink;
}

void RetrievalService::note_uploaded(std::uint64_t key, net::NodeId sink) {
  uploaded_[key] = sink;
  // Bound the map by the store: entries for chunks no longer held here
  // (popped after upload, or migrated away) are dead weight.
  if (uploaded_.size() <= node_.store().chunk_count() + 64) return;
  std::set<std::uint64_t> held;
  node_.store().for_each([&](const storage::ChunkMeta& m) { held.insert(m.key); });
  for (auto it = uploaded_.begin(); it != uploaded_.end();) {
    if (held.count(it->first))
      ++it;
    else
      it = uploaded_.erase(it);
  }
}

void RetrievalService::pop_uploaded_heads() {
  while (const auto* h = node_.store().head_meta()) {
    if (!uploaded_.count(h->key)) break;
    node_.store().pop_head();
  }
}

bool RetrievalService::on_drain_chunk(net::NodeId sink, std::uint32_t query,
                                      net::NodeId from,
                                      storage::Chunk& chunk) {
  if (sink == node_.id()) {
    deliver(from, chunk.meta, std::move(chunk.payload), query);
    return true;
  }
  // Relay hop: queue the chunk for an upstream push of our own. A full
  // queue pushes back on the sender (the chunk lands in our store instead,
  // and a later flood round re-serves it from here).
  if (relay_.size() >= kDrainRelayQueueMax) {
    ++stats_.relay_fallbacks;
    return false;
  }
  relay_.push_back(RelayChunk{sink, query, std::move(chunk), 0});
  if (!relay_armed_) {
    relay_armed_ = true;
    const std::uint64_t gen = relay_gen_;
    node_.sched().after(kReplySpacing, [this, gen] {
      if (gen == relay_gen_) pump_relay();
    });
  }
  return true;
}

void RetrievalService::pump_relay() {
  if (relay_.empty()) {
    relay_armed_ = false;
    return;
  }
  const std::uint64_t gen = relay_gen_;
  const auto again = [this, gen](sim::Time delay) {
    node_.sched().after(delay, [this, gen] {
      if (gen == relay_gen_) pump_relay();
    });
  };
  if (node_.is_recording() || !node_.radio().is_on() ||
      node_.bulk().sending()) {
    again(kDrainRetry);
    return;
  }
  RelayChunk& rc = relay_.front();
  storage::Chunk copy = rc.chunk;  // ours survives until the push is acked
  node_.bulk().start_push(
      route_to(rc.sink, rc.query), std::move(copy),
      [this, gen, again](bool ok) {
        if (gen != relay_gen_ || relay_.empty()) return;
        RelayChunk& front = relay_.front();
        if (ok) {
          ++stats_.chunks_relayed;
          relay_.pop_front();
        } else if (++front.failures >= kDrainRelayMaxFailures) {
          // The route upstream is dead; absorb the chunk into our own store
          // so the data survives — a later re-flood re-serves it from here.
          storage::Chunk keep = front.chunk;
          if (node_.store().append(std::move(keep))) {
            ++stats_.relay_fallbacks;
            relay_.pop_front();
          } else {
            front.failures = 0;  // store full too: keep trying the radio
          }
        }
        again(ok ? kReplySpacing : kDrainRetry);
      },
      rc.sink, rc.query);
}

void RetrievalService::deliver(net::NodeId from,
                               const storage::ChunkMeta& meta,
                               std::vector<std::uint8_t> payload,
                               std::uint32_t query) {
  if (!collected_keys_.insert(meta.key).second) return;  // duplicate arrival
  sim::trace_instant(node_.sched().trace(), node_.sched().now(),
                     sim::TraceEvent::kDrainChunk, node_.id(), from, meta.key);
  collected_.push_back(CollectedChunk{meta, std::move(payload)});
  last_collected_at_ = node_.sched().now();
  const auto dit = qid_drain_.find(query);
  if (dit == qid_drain_.end()) return;
  const auto drit = drains_.find(dit->second);
  if (drit == drains_.end()) return;
  drit->second.last_progress = node_.sched().now();
}

void RetrievalService::handle(const net::QueryReply& m, net::NodeId dst) {
  if (m.sink == node_.id()) {
    const auto dit = qid_drain_.find(m.query_id);
    if (dit != qid_drain_.end()) {
      if (m.collected_by != net::kInvalidNode) {
        // Overlap descriptor-ack: the chunk already streamed into another
        // sink's drain. Not progress — only fresh chunks keep a drain alive
        // (otherwise two sinks acking each other would never terminate).
        return;
      }
      // Direct-mode (mule) upload: the reply is the chunk descriptor; the
      // payload's airtime is modelled at the uploader.
      deliver(m.sender, m.meta, {}, m.query_id);
      return;
    }
    const auto hit = legacy_.find(m.query_id);
    if (hit != legacy_.end() && hit->second) hit->second(m);
    return;
  }
  // Tree relay: only the addressed next hop forwards (the broadcast medium
  // makes everyone overhear the unicast).
  if (dst != node_.id()) return;
  const auto pit = query_state_.find({m.sink, m.query_id});
  if (pit == query_state_.end() ||
      pit->second.parent == net::kInvalidNode)
    return;  // not on this query's tree
  const net::NodeId next_hop = pit->second.parent;
  node_.sched().after(kReplySpacing, [this, m, next_hop] {
    if (node_.nb().send_to(next_hop, m)) ++stats_.replies_relayed;
  });
}

void RetrievalService::reset() {
  const sim::Time now = node_.sched().now();
  for (const auto& [sink, s] : serving_)
    sim::trace_end(node_.sched().trace(), now, sim::TraceEvent::kDrainSession,
                   node_.id(), sink, s.uploaded);
  serving_.clear();
  query_state_.clear();
  query_order_.clear();
  uploaded_.clear();
  relay_.clear();
  relay_armed_ = false;
  ++relay_gen_;
  drains_.clear();
  qid_drain_.clear();
  legacy_.clear();
  legacy_order_.clear();
  collected_.clear();
  collected_keys_.clear();
  last_collected_at_ = sim::Time::zero();
}

}  // namespace enviromic::core
