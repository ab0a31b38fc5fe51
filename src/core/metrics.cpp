#include "core/metrics.h"

#include <algorithm>
#include <set>

#include "core/node.h"

namespace enviromic::core {

void Metrics::note_recorded(std::uint64_t chunk_key, net::NodeId node,
                            const sim::Position& pos, sim::Time start,
                            sim::Time end, std::uint64_t bytes, bool appended,
                            bool is_prelude) {
  AttributionEntry entry;
  entry.per_source = gt_->attribute(pos, start, end);
  attribution_[chunk_key] = std::move(entry);
  log_.push_back(RecordAct{node, start, end, bytes, appended, is_prelude});
  if (appended) recorded_bytes_by_node_[node] += bytes;
}

void Metrics::note_prelude_erased(std::uint64_t chunk_key) {
  // The chunk vanished from its store; snapshots iterate stores, so no
  // bookkeeping is strictly required. Drop the attribution to keep the map
  // small.
  attribution_.erase(chunk_key);
}

Metrics::Snapshot Metrics::compute(
    sim::Time now, const std::vector<std::unique_ptr<Node>>& nodes,
    const std::vector<storage::ChunkMeta>& collected) const {
  Snapshot s;
  s.t = now;
  s.faults = faults_;

  // Gather stored-chunk attributions per source.
  std::map<acoustic::SourceId, util::IntervalSet> covered;
  sim::Time stored_total = sim::Time::zero();
  const auto account_key = [&](std::uint64_t key) {
    const auto it = attribution_.find(key);
    if (it == attribution_.end()) return;
    for (const auto& attr : it->second.per_source) {
      auto& cov = covered[attr.source];
      for (const auto& iv : attr.intervals) {
        cov.add(iv.start, iv.end);
        stored_total += iv.end - iv.start;
      }
    }
  };
  // Erasure fragments cover audio only collectively: a group with at least
  // k distinct surviving indices is as good as its original (the drain
  // reconstructs it), so it accounts the original's attribution exactly
  // once; a short group covers nothing yet. Surplus fragments beyond k are
  // byte-level redundancy and show up in storage counters, not here.
  std::map<std::uint64_t, std::set<std::uint8_t>> frag_groups;
  std::map<std::uint64_t, unsigned> frag_k;
  const auto account_chunk = [&](const storage::ChunkMeta& meta) {
    if (meta.is_fragment()) {
      frag_groups[meta.ec_group].insert(meta.ec_index);
      frag_k[meta.ec_group] = meta.ec_k;
      return;
    }
    account_key(meta.key);
  };
  for (const auto& meta : collected) account_chunk(meta);
  // TRANSFER_* family indices in the Message variant.
  const std::size_t transfer_first =
      net::type_index(net::Message{net::TransferOffer{}});
  const std::size_t transfer_last =
      net::type_index(net::Message{net::TransferAck{}});
  for (const auto& n : nodes) {
    // A lost mote's chunks are unretrievable, but the messages it sent
    // before dying were real overhead.
    const bool store_counts = !n->data_lost();
    s.per_node_ids.push_back(n->id());
    s.per_node_used_bytes.push_back(store_counts ? n->store().used_bytes()
                                                 : 0);
    const net::RadioStats& radio = n->radio().stats();
    s.per_node_packets_sent.push_back(radio.packets_sent);
    auto it_rec = recorded_bytes_by_node_.find(n->id());
    s.per_node_recorded_bytes.push_back(
        it_rec == recorded_bytes_by_node_.end() ? 0 : it_rec->second);
    s.per_node_wear_max.push_back(n->flash().max_wear());
    s.per_node_wear_min.push_back(n->flash().min_wear());
    const double battery = n->energy().battery().remaining_joules();
    s.per_node_battery_j.push_back(battery);
    s.battery_total_j += battery;

    if (store_counts) n->store().for_each(account_chunk);

    const TransferStats& transfer = n->bulk().stats();
    s.transfer_aborts += transfer.aborts;
    s.transfer_duplicate_risks += transfer.duplicate_risks;
    s.transfer_rx_expired += transfer.rx_expired;
    s.transfer_fragments_retried += transfer.fragments_retried;
    s.transfer_window_stalls += transfer.window_stalls;
    s.transfer_max_in_flight =
        std::max(s.transfer_max_in_flight, transfer.max_in_flight);

    const RetrievalStats& retrieval = n->retrieval().stats();
    s.retrieval_queries_served += retrieval.queries_served;
    s.retrieval_chunks_uploaded += retrieval.chunks_uploaded;
    s.retrieval_chunks_relayed += retrieval.chunks_relayed;
    s.retrieval_relay_fallbacks += retrieval.relay_fallbacks;
    s.retrieval_descriptor_acks += retrieval.descriptor_acks;

    const auto& ms = radio.messages_sent;
    for (std::size_t i = 0; i < net::kMessageTypeCount; ++i) {
      s.total_messages += ms[i];
    }
    for (std::size_t i = transfer_first; i <= transfer_last; ++i) {
      s.transfer_messages += ms[i];
    }
  }
  if (!nodes.empty()) {
    s.wear_min = *std::min_element(s.per_node_wear_min.begin(),
                                   s.per_node_wear_min.end());
    s.wear_max = *std::max_element(s.per_node_wear_max.begin(),
                                   s.per_node_wear_max.end());
    s.battery_min_j = *std::min_element(s.per_node_battery_j.begin(),
                                        s.per_node_battery_j.end());
  }
  s.wear_spread = s.wear_max - s.wear_min;
  s.control_messages = s.total_messages - s.transfer_messages;

  for (const auto& [group, idx] : frag_groups) {
    if (idx.size() >= frag_k[group]) account_key(group);
  }

  sim::Time unique_total = sim::Time::zero();
  for (const auto& [src, cov] : covered) unique_total += cov.measure();

  s.hearable = gt_->total_hearable_elapsed(now);
  s.covered_unique = unique_total;
  s.stored_total = stored_total;
  const double hear = s.hearable.to_seconds();
  const double uniq = unique_total.to_seconds();
  const double stored = stored_total.to_seconds();
  s.miss_ratio = hear > 0.0 ? std::max(0.0, 1.0 - uniq / hear) : 0.0;
  s.redundancy_ratio = stored > 0.0 ? (stored - uniq) / stored : 0.0;
  return s;
}

}  // namespace enviromic::core
