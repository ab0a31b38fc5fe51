#include "core/metrics.h"

#include <algorithm>
#include <limits>
#include <set>

#include "energy/energy_model.h"
#include "storage/flash.h"

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
    sim::Time now, const std::vector<StoreView>& views,
    const std::vector<storage::ChunkMeta>* collected) const {
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
  if (collected) {
    for (const auto& meta : *collected) account_chunk(meta);
  }
  // TRANSFER_* family indices in the Message variant.
  const std::size_t transfer_first =
      net::type_index(net::Message{net::TransferOffer{}});
  const std::size_t transfer_last =
      net::type_index(net::Message{net::TransferAck{}});
  std::uint64_t wmin = std::numeric_limits<std::uint64_t>::max();
  std::uint64_t wmax = 0;
  bool any_flash = false;
  double bmin = std::numeric_limits<double>::infinity();
  bool any_energy = false;
  for (const auto& view : views) {
    s.per_node_ids.push_back(view.id);
    s.per_node_used_bytes.push_back(view.store ? view.store->used_bytes() : 0);
    if (view.radio) {
      s.per_node_packets_sent.push_back(view.radio->packets_sent);
    } else {
      s.per_node_packets_sent.push_back(0);
    }
    auto it_rec = recorded_bytes_by_node_.find(view.id);
    s.per_node_recorded_bytes.push_back(
        it_rec == recorded_bytes_by_node_.end() ? 0 : it_rec->second);
    const std::uint64_t wear_max = view.flash ? view.flash->max_wear() : 0;
    const std::uint64_t wear_min = view.flash ? view.flash->min_wear() : 0;
    const double battery =
        view.energy ? view.energy->battery().remaining_joules() : 0.0;
    s.per_node_wear_max.push_back(wear_max);
    s.per_node_wear_min.push_back(wear_min);
    s.per_node_battery_j.push_back(battery);
    if (view.flash) {
      any_flash = true;
      wmin = std::min(wmin, wear_min);
      wmax = std::max(wmax, wear_max);
    }
    if (view.energy) {
      any_energy = true;
      s.battery_total_j += battery;
      bmin = std::min(bmin, battery);
    }

    if (view.store) view.store->for_each(account_chunk);

    if (view.transfer) {
      s.transfer_aborts += view.transfer->aborts;
      s.transfer_duplicate_risks += view.transfer->duplicate_risks;
      s.transfer_rx_expired += view.transfer->rx_expired;
      s.transfer_fragments_retried += view.transfer->fragments_retried;
      s.transfer_window_stalls += view.transfer->window_stalls;
      s.transfer_max_in_flight =
          std::max(s.transfer_max_in_flight, view.transfer->max_in_flight);
    }

    if (view.retrieval) {
      s.retrieval_queries_served += view.retrieval->queries_served;
      s.retrieval_chunks_uploaded += view.retrieval->chunks_uploaded;
      s.retrieval_chunks_relayed += view.retrieval->chunks_relayed;
      s.retrieval_relay_fallbacks += view.retrieval->relay_fallbacks;
      s.retrieval_descriptor_acks += view.retrieval->descriptor_acks;
    }

    if (view.radio) {
      const auto& ms = view.radio->messages_sent;
      for (std::size_t i = 0; i < net::kMessageTypeCount; ++i) {
        s.total_messages += ms[i];
      }
      for (std::size_t i = transfer_first; i <= transfer_last; ++i) {
        s.transfer_messages += ms[i];
      }
    }
  }
  if (any_flash) {
    s.wear_min = wmin;
    s.wear_max = wmax;
    s.wear_spread = wmax - wmin;
  }
  if (any_energy) s.battery_min_j = bmin;
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
