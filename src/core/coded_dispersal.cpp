#include "core/coded_dispersal.h"

#include <algorithm>

#include "core/node.h"
#include "sim/trace.h"
#include "storage/erasure.h"

namespace enviromic::core {

namespace {
/// Abandon a dispersal (keeping the original chunk) after this many
/// aborted fragment pushes; each failed attempt retries the fragment on
/// the next candidate neighbour.
constexpr int kCodedMaxFailures = 6;
}  // namespace

CodedDispersal::CodedDispersal(Node& node) : node_(node) {}

bool CodedDispersal::start(std::vector<net::NodeId> targets) {
  if (node_.cfg().storage_policy != StoragePolicy::kCoded) return false;
  if (session_ || node_.bulk().sending()) return false;
  if (targets.empty()) return false;
  const storage::ChunkMeta* head = node_.store().head_meta();
  // Never re-encode a fragment (coding a share of a share only multiplies
  // overhead without adding survivable diversity); the balancer migrates it
  // whole instead. Zero-byte chunks migrate whole too.
  if (!head || head->is_fragment() || head->bytes == 0) return false;

  const unsigned k = static_cast<unsigned>(std::clamp(node_.cfg().coded_k, 1, 255));
  const unsigned n = static_cast<unsigned>(
      std::clamp(node_.cfg().coded_n, static_cast<int>(k), 255));

  Session s;
  s.orig_key = head->key;
  s.orig_bytes = head->bytes;
  s.k = k;
  s.targets = std::move(targets);

  // Fragment generation is a pure function of the chunk (key-seeded codec),
  // so a retried dispersal of the same chunk regenerates identical bytes —
  // a re-pushed fragment key never aliases two different contents.
  const storage::ErasureCodec codec(k, n, head->key);
  const std::vector<std::uint8_t> payload = node_.store().read_payload(head->key);
  std::vector<std::vector<std::uint8_t>> shards;
  if (!payload.empty()) shards = codec.encode(payload);
  const std::uint32_t shard_bytes = static_cast<std::uint32_t>(
      codec.shard_len(head->bytes));
  s.fragments.reserve(n);
  for (unsigned i = 0; i < n; ++i) {
    storage::Chunk frag;
    frag.meta = *head;
    frag.meta.key = node_.store().next_key(node_.id());
    frag.meta.bytes = shard_bytes;
    frag.meta.ec_group = head->key;
    frag.meta.ec_index = static_cast<std::uint8_t>(i);
    frag.meta.ec_k = static_cast<std::uint8_t>(k);
    frag.meta.ec_n = static_cast<std::uint8_t>(n);
    frag.meta.ec_orig_bytes = head->bytes;
    if (!shards.empty()) frag.payload = std::move(shards[i]);
    s.fragments.push_back(std::move(frag));
  }

  ++stats_.chunks_coded;
  stats_.original_bytes += head->bytes;
  const sim::Time now = node_.sched().now();
  sim::trace_instant(node_.sched().trace(), now, sim::TraceEvent::kCodedEncode,
                     node_.id(), s.orig_key, sim::trace_pack(k, n),
                     static_cast<double>(head->bytes));
  sim::trace_begin(node_.sched().trace(), now, sim::TraceEvent::kCodedDisperse,
                   node_.id(), s.orig_key, n);
  session_ = std::move(s);
  send_next();
  return true;
}

void CodedDispersal::send_next() {
  Session& s = *session_;
  if (s.next_fragment >= s.fragments.size() ||
      s.failures > kCodedMaxFailures ||
      !original_still_stored()) {
    finish();
    return;
  }
  if (s.target_cursor >= s.targets.size()) ++stats_.placement_wraps;
  const net::NodeId to = s.targets[s.target_cursor % s.targets.size()];
  node_.bulk().start_push(to, s.fragments[s.next_fragment],
                          [this](bool ok) { on_push_done(ok); });
}

void CodedDispersal::on_push_done(bool ok) {
  if (!session_) return;
  Session& s = *session_;
  if (ok) {
    ++s.placed;
    ++stats_.fragments_placed;
    stats_.fragment_bytes += s.fragments[s.next_fragment].meta.bytes;
    ++s.next_fragment;
  } else {
    // Peer died (or could not absorb) mid-dispersal: retry the same
    // fragment on the next candidate. The bulk layer already dropped an
    // unreachable peer's soft state.
    ++s.failures;
    ++stats_.fragments_failed;
  }
  ++s.target_cursor;
  send_next();
}

void CodedDispersal::finish() {
  Session& s = *session_;
  const bool enough = s.placed >= s.k;
  if (enough) {
    // Release the original only while it is still ours to release — a data
    // mule may have harvested it mid-dispersal.
    const storage::ChunkMeta* head = node_.store().head_meta();
    if (head && head->key == s.orig_key) {
      node_.store().pop_head();
      ++stats_.originals_released;
    }
  } else {
    // Fewer than k fragments made it out: the original stays; the placed
    // fragments are surplus redundancy (coded analogue of the migrate
    // path's incidental replication).
    ++stats_.originals_kept;
  }
  sim::trace_end(node_.sched().trace(), node_.sched().now(),
                 sim::TraceEvent::kCodedDisperse, node_.id(), s.orig_key,
                 s.placed, enough ? 0.0 : 1.0);
  session_.reset();
}

bool CodedDispersal::original_still_stored() const {
  bool found = false;
  node_.store().for_each_until([&](const storage::ChunkMeta& m) {
    if (m.key == session_->orig_key) {
      found = true;
      return false;
    }
    return true;
  });
  return found;
}

void CodedDispersal::reset() {
  if (!session_) return;
  sim::trace_end(node_.sched().trace(), node_.sched().now(),
                 sim::TraceEvent::kCodedDisperse, node_.id(),
                 session_->orig_key, session_->placed, 1.0);
  session_.reset();
}

}  // namespace enviromic::core
