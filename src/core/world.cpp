#include "core/world.h"

#include <cassert>
#include <set>

#include "sim/profiler.h"
#include "sim/trace.h"

namespace enviromic::core {

World::World(WorldConfig cfg)
    : cfg_(cfg),
      rng_(cfg.seed),
      channel_(sched_, rng_.fork("channel"), cfg.channel),
      field_(cfg.background_level),
      gt_(field_),
      metrics_(gt_) {}

Node& World::add_node(sim::Position pos) {
  return add_node(pos, cfg_.node_defaults);
}

Node& World::add_node(sim::Position pos, const NodeParams& params) {
  assert(!started_ && "add nodes before start()");
  const net::NodeId id = next_node_++;
  const bool is_root = nodes_.empty();
  nodes_.push_back(std::make_unique<Node>(id, pos, params, sched_, channel_,
                                          field_, rng_.fork(id), is_root,
                                          metrics_));
  return *nodes_.back();
}

acoustic::SourceId World::add_source(
    std::shared_ptr<const acoustic::Trajectory> traj,
    std::shared_ptr<const acoustic::Waveform> wave, sim::Time start,
    sim::Time end, double loudness, double audible_range) {
  const acoustic::SourceId id = next_source_++;
  field_.add_source(acoustic::Source(id, std::move(traj), std::move(wave),
                                     start, end, loudness, audible_range));
  return id;
}

void World::start() {
  if (started_) return;
  started_ = true;
  std::vector<sim::Position> positions;
  positions.reserve(nodes_.size());
  for (const auto& n : nodes_) positions.push_back(n->position());
  gt_.set_node_positions(std::move(positions));
  // Each node's start() performs its detector's first poll inline; the one
  // pump polls them all from then on.
  for (auto& n : nodes_) n->start();
  if (!nodes_.empty()) {
    sched_.after(acoustic::kPollInterval, [this] { pump_tick(); });
  }
}

void World::pump_tick() {
  sim::ProfileScope ps(sched_.profiler(), sim::ProfTag::kDetectorPump);
  sched_.after(acoustic::kPollInterval, [this] { pump_tick(); });
  for (auto& n : nodes_) n->detector().poll_once();
}

void World::run_until(sim::Time t) {
  assert(started_ && "call start() first");
  sched_.run_until(t);
}

void World::fail_node_at(net::NodeId id, sim::Time at, bool lose_data) {
  sched_.at(at, [this, id, lose_data] {
    if (Node* n = by_id(id)) n->fail(lose_data);
  });
}

void World::crash_node_at(net::NodeId id, sim::Time at, sim::Time downtime) {
  sched_.at(at, [this, id, downtime] {
    Node* n = by_id(id);
    if (!n || !n->crash()) return;
    if (downtime > sim::Time::zero()) {
      sched_.after(downtime, [this, id] {
        if (Node* m = by_id(id)) m->reboot();
      });
    }
  });
}

void World::apply_faults(const FaultPlan& plan) {
  for (const auto& f : plan.events) {
    switch (f.kind) {
      case FaultSpec::Kind::kCrash:
        if (f.permanent) {
          fail_node_at(f.node, f.at, f.lose_data);
        } else {
          crash_node_at(f.node, f.at, f.downtime);
        }
        break;
      case FaultSpec::Kind::kBrownout:
        sched_.at(f.at, [this, f] {
          if (Node* n = by_id(f.node)) n->brownout(f.downtime);
        });
        break;
      case FaultSpec::Kind::kClockStep:
        sched_.at(f.at, [this, f] {
          if (Node* n = by_id(f.node)) n->clock_step(f.clock_step_s);
        });
        break;
    }
  }
}

Node* World::by_id(net::NodeId id) {
  // add_node hands out ids 1, 2, 3, ... in order and never removes a node.
  if (id == 0 || id > nodes_.size()) return nullptr;
  return nodes_[id - 1].get();
}

Metrics::Snapshot World::snapshot() { return snapshot_with({}); }

Metrics::Snapshot World::snapshot_with(
    const std::vector<storage::ChunkMeta>& collected) {
  return metrics_.compute(sched_.now(), nodes_, collected);
}

World::DecodedDrain World::drain_decoded() const {
  DecodedDrain out;
  std::vector<CollectedChunk> collected;
  std::set<std::uint64_t> seen_keys;
  for (const auto& n : nodes_) {
    if (n->data_lost()) continue;
    n->store().for_each_with_payload(
        [&](const storage::ChunkMeta& meta, std::vector<std::uint8_t> payload) {
          // Duplicate physical copies of the same chunk (replicated
          // recording, interrupted migration) collapse to one before
          // decoding.
          if (!seen_keys.insert(meta.key).second) return;
          CollectedChunk c;
          c.meta = meta;
          c.payload = std::move(payload);
          out.bytes_collected += meta.bytes;
          collected.push_back(std::move(c));
        });
  }
  out.chunks = decode_collected(collected, &out.stats);
  for (const auto& c : out.chunks) out.index.add(c.meta, c.meta.recorded_by);
  out.index.deduplicate();
  sim::trace_instant(sched_.trace(), sched_.now(),
                     sim::TraceEvent::kCodedDecode, 0,
                     out.stats.groups_reconstructed, out.stats.groups_partial,
                     static_cast<double>(out.stats.fragments_consumed),
                     out.stats.byte_exact ? 1.0 : 0.0);
  return out;
}

storage::FileIndex World::drain_all(bool deduplicate) const {
  storage::FileIndex index;
  for (const auto& n : nodes_) {
    if (n->data_lost()) continue;
    n->store().for_each(
        [&](const storage::ChunkMeta& meta) { index.add(meta, n->id()); });
  }
  if (deduplicate) index.deduplicate();
  return index;
}

}  // namespace enviromic::core
