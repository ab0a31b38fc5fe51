#include "net/channel.h"

#include <algorithm>
#include <cassert>

#include "sim/trace.h"

namespace enviromic::net {

namespace {
/// Relative half-width of the squared-distance boundary band. Verdicts with
/// |d - range| > range * kRangeBand are decided from d^2 alone (the band
/// exceeds any accumulated double rounding — relative error ~1e-15 at
/// simulation scales — by six orders of magnitude); distances inside the
/// band re-run the exact sqrt comparison, so every verdict is bit-identical
/// to the scalar sim::distance test.
constexpr double kRangeBand = 1e-9;
}  // namespace

Channel::Channel(sim::Scheduler& sched, sim::Rng rng, ChannelConfig cfg)
    : sched_(sched), rng_(rng), cfg_(cfg) {
  grid_on_ = cfg_.use_spatial_index && cfg_.comm_range > 0.0;
  cell_size_ = cfg_.comm_range;
  // Wide enough that one 3x3 probe covers both the interference horizon
  // (2r) and the carrier-sense range.
  active_cell_size_ = std::max(2.0 * cfg_.comm_range,
                               cfg_.comm_range * cfg_.carrier_sense_factor);
}

std::uint64_t Channel::cell_for(const sim::Position& p) const {
  return sim::cell_key(sim::cell_of(p, cell_size_));
}

std::uint64_t Channel::active_cell_for(const sim::Position& p) const {
  return sim::cell_key(sim::cell_of(p, active_cell_size_));
}

void Channel::grid_insert(Radio* r) {
  if (!grid_on_) return;
  r->cell_key_ = cell_for(r->position());
  CellBucket& b = cells_[r->cell_key_];
  r->cell_slot_ = static_cast<std::uint32_t>(b.radios.size());
  b.radios.push_back(r);
  b.xs.push_back(r->position().x);
  b.ys.push_back(r->position().y);
  b.seqs.push_back(r->reg_seq_);
}

void Channel::grid_erase(Radio* r) {
  if (!grid_on_) return;
  const auto it = cells_.find(r->cell_key_);
  if (it == cells_.end()) return;
  CellBucket& b = it->second;
  const std::size_t slot = r->cell_slot_;
  if (slot >= b.radios.size() || b.radios[slot] != r) return;
  const std::size_t last = b.radios.size() - 1;
  if (slot != last) {
    b.radios[slot] = b.radios[last];
    b.xs[slot] = b.xs[last];
    b.ys[slot] = b.ys[last];
    b.seqs[slot] = b.seqs[last];
    b.radios[slot]->cell_slot_ = static_cast<std::uint32_t>(slot);
  }
  b.radios.pop_back();
  b.xs.pop_back();
  b.ys.pop_back();
  b.seqs.pop_back();
  if (b.radios.empty()) cells_.erase(it);
}

std::unique_ptr<Radio> Channel::create_radio(NodeId id, sim::Position pos) {
  auto radio = std::make_unique<Radio>(*this, id, pos);
  radio->reg_seq_ = next_reg_seq_++;
  ++topology_;
  radios_.push_back(radio.get());
  grid_insert(radio.get());
  return radio;
}

std::vector<Radio*>::const_iterator Channel::registry_at(
    std::uint64_t seq) const {
  return std::lower_bound(
      radios_.begin(), radios_.end(), seq,
      [](const Radio* r, std::uint64_t s) { return r->reg_seq_ < s; });
}

Radio* Channel::live(const RadioRef& ref, std::uint64_t seen) const {
  if (seen == topology_) return ref.radio;
  const auto it = registry_at(ref.seq);
  return it != radios_.end() && (*it)->reg_seq_ == ref.seq ? *it : nullptr;
}

void Channel::unregister(Radio* r) {
  ++topology_;
  const auto it = registry_at(r->reg_seq_);
  if (it != radios_.end() && *it == r) radios_.erase(it);
  grid_erase(r);
}

void Channel::move_radio(Radio* r, const sim::Position& p) {
  r->pos_ = p;
  ++topology_;
  if (!grid_on_) return;
  if (cell_for(p) == r->cell_key_) {
    // Same cell: refresh the mirrored coordinates in place.
    CellBucket& b = cells_[r->cell_key_];
    b.xs[r->cell_slot_] = p.x;
    b.ys[r->cell_slot_] = p.y;
    return;
  }
  grid_erase(r);
  grid_insert(r);
}

void Channel::radios_in_range(const sim::Position& pos, double range,
                              std::vector<RadioRef>& out) const {
  out.clear();
  if (!grid_on_) {
    for (Radio* r : radios_) {
      if (sim::distance(r->position(), pos) <= range)
        out.push_back({r->reg_seq_, r});
    }
    return;
  }
  // Grid path: every per-candidate fact (coordinates, registration sequence)
  // is mirrored in the bucket SoA, so the gather and the registration-order
  // sort below never dereference a Radio. Candidates far from the boundary
  // are admitted or skipped on squared distance alone; the band runs the
  // exact test on the same coordinate values (the mirror is bit-exact by
  // invariant), so membership is identical to the linear scan above.
  const double lo = range * (1.0 - kRangeBand);
  const double hi = range * (1.0 + kRangeBand);
  const double lo2 = lo * lo;
  const double hi2 = hi * hi;
  const sim::CellCoord c = sim::cell_of(pos, cell_size_);
  const std::int32_t reach = sim::cell_reach(range, cell_size_);
  for (std::int32_t dy = -reach; dy <= reach; ++dy) {
    for (std::int32_t dx = -reach; dx <= reach; ++dx) {
      const auto it = cells_.find(sim::cell_key({c.x + dx, c.y + dy}));
      if (it == cells_.end()) continue;
      const CellBucket& b = it->second;
      const std::size_t n = b.radios.size();
      for (std::size_t i = 0; i < n; ++i) {
        const double ddx = b.xs[i] - pos.x;
        const double ddy = b.ys[i] - pos.y;
        const double d2 = ddx * ddx + ddy * ddy;
        if (d2 > hi2) continue;
        if (d2 >= lo2 &&
            !(sim::distance({b.xs[i], b.ys[i]}, pos) <= range)) {
          continue;
        }
        out.push_back({b.seqs[i], b.radios[i]});
      }
    }
  }
  // Registration order == the order a linear scan of `radios_` would visit,
  // so downstream RNG draws are bit-identical with the index off.
  std::sort(out.begin(), out.end(), [](const RadioRef& a, const RadioRef& b) {
    return a.seq < b.seq;
  });
}

sim::Time Channel::air_time(std::uint32_t bytes) const {
  const double seconds = static_cast<double>(bytes) * 8.0 / kBitrateBps;
  return sim::Time::seconds(seconds);
}

std::vector<NodeId> Channel::neighbors_of(NodeId of) const {
  std::vector<NodeId> out;
  const auto self =
      std::find_if(radios_.begin(), radios_.end(),
                   [of](const Radio* r) { return r->id() == of; });
  if (self == radios_.end()) return out;
  std::vector<RadioRef> in_range;
  radios_in_range((*self)->position(), cfg_.comm_range, in_range);
  for (const RadioRef& n : in_range) {
    if (n.radio != *self) out.push_back(n.radio->id());
  }
  return out;
}

double Channel::link_extra_loss(NodeId src, NodeId dst) const {
  if (cfg_.link_asymmetry_max <= 0.0) return 0.0;
  // SplitMix64 finalizer over the ordered endpoint pair: deterministic per
  // directed link, uncorrelated between the two directions of one pair.
  std::uint64_t x = (static_cast<std::uint64_t>(src) << 32) |
                    static_cast<std::uint64_t>(dst);
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  x ^= x >> 31;
  const double u = static_cast<double>(x >> 11) * 0x1.0p-53;
  return cfg_.link_asymmetry_max * u;
}

bool Channel::drop_random(NodeId src, NodeId dst) {
  // One RNG draw per delivery attempt. The three independent loss processes
  // (burst state loss, per-link asymmetric loss, base random loss) are
  // folded into a single combined probability; the draw's high 32 bits
  // decide the loss, its low 32 bits advance the Gilbert–Elliott chain (two
  // independent uniforms from one xoshiro output — this used to be up to
  // four separate draws, a measured cost at one call per (delivery,
  // receiver)). Attribution mirrors sequential sampling exactly: landing in
  // [0, p_burst) is a burst loss, [p_burst, p_total) a random loss — the
  // same conditional split drawing burst first then the rest produces, so
  // the loss statistics are distributionally unchanged. 32-bit uniform
  // resolution (2^-32) sits ~7 orders below any configured probability.
  //
  // A configuration with every loss process off consumes no RNG at all
  // (mirroring chance()'s p <= 0 early-out), so lossless runs keep their
  // draw sequence.
  if (!cfg_.burst.enabled && cfg_.link_asymmetry_max <= 0.0 &&
      cfg_.loss_probability <= 0.0) {
    return false;
  }
  const std::uint64_t u = rng_.next_u64();
  const double u_loss = static_cast<double>(u >> 32) * 0x1.0p-32;
  double p_burst = 0.0;
  double extra = 0.0;
  if (cfg_.burst.enabled || cfg_.link_asymmetry_max > 0.0) {
    auto& s = link_bad_.slot((static_cast<std::uint64_t>(src) << 32) |
                             static_cast<std::uint64_t>(dst));
    if (s.extra < 0.0f) s.extra = static_cast<float>(link_extra_loss(src, dst));
    extra = s.extra;
    if (cfg_.burst.enabled) {
      const bool bad = s.state == 2;
      p_burst = bad ? cfg_.burst.loss_bad : cfg_.burst.loss_good;
      // Chain advance is sampled from the independent low half, so loss
      // runs still match the dwell time in the bad state.
      const double trans =
          bad ? cfg_.burst.p_bad_to_good : cfg_.burst.p_good_to_bad;
      if (trans > 0.0 &&
          static_cast<double>(u & 0xffffffffull) * 0x1.0p-32 < trans) {
        s.state = bad ? 1 : 2;
      }
    }
  }
  const double p_rest =
      1.0 - (1.0 - extra) * (1.0 - cfg_.loss_probability);
  const double p_total = p_burst + (1.0 - p_burst) * p_rest;
  if (u_loss >= p_total) return false;
  if (u_loss < p_burst) {
    ++stats_.losses_burst;
  } else {
    ++stats_.losses_random;
  }
  return true;
}

bool Channel::medium_busy_near(Radio& from) {
  const double sense = cfg_.comm_range * cfg_.carrier_sense_factor;
  if (sense <= 0.0) return false;  // carrier sensing disabled
  const sim::Time now = sched_.now();
  const sim::Position& pos = from.position();
  // Squared-distance test, identically in every path below, so the busy
  // verdict never depends on which path answered.
  const double sense_sq = sense * sense;
  const auto busy_in = [&](const std::vector<ActiveTx>& list) {
    for (const auto& tx : list) {
      if (tx.end <= now) continue;
      const double ddx = tx.pos.x - pos.x;
      const double ddy = tx.pos.y - pos.y;
      if (ddx * ddx + ddy * ddy <= sense_sq) return true;
    }
    return false;
  };
  if (!grid_on_) return busy_in(active_);
  // The coarse cells are at least as wide as the carrier-sense range, so the
  // 3x3 cells around the sender hold every transmission it can hear; it
  // reads them through its cached bucket pointers (shared with the
  // interferer gather) — no hashing, and no scan of the lazily-pruned flat
  // list.
  ensure_probe_cache(from, sim::cell_of(pos, active_cell_size_));
  for (const auto* bucket : from.probe_cache_) {
    if (busy_in(*bucket)) return true;
  }
  return false;
}

void Channel::start_send(Radio& from, Packet packet, int attempt) {
  if (!from.is_on()) {
    // Radio was switched off (e.g. a recording task started) while the
    // packet was deferred in CSMA back-off; drop it.
    from.note_send_failure();
    return;
  }
  if (medium_busy_near(from)) {
    if (attempt >= cfg_.max_retries) {
      from.note_send_failure();
      return;
    }
    from.note_backoff();
    const auto delay = sim::Time::ticks(rng_.uniform_int(
        1, std::max<std::int64_t>(1, cfg_.backoff_window.raw_ticks())));
    // The radio may be torn down during the back-off; its packet goes with
    // it.
    const RadioRef sender{from.reg_seq_, &from};
    sched_.after(delay, [this, sender, seen = topology_,
                         packet = std::move(packet), attempt]() mutable {
      sim::ProfileScope ps(sched_.profiler(), sim::ProfTag::kChannelCsma);
      if (Radio* r = live(sender, seen))
        start_send(*r, std::move(packet), attempt + 1);
    });
    return;
  }
  begin_transmission(from, std::move(packet));
}

void Channel::prune_active(sim::Time now) {
  // Prune finished transmissions — but only those that can no longer matter.
  // The collision gather keys on *interval overlap* with the delivering
  // transmission, not on "still on air": a packet that ended a moment ago is
  // a legitimate interferer for a longer packet still in flight. So the
  // erase horizon is the earliest start among live transmissions; an entry
  // ending at or before it cannot overlap anything that still delivers (and
  // a transmission that has not begun cannot reach back before now). The old
  // `end < now` predicate silently dropped still-relevant interferers of
  // long packets whenever a short packet's delivery pruned between them —
  // and made results depend on prune cadence. With the horizon predicate the
  // cadence is genuinely unobservable, so pruning is amortized
  // unconditionally; queries step over the bounded leftovers with one
  // timestamp compare each. The cadence trades prune cost against the
  // stale-entry window that every carrier-sense probe and interferer gather
  // re-walks; a short stride keeps those scans near the true in-flight count
  // (usually a handful) while still amortizing the erase. The grid mirror
  // prunes with the same predicate so both query paths see exactly the same
  // survivors.
  if (++prune_skips_ < 8) return;
  prune_skips_ = 0;
  sim::Time horizon = now;
  for (const auto& t : active_) {
    if (t.end >= now && t.start < horizon) horizon = t.start;
  }
  const auto dead = [horizon](const ActiveTx& t) { return t.end <= horizon; };
  active_.erase(std::remove_if(active_.begin(), active_.end(), dead),
                active_.end());
  if (!grid_on_) return;
  // Drained buckets are kept in the map, not erased: per-radio probe caches
  // hold pointers into it. Only the buckets known to hold entries are
  // visited — pruning must not pay for every coarse cell the deployment has
  // ever touched.
  std::size_t w = 0;
  for (auto* bucket : active_nonempty_) {
    bucket->erase(std::remove_if(bucket->begin(), bucket->end(), dead),
                  bucket->end());
    if (!bucket->empty()) active_nonempty_[w++] = bucket;
  }
  active_nonempty_.resize(w);
}

void Channel::begin_transmission(Radio& from, Packet packet) {
  const sim::Time start = sched_.now();
  // The packet is sized exactly once per transmission; receivers and trace
  // sites reuse this instead of re-walking the message list.
  const std::uint32_t tx_bytes = packet.total_bytes();
  const sim::Time end = start + air_time(tx_bytes);
  const ActiveTx tx{from.id(), from.position(), start, end};
  active_.push_back(tx);
  if (grid_on_) {
    auto& bucket = active_cells_[active_cell_for(tx.pos)];
    if (bucket.empty()) active_nonempty_.push_back(&bucket);
    bucket.push_back(tx);
  }
  ++stats_.transmissions;
  stats_.busy_ticks += static_cast<std::uint64_t>((end - start).raw_ticks());
  from.note_sent(packet, tx_bytes, (end - start).to_seconds());
  sim::trace_instant(sched_.trace(), start, sim::TraceEvent::kChannelSend,
                     from.id(), packet.dst, tx_bytes);

  // Deliveries resolve at transmission end; collision checks look at every
  // transmission that overlapped [start, end] at the receiver. The sender
  // may have been torn down while its packet was in the air: nothing to
  // deliver then, though its transmission still occupied the medium.
  const RadioRef sender{from.reg_seq_, &from};
  sched_.at(end, [this, sender, seen = topology_, packet = std::move(packet),
                  start, end, tx_bytes]() {
    sim::ProfileScope prof(sched_.profiler(), sim::ProfTag::kChannelDelivery);
    if (Radio* r = live(sender, seen))
      deliver_transmission(*r, packet, start, end, tx_bytes);
    prune_active(sched_.now());
  });
}

void Channel::deliver_transmission(Radio& from, const Packet& packet,
                                   sim::Time start, sim::Time end,
                                   std::uint32_t tx_bytes) {
  const ActiveTx me{from.id(), from.position(), start, end};
  // Snapshot the recipients before delivering: protocol handlers run from
  // r->deliver() can tear radios down, which would invalidate any live
  // iterator into the registry. With the index on, the sender's neighbor
  // cache makes the gather a copy while the topology is unchanged; the loop
  // still runs over channel-owned delivery_scratch_ (a handler could tear
  // down `from` itself, taking its cache with it).
  if (grid_on_) {
    if (from.nbr_topology_ != topology_) {
      radios_in_range(from.position(), cfg_.comm_range, from.nbr_cache_);
      from.nbr_topology_ = topology_;
    }
    delivery_scratch_ = from.nbr_cache_;
  } else {
    radios_in_range(me.pos, cfg_.comm_range, delivery_scratch_);
  }
  gather_interferers(me, from);

  // Per receiver, in registration order: the collision verdict at its
  // current position (a handler earlier in the loop may have moved it), the
  // loss draw, then its protocol handler. An entry is looked up before it is
  // touched once a handler has moved the topology counter, so a radio torn
  // down mid-loop is skipped. An empty interferer set decides every
  // collision verdict up front, so a quiet medium — the common case at
  // realistic beacon rates — skips the per-receiver test. The sender's
  // identity is hoisted: a handler may tear `from` down mid-loop, after
  // which reading from.id() would be use-after-free. A packet only its
  // addressee acts on (bulk-transfer frames, most of the receive path under
  // storage balancing) still costs every other receiver its verdict, loss
  // draw, counters and RX air time — only the protocol handler is skipped.
  const bool check_collisions = !interferers_scratch_.empty();
  const NodeId from_id = me.src;
  const std::uint64_t from_seq = from.reg_seq_;
  const bool only_dst = addressee_only(packet);
  sim::Trace* const trace = sched_.trace();
  const double air_s = (end - start).to_seconds();
  const std::uint64_t seen = topology_;
  for (const RadioRef& ref : delivery_scratch_) {
    if (ref.seq == from_seq) continue;  // self
    Radio* r = live(ref, seen);
    if (!r) continue;  // torn down mid-loop
    if (!r->is_on()) {
      r->note_missed_off();
      ++stats_.losses_radio_off;
      sim::trace_instant(
          trace, end, sim::TraceEvent::kChannelDrop, r->id(), from_id,
          static_cast<std::uint64_t>(sim::TraceDropReason::kRadioOff));
      continue;
    }
    if (check_collisions && collided(*r)) {
      r->note_loss();
      ++stats_.losses_collision;
      sim::trace_instant(
          trace, end, sim::TraceEvent::kChannelDrop, r->id(), from_id,
          static_cast<std::uint64_t>(sim::TraceDropReason::kCollision));
      continue;
    }
    const std::uint64_t burst_before = stats_.losses_burst;
    if (drop_random(from_id, r->id())) {
      r->note_loss();
      sim::trace_instant(
          trace, end, sim::TraceEvent::kChannelDrop, r->id(), from_id,
          static_cast<std::uint64_t>(stats_.losses_burst != burst_before
                                         ? sim::TraceDropReason::kBurst
                                         : sim::TraceDropReason::kRandom));
      continue;
    }
    ++stats_.deliveries;
    sim::trace_instant(trace, end, sim::TraceEvent::kChannelDeliver, r->id(),
                       from_id, tx_bytes);
    r->deliver(packet, tx_bytes, air_s, !only_dst || r->id() == packet.dst);
  }
}

void Channel::ensure_probe_cache(Radio& from, sim::CellCoord c) {
  // The cache self-validates against the cell coordinate (mobility-safe) and
  // creating missing buckets up front keeps it valid as cells fill later
  // (the map never erases buckets and keeps references stable across rehash).
  if (from.probe_cache_ok_ && from.probe_cell_ == c) return;
  std::size_t k = 0;
  for (std::int32_t dy = -1; dy <= 1; ++dy) {
    for (std::int32_t dx = -1; dx <= 1; ++dx) {
      const std::uint64_t key = sim::cell_key({c.x + dx, c.y + dy});
      from.probe_cache_[k++] = &active_cells_.try_emplace(key).first->second;
    }
  }
  from.probe_cell_ = c;
  from.probe_cache_ok_ = true;
}

void Channel::gather_interferers(const ActiveTx& me, Radio& from) {
  interferers_scratch_.clear();
  const auto overlaps_me = [&me](const ActiveTx& other) {
    if (other.src == me.src && other.start == me.start) return false;  // self
    return other.end > me.start && other.start < me.end;
  };
  // Any receiver of `me` is within comm_range of the sender; its interferers
  // are within comm_range of it, hence within 2x comm_range of the sender.
  // The flat scan serves while the list is no longer than the 3x3 probe.
  if (!grid_on_ || active_.size() <= from.probe_cache_.size()) {
    for (const auto& other : active_) {
      if (overlaps_me(other)) interferers_scratch_.push_back(other.pos);
    }
    return;
  }
  // Distance pre-filter with a safety margin. A bare `<= horizon` test could
  // drop a boundary interferer the exact per-receiver test would accept when
  // the computed distances disagree by an ulp, but the slack below exceeds
  // any accumulated rounding (relative error ~1e-15 at simulation scales) by
  // many orders of magnitude, so the filtered set is still a strict superset
  // of every receiver's true interferers and verdicts stay bit-identical
  // with the linear path. The cells alone admit candidates up to two cell
  // widths away; trimming them here is what keeps collided() cheap.
  const double slack = 2.0 * cfg_.comm_range + 1e-6;
  const double slack_sq = slack * slack;
  // The coarse cells are at least 2x comm_range wide, so the sender's cached
  // 3x3 bucket pointers (shared with carrier sense) cover the horizon.
  ensure_probe_cache(from, sim::cell_of(me.pos, active_cell_size_));
  for (const auto* bucket : from.probe_cache_) {
    for (const auto& other : *bucket) {
      if (!overlaps_me(other)) continue;
      const double ddx = other.pos.x - me.pos.x;
      const double ddy = other.pos.y - me.pos.y;
      if (ddx * ddx + ddy * ddy > slack_sq) continue;
      interferers_scratch_.push_back(other.pos);
    }
  }
}

bool Channel::collided(const Radio& receiver) const {
  // The gathered set is a superset of this receiver's true interferers in
  // both index modes; the exact distance test below makes the verdict
  // identical either way.
  for (const auto& pos : interferers_scratch_) {
    if (sim::distance(pos, receiver.position()) <= cfg_.comm_range)
      return true;
  }
  return false;
}

// ---------------------------------------------------------------------------
// Radio

Radio::Radio(Channel& channel, NodeId id, sim::Position pos)
    : channel_(channel), id_(id), pos_(pos) {}

Radio::~Radio() { channel_.unregister(this); }

void Radio::set_position(const sim::Position& p) {
  channel_.move_radio(this, p);
}

bool Radio::send(Packet packet) {
  if (!on_) return false;
  assert(packet.src == id_);
  channel_.start_send(*this, std::move(packet), 0);
  return true;
}

void Radio::note_sent(const Packet& p, std::uint32_t total_bytes,
                      double air_s) {
  ++stats_.packets_sent;
  stats_.bytes_sent += total_bytes;
  for (const auto& m : p.messages) ++stats_.messages_sent[type_index(m)];
  if (on_airtime_) on_airtime_(air_s, /*is_tx=*/true);
}

void Radio::deliver(const Packet& p, std::uint32_t total_bytes, double air_s,
                    bool dispatch) {
  ++stats_.packets_received;
  stats_.bytes_received += total_bytes;
  if (on_airtime_) on_airtime_(air_s, /*is_tx=*/false);
  if (dispatch && on_receive_) on_receive_(p);
}

}  // namespace enviromic::net
