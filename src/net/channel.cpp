#include "net/channel.h"

#include <algorithm>
#include <cassert>

#include "sim/trace.h"

namespace enviromic::net {

Channel::Channel(sim::Scheduler& sched, sim::Rng rng, ChannelConfig cfg)
    : sched_(sched), rng_(rng), cfg_(cfg) {}

std::unique_ptr<Radio> Channel::create_radio(NodeId id, sim::Position pos) {
  auto radio = std::make_unique<Radio>(*this, id, pos);
  radio->reg_seq_ = next_reg_seq_++;
  ++topology_;
  radios_.push_back(radio.get());
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
}

void Channel::move_radio(Radio* r, const sim::Position& p) {
  r->pos_ = p;
  ++topology_;
}

void Channel::radios_in_range(const sim::Position& pos, double range,
                              std::vector<RadioRef>& out) const {
  out.clear();
  for (Radio* r : radios_) {
    if (sim::distance(r->position(), pos) <= range)
      out.push_back({r->reg_seq_, r});
  }
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

bool Channel::medium_busy_near(const sim::Position& pos) const {
  const double sense = cfg_.comm_range * cfg_.carrier_sense_factor;
  if (sense <= 0.0) return false;  // carrier sensing disabled
  const sim::Time now = sched_.now();
  const double sense_sq = sense * sense;
  for (const auto& tx : active_) {
    if (tx.end <= now) continue;
    const double ddx = tx.pos.x - pos.x;
    const double ddy = tx.pos.y - pos.y;
    if (ddx * ddx + ddy * ddy <= sense_sq) return true;
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
  if (medium_busy_near(from.position())) {
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
  // (usually a handful) while still amortizing the erase.
  if (++prune_skips_ < 8) return;
  prune_skips_ = 0;
  sim::Time horizon = now;
  for (const auto& t : active_) {
    if (t.end >= now && t.start < horizon) horizon = t.start;
  }
  const auto dead = [horizon](const ActiveTx& t) { return t.end <= horizon; };
  active_.erase(std::remove_if(active_.begin(), active_.end(), dead),
                active_.end());
}

void Channel::begin_transmission(Radio& from, Packet packet) {
  const sim::Time start = sched_.now();
  // The packet is sized exactly once per transmission; receivers and trace
  // sites reuse this instead of re-walking the message list.
  const std::uint32_t tx_bytes = packet.total_bytes();
  const sim::Time end = start + air_time(tx_bytes);
  active_.push_back({from.id(), from.position(), start, end});
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
  // iterator into the registry. The sender's neighbor cache makes the
  // gather a copy while the topology is unchanged; the loop still runs over
  // channel-owned delivery_scratch_ (a handler could tear down `from`
  // itself, taking its cache with it).
  if (from.nbr_topology_ != topology_) {
    radios_in_range(me.pos, cfg_.comm_range, from.nbr_cache_);
    from.nbr_topology_ = topology_;
  }
  delivery_scratch_ = from.nbr_cache_;
  gather_interferers(me);

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

void Channel::gather_interferers(const ActiveTx& me) {
  interferers_scratch_.clear();
  // Any receiver of `me` is within comm_range of the sender; its interferers
  // are within comm_range of it, hence within 2x comm_range of the sender.
  // The slack exceeds any accumulated rounding (relative error ~1e-15 at
  // simulation scales) by many orders of magnitude, so the gathered set is
  // a superset of every receiver's true interferers, and trimming it keeps
  // collided() cheap.
  const double slack = 2.0 * cfg_.comm_range + 1e-6;
  const double slack_sq = slack * slack;
  for (const auto& other : active_) {
    if (other.src == me.src && other.start == me.start) continue;  // self
    if (other.end <= me.start || other.start >= me.end) continue;
    const double ddx = other.pos.x - me.pos.x;
    const double ddy = other.pos.y - me.pos.y;
    if (ddx * ddx + ddy * ddy > slack_sq) continue;
    interferers_scratch_.push_back(other.pos);
  }
}

bool Channel::collided(const Radio& receiver) const {
  // The gathered set is a superset of this receiver's true interferers; the
  // exact distance test below decides.
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
