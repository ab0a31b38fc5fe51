#include "core/balancer.h"

#include <algorithm>
#include <cmath>

#include "core/bulk_transfer.h"
#include "core/node.h"
#include "sim/trace.h"

namespace enviromic::core {

namespace {
/// Base STATE_BEACON interval.
constexpr sim::Time kBeaconPeriod = sim::Time::seconds_i(5);
/// Idle beacon back-off cap, as a multiple of kBeaconPeriod. While a node
/// neither records nor hears an event nor sheds data, its STATE_BEACON
/// interval doubles each tick up to kBeaconPeriod * this factor; any
/// activity snaps it back to kBeaconPeriod (and pulls the next tick
/// forward). The current interval rides in the beacon so receivers age a
/// backed-off sender out later, not sooner.
constexpr std::int64_t kBeaconIdleBackoffMax = 4;
static_assert(kBeaconIdleBackoffMax >= 1);
/// Beacon soft-state freshness horizon, in sender beacon intervals: a
/// neighbour entry expires kBeaconFreshnessPeriods * (the sender's
/// advertised interval) after the last beacon.
constexpr int kBeaconFreshnessPeriods = 3;
static_assert(kBeaconFreshnessPeriods >= 1);
/// Initial acquisition rate R0 (bytes/s); paper §II-B: zero or
/// Exp(R_event)/N. The default matches the indoor workload's network-wide
/// average (≈1100 s of 2730 B/s audio over 4400 s across 48 nodes).
constexpr double kInitialRateBytesPerS = 25.0;
/// Chunks per balancing session before re-evaluating the trigger.
constexpr int kMaxChunksPerSession = 8;
/// Minimum spacing between outgoing balancing sessions. Keeps shedding
/// paced like the mote implementation (where bulk transfer competed with
/// all other traffic), so hot nodes carry a standing backlog instead of
/// draining instantly — the paper's Fig 13 shows the source regions as
/// the densest.
constexpr sim::Time kSessionCooldown = sim::Time::seconds_i(45);
}  // namespace

Balancer::Balancer(Node& node)
    : node_(node),
      rate_(kEwmaAlpha, kInitialRateBytesPerS),
      beacon_interval_(kBeaconPeriod),
      tick_slot_(node.proto_timer().add_slot([this] { tick(); })) {}

void Balancer::start() {
  if (started_) return;
  started_ = true;
  last_rate_update_ = node_.sched().now();
  beacon_interval_ = kBeaconPeriod;
  activity_since_tick_ = false;
  // Stagger ticks across nodes so beacons do not synchronize.
  const auto stagger =
      sim::Time::ticks(node_.rng().uniform_int(0, kBeaconPeriod.raw_ticks()));
  node_.proto_timer().arm_after(tick_slot_, stagger);
}

void Balancer::reset() {
  node_.proto_timer().disarm(tick_slot_);
  started_ = false;
  neighbors_.clear();
  next_prune_ = sim::Time{};
  est_mean_free_ = -1.0;
  bytes_this_period_ = 0;
  beacon_interval_ = kBeaconPeriod;
  activity_since_tick_ = false;
  rate_.reset(kInitialRateBytesPerS);
}

void Balancer::note_peer_unreachable(net::NodeId id) {
  for (std::size_t i = 0; i < neighbors_.size(); ++i) {
    if (neighbors_[i].id == id) {
      neighbors_.erase(neighbors_.begin() + static_cast<std::ptrdiff_t>(i));
      return;
    }
  }
}

void Balancer::note_recorded_bytes(std::uint64_t bytes) {
  bytes_this_period_ += bytes;
  activity_since_tick_ = true;
  update_rate_if_due();
  wake_beacon();
}

void Balancer::wake_beacon() {
  // Data is flowing again: snap a backed-off beacon interval back to the
  // base period and pull the next tick forward if it is armed further out.
  if (!started_ || beacon_interval_ <= kBeaconPeriod) return;
  beacon_interval_ = kBeaconPeriod;
  auto& timer = node_.proto_timer();
  const sim::Time want = node_.sched().now() + beacon_interval_;
  if (!timer.armed(tick_slot_) || timer.deadline(tick_slot_) > want) {
    timer.arm(tick_slot_, want);
  }
}

void Balancer::update_rate_if_due() {
  const sim::Time now = node_.sched().now();
  const sim::Time period = kRateUpdatePeriod;
  const sim::Time elapsed = now - last_rate_update_;
  if (elapsed < period) return;
  // R(t) measures input "over the (waking) interval during which recording
  // took place" (paper §II-B): normalize by awake time so duty cycling
  // leaves the TTL bottleneck unchanged.
  const double duty = std::clamp(node_.cfg().duty_cycle, 0.05, 1.0);
  // One gap-aware sample over however many periods elapsed. Feeding the
  // EWMA one sample per period in a loop misweighted long gaps twice over:
  // all bytes landed in the first (inflated) sample and the remaining k-1
  // iterations flooded the average with zero-rate samples.
  const std::int64_t k = elapsed.raw_ticks() / period.raw_ticks();
  const double r = static_cast<double>(bytes_this_period_) /
                   (static_cast<double>(k) * period.to_seconds() * duty);
  rate_.update(r);
  bytes_this_period_ = 0;
  last_rate_update_ += period * k;
}

double Balancer::ttl_storage_seconds() const {
  const auto free = node_.store().free_bytes();
  if (free == 0) return 0.0;
  const double r = std::max(rate_.value(), kRateFloorBytesPerS);
  if (r < 1e-9) return std::numeric_limits<double>::infinity();
  return static_cast<double>(free) / r;
}

double Balancer::ttl_energy_seconds() const {
  return node_.energy().ttl_energy_seconds(rate_.value());
}

double Balancer::beta() const {
  const double ttl = ttl_storage_seconds();
  const double ref = node_.cfg().ttl_reference_s;
  const double frac = std::isinf(ttl) ? 1.0 : std::min(1.0, ttl / ref);
  return 1.0 + (node_.cfg().beta_max - 1.0) * frac;
}

Balancer::NeighborState& Balancer::touch(net::NodeId id) {
  for (auto& n : neighbors_) {
    if (n.id == id) return n;
  }
  neighbors_.push_back(NeighborState{});
  neighbors_.back().id = id;
  return neighbors_.back();
}

void Balancer::maybe_prune(sim::Time now) {
  if (now < next_prune_ || neighbors_.size() <= 8) return;
  next_prune_ = now + kBeaconPeriod;
  std::erase_if(neighbors_,
                [now](const NeighborState& n) { return n.expires_at <= now; });
}

void Balancer::handle(const net::StateBeacon& m) {
  const sim::Time now = node_.sched().now();
  auto& n = touch(m.sender);
  n.ttl_storage_s = m.ttl_storage_s;
  n.ttl_energy_s = m.ttl_energy_s;
  n.free_bytes = m.free_bytes;
  n.est_mean_free = m.est_mean_free > 0.0 ? m.est_mean_free : -1.0;
  // Expiry scales with the *sender's* advertised interval so an
  // idle-backed-off sender is not aged out between its (sparser) beacons.
  const double interval_s =
      m.interval_s > 0.0 ? m.interval_s : kBeaconPeriod.to_seconds();
  n.expires_at = now + sim::Time::seconds(
                           interval_s *
                           static_cast<double>(kBeaconFreshnessPeriods));
  maybe_prune(now);
}

double Balancer::estimated_mean_free() const {
  if (est_mean_free_ >= 0.0) return est_mean_free_;
  return static_cast<double>(node_.store().free_bytes());
}

void Balancer::note_neighbor(net::NodeId id, double ttl_storage_s,
                             std::uint64_t free_bytes) {
  auto& n = touch(id);
  n.ttl_storage_s = ttl_storage_s;
  n.free_bytes = free_bytes;
  n.expires_at = node_.sched().now() + kBeaconPeriod * kBeaconFreshnessPeriods;
}

void Balancer::tick() {
  const sim::Time now = node_.sched().now();
  // Idle back-off: while nothing is recorded, heard, or shed, stretch the
  // interval (doubling up to kBeaconPeriod * kBeaconIdleBackoffMax); any
  // activity snaps it back to the base period (wake_beacon).
  const sim::Time cap = kBeaconPeriod * kBeaconIdleBackoffMax;
  const bool idle = !activity_since_tick_ && !node_.group().hearing() &&
                    !node_.bulk().sending();
  beacon_interval_ = idle ? std::min(cap, beacon_interval_ * 2) : kBeaconPeriod;
  activity_since_tick_ = false;
  node_.proto_timer().arm_after(tick_slot_, beacon_interval_);
  if (node_.cfg().mode != Mode::kFull) return;
  update_rate_if_due();
  node_.energy().advance(now);
  maybe_prune(now);

  if (node_.cfg().balance_strategy == BalanceStrategy::kGlobalGossip) {
    // DeGroot averaging: blend the local free space with the fresh
    // neighbours' estimates; repeated exchange converges toward the
    // network-wide mean.
    double sum = static_cast<double>(node_.store().free_bytes());
    int n = 1;
    for (const auto& st : neighbors_) {
      if (st.expires_at <= now) continue;
      sum += st.est_mean_free >= 0.0 ? st.est_mean_free
                                     : static_cast<double>(st.free_bytes);
      ++n;
    }
    est_mean_free_ = sum / n;
  }

  net::StateBeacon b;
  b.sender = node_.id();
  b.ttl_storage_s = ttl_storage_seconds();
  b.ttl_energy_s = ttl_energy_seconds();
  b.free_bytes = node_.store().free_bytes();
  b.est_mean_free = est_mean_free_ >= 0.0 ? est_mean_free_ : 0.0;
  b.interval_s = beacon_interval_.to_seconds();
  node_.nb().send_lazy(b);
  ++stats_.beacons_sent;

  evaluate();
}

void Balancer::evaluate() {
  if (node_.cfg().mode != Mode::kFull) return;
  if (node_.bulk().sending() || node_.is_recording()) return;
  // A coded dispersal in progress owns the head chunk (the original must not
  // migrate out from under its fragments) and the bulk tx slot between
  // fragment pushes.
  if (node_.coded().active()) return;
  // "Acoustic events are likely to be sporadic allowing for migration in
  // between occurrences" (paper §II-B): defer shedding while an event is in
  // progress locally so bulk traffic does not disturb task management.
  if (node_.group().hearing()) return;
  if (node_.sched().now() - last_session_end_ < kSessionCooldown)
    return;
  if (node_.store().chunk_count() == 0) return;
  if (node_.energy().battery().depleted()) return;

  const double my_ttl = ttl_storage_seconds();
  if (std::isinf(my_ttl)) return;  // nothing flowing in; nothing to shed

  // The paper's energy gate: migrate only while storage, not energy, is the
  // bottleneck.
  if (ttl_energy_seconds() <= my_ttl) return;

  const double my_beta = beta();
  const sim::Time now = node_.sched().now();
  const std::uint32_t min_space = storage::kBlockSize * 4;

  // The neighbour table is insertion-ordered, so ties break explicitly on
  // the lowest id to keep candidate selection independent of arrival order.
  net::NodeId best = net::kInvalidNode;
  if (node_.cfg().balance_strategy == BalanceStrategy::kGlobalGossip) {
    // Global trigger: shed when the network-mean free space exceeds beta
    // times ours (we are globally over-loaded), to the neighbour with the
    // most free space.
    const auto my_free = static_cast<double>(node_.store().free_bytes());
    if (!(estimated_mean_free() > my_beta * std::max(1.0, my_free))) return;
    std::uint64_t best_free = 0;
    for (const auto& st : neighbors_) {
      if (st.expires_at <= now) continue;
      if (st.free_bytes < min_space) continue;
      if (!(static_cast<double>(st.free_bytes) > my_free)) continue;
      if (best == net::kInvalidNode || st.free_bytes > best_free ||
          (st.free_bytes == best_free && st.id < best)) {
        best_free = st.free_bytes;
        best = st.id;
      }
    }
  } else {
    double best_ttl = 0.0;
    for (const auto& st : neighbors_) {
      if (st.expires_at <= now) continue;
      if (st.free_bytes < min_space) continue;
      const double ratio = my_ttl <= 0.0
                               ? std::numeric_limits<double>::infinity()
                               : st.ttl_storage_s / my_ttl;
      if (!(ratio > my_beta)) continue;
      if (best == net::kInvalidNode || st.ttl_storage_s > best_ttl ||
          (st.ttl_storage_s == best_ttl && st.id < best)) {
        best_ttl = st.ttl_storage_s;
        best = st.id;
      }
    }
  }
  if (best == net::kInvalidNode) return;

  if (node_.cfg().storage_policy == StoragePolicy::kCoded) {
    // Same trigger, different action: hand the full eligible-neighbour list
    // (best first, deterministic tie-break on id) to the coded dispersal so
    // it can place one fragment per distinct peer. Falls through to
    // whole-chunk migration when dispersal declines (head already a
    // fragment, zero-byte chunk).
    const bool gossip =
        node_.cfg().balance_strategy == BalanceStrategy::kGlobalGossip;
    const auto my_free = static_cast<double>(node_.store().free_bytes());
    std::vector<std::pair<double, net::NodeId>> elig;
    for (const auto& st : neighbors_) {
      if (st.expires_at <= now) continue;
      if (st.free_bytes < min_space) continue;
      if (gossip) {
        if (!(static_cast<double>(st.free_bytes) > my_free)) continue;
        elig.emplace_back(static_cast<double>(st.free_bytes), st.id);
      } else {
        const double ratio = my_ttl <= 0.0
                                 ? std::numeric_limits<double>::infinity()
                                 : st.ttl_storage_s / my_ttl;
        if (!(ratio > my_beta)) continue;
        elig.emplace_back(st.ttl_storage_s, st.id);
      }
    }
    std::sort(elig.begin(), elig.end(), [](const auto& a, const auto& b) {
      if (a.first != b.first) return a.first > b.first;
      return a.second < b.second;
    });
    std::vector<net::NodeId> ids;
    ids.reserve(elig.size());
    for (const auto& [score, id] : elig) {
      (void)score;
      ids.push_back(id);
    }
    if (node_.coded().start(std::move(ids))) {
      ++stats_.sessions_started;
      sim::trace_instant(
          node_.sched().trace(), now, sim::TraceEvent::kBalance, node_.id(),
          best, static_cast<std::uint64_t>(std::llround(my_beta * 1e6)),
          my_ttl, ttl_energy_seconds());
      return;
    }
  }

  ++stats_.sessions_started;
  sim::trace_instant(node_.sched().trace(), now, sim::TraceEvent::kBalance,
                     node_.id(), best,
                     static_cast<std::uint64_t>(std::llround(my_beta * 1e6)),
                     my_ttl, ttl_energy_seconds());
  node_.bulk().start_session(best, kMaxChunksPerSession);
}

void Balancer::on_session_end(net::NodeId to, std::uint64_t bytes_moved) {
  stats_.bytes_pushed += bytes_moved;
  last_session_end_ = node_.sched().now();
  activity_since_tick_ = true;
  // Update our estimate of the receiver so the trigger does not fire again
  // before its next beacon.
  for (auto& st : neighbors_) {
    if (st.id != to) continue;
    if (bytes_moved == 0) break;
    const double rate_est =
        st.ttl_storage_s > 0.0 && !std::isinf(st.ttl_storage_s)
            ? static_cast<double>(st.free_bytes) / st.ttl_storage_s
            : 0.0;
    st.free_bytes -= std::min(st.free_bytes, bytes_moved);
    if (rate_est > 1e-9) {
      st.ttl_storage_s = static_cast<double>(st.free_bytes) / rate_est;
    }
    break;
  }
  // Keep shedding while the trigger still holds.
  evaluate();
}

}  // namespace enviromic::core
