#include "core/group.h"

#include <algorithm>

#include "core/node.h"
#include "sim/trace.h"

namespace {
std::uint64_t ev_key(const enviromic::net::EventId& e) {
  return enviromic::sim::trace_pack(e.origin, e.seq);
}
}  // namespace

namespace enviromic::core {

namespace {
/// Leader election back-off window after detecting a leaderless event.
/// Paper §IV-A: election + group creation + first task assignment take
/// ~0.7 s on average ("up to one second"); U(0, 1 s) back-off plus
/// detection and control latencies lands there.
constexpr sim::Time kElectionBackoff = sim::Time::millis(1000);
/// Hand-off election back-off after a RESIGN (soft state exists, so the
/// paper calls this "very quick").
constexpr sim::Time kHandoffBackoff = sim::Time::millis(80);
/// SENSING heartbeat period while hearing an event.
constexpr sim::Time kSensingPeriod = sim::Time::millis(500);
/// Member soft-state expiry (several heartbeats).
constexpr sim::Time kMemberTimeout = sim::Time::millis(1500);
/// A hearing non-leader that observes no task activity for this long
/// assumes the leader is gone and re-elects.
constexpr sim::Time kLeaderSilenceTimeout = sim::Time::millis(2500);
}  // namespace

GroupManager::GroupManager(Node& node)
    : node_(node),
      sensing_slot_(node.proto_timer().add_slot([this] { sensing_tick(); })),
      watchdog_slot_(node.proto_timer().add_slot([this] { watchdog_tick(); })) {
}

net::NodeId GroupManager::self() const { return node_.id(); }

void GroupManager::on_onset() {
  hearing_ = true;
  if (node_.cfg().prelude_enabled && !node_.is_recording()) {
    node_.recorder().start_prelude();  // calls begin_coordination() at end
    return;
  }
  begin_coordination();
}

void GroupManager::begin_coordination() {
  if (!hearing_) return;
  const sim::Time now = node_.sched().now();

  // Start the SENSING heartbeat.
  if (!node_.proto_timer().armed(sensing_slot_)) sensing_tick();
  // Start the leader-silence watchdog. It only runs while we hear an event
  // (both timers are slots on the node's coalesced timer, so an idle node
  // schedules nothing).
  if (!node_.proto_timer().armed(watchdog_slot_)) {
    node_.proto_timer().arm_after(
        watchdog_slot_, kLeaderSilenceTimeout.scaled(0.5));
  }

  // If a leader is demonstrably alive for an ongoing event, just join.
  const bool leader_alive =
      current_event_.valid() && leader_ != net::kInvalidNode &&
      now - last_leader_evidence_ < kLeaderSilenceTimeout;
  if (leader_alive || is_leader()) return;

  // Compete to become the leader.
  schedule_election(kElectionBackoff, current_event_, /*is_handoff=*/false);
}

void GroupManager::schedule_election(sim::Time backoff_window,
                                     net::EventId reuse, bool is_handoff) {
  if (election_timer_.pending()) return;
  const auto ticks = backoff_window.raw_ticks();
  const sim::Time backoff =
      sim::Time::ticks(node_.rng().uniform_int(0, ticks > 0 ? ticks : 0));
  election_timer_ = node_.sched().after(backoff, [this, reuse, is_handoff] {
    election_fire(reuse, is_handoff);
  });
}

void GroupManager::election_fire(net::EventId reuse, bool is_handoff) {
  if (!hearing_) return;
  const sim::Time now = node_.sched().now();
  // Withdraw if a leader announced (or proved alive) since we armed.
  const bool leader_alive =
      current_event_.valid() && leader_ != net::kInvalidNode &&
      leader_ != self() &&
      now - last_leader_evidence_ <
          (is_handoff ? kHandoffBackoff * 3 : kLeaderSilenceTimeout);
  if (leader_alive) return;
  if (node_.is_recording()) return;  // cannot announce with the radio off

  net::EventId event = reuse;
  if (!event.valid()) {
    event = net::EventId{self(), next_event_seq_++};
  }
  std::uint32_t round = 0;
  sim::Time first_assign = now;
  sim::Time task_end = now;  // no task running yet
  if (is_handoff) {
    round = pending_next_round_;
    first_assign = std::max(now, pending_next_task_at_);
    // The previous leader's recorder is still running until roughly
    // first_assign + D_ta (it scheduled the assignment D_ta early).
    task_end = first_assign + node_.cfg().task_assign_delay;
    ++stats_.handoffs_won;
  } else {
    ++stats_.elections_won;
  }
  become_leader(event, round, first_assign);
  sim::trace_instant(node_.sched().trace(), now, sim::TraceEvent::kLeader,
                     self(), ev_key(event), is_handoff ? 1 : 0);
  if (is_handoff) {
    node_.tasking().start(event, round, first_assign, task_end);
  } else {
    node_.tasking().start(event, round, first_assign, now);
  }
}

void GroupManager::become_leader(net::EventId event, std::uint32_t round,
                                 sim::Time first_assign_at) {
  (void)round;
  leader_ = self();
  current_event_ = event;
  last_leader_evidence_ = node_.sched().now();
  sim::trace_begin(node_.sched().trace(), node_.sched().now(),
                   sim::TraceEvent::kLeadership, self(), ev_key(event));

  net::LeaderAnnounce a;
  a.event = event;
  a.leader = self();
  a.next_task_at = first_assign_at;
  node_.nb().send_now(a);

  if (node_.cfg().prelude_enabled) {
    // Designate a prelude keeper: prefer ourselves (we certainly recorded
    // one if we heard the onset), otherwise the freshest member.
    net::PreludeKeep pk;
    pk.event = event;
    pk.keeper = self();
    node_.nb().send_now(pk);
    node_.recorder().handle(pk);
  }
}

void GroupManager::resign() {
  net::Resign r;
  r.event = current_event_;
  r.leader = self();
  r.next_task_at = node_.tasking().next_assignment_at();
  r.next_round = node_.tasking().next_round();
  node_.nb().send_now(r);
  ++stats_.resigns_sent;
  sim::trace_instant(node_.sched().trace(), node_.sched().now(),
                     sim::TraceEvent::kResign, self(), ev_key(current_event_),
                     r.next_round);
  sim::trace_end(node_.sched().trace(), node_.sched().now(),
                 sim::TraceEvent::kLeadership, self(), ev_key(current_event_));
  node_.tasking().stop();
  leader_ = net::kInvalidNode;
}

void GroupManager::on_offset() {
  hearing_ = false;
  node_.proto_timer().disarm(sensing_slot_);
  node_.proto_timer().disarm(watchdog_slot_);
  election_timer_.cancel();
  if (is_leader()) resign();
  // The local event is over for us: forget its identity so the next onset
  // is coordinated as a fresh event (a stale id would collide round numbers
  // with overheard-confirm state and mis-gate elections).
  leader_ = net::kInvalidNode;
  current_event_ = net::EventId{};
}

void GroupManager::note_foreign_leader(net::NodeId leader,
                                       const net::EventId& event) {
  // Same-event conflicts happen too: after a leader crash, two members can
  // both watchdog-elect for the surviving event id. Resolve those with the
  // same lower-id-wins rule instead of ignoring them (which stalled both
  // leaders assigning interleaved tasks forever).
  if (!is_leader() || leader == self()) return;
  if (leader < self()) {
    // Yield: the lower id keeps the group.
    sim::trace_end(node_.sched().trace(), node_.sched().now(),
                   sim::TraceEvent::kLeadership, self(),
                   ev_key(current_event_));
    node_.tasking().stop();
    leader_ = leader;
    current_event_ = event;
    last_leader_evidence_ = node_.sched().now();
    return;
  }
  // We outrank the other leader: re-announce (rate-limited) so it yields.
  const sim::Time now = node_.sched().now();
  if (now - last_conflict_announce_ < node_.cfg().task_period) return;
  last_conflict_announce_ = now;
  net::LeaderAnnounce mine;
  mine.event = current_event_;
  mine.leader = self();
  mine.next_task_at = node_.tasking().next_assignment_at();
  node_.nb().send_now(mine);
}

void GroupManager::handle(const net::LeaderAnnounce& m) {
  if (m.leader == self()) return;
  if (is_leader()) {
    note_foreign_leader(m.leader, m.event);
    return;
  }
  // Adopt the announced leader for this locality (only while we can hear
  // the event ourselves; otherwise the id would linger as stale state).
  if (!hearing_) return;
  leader_ = m.leader;
  current_event_ = m.event;
  last_leader_evidence_ = node_.sched().now();
  election_timer_.cancel();
}

void GroupManager::handle(const net::Resign& m) {
  if (m.leader == leader_ || m.event == current_event_) {
    leader_ = net::kInvalidNode;
  }
  if (!hearing_) return;
  pending_next_task_at_ = m.next_task_at;
  pending_next_round_ = m.next_round;
  current_event_ = m.event;
  schedule_election(kHandoffBackoff, m.event, /*is_handoff=*/true);
}

void GroupManager::handle(const net::Sensing& m) {
  const sim::Time now = node_.sched().now();
  auto& entry = touch(m.sender, now);
  entry.info.signal = m.signal;
  entry.info.ttl_s = m.ttl_seconds;
  entry.info.free_bytes = m.free_bytes;
  maybe_prune(now);
  // Adopt the event id from members who already know it.
  if (hearing_ && m.event.valid() && !current_event_.valid())
    current_event_ = m.event;
}

GroupManager::Entry& GroupManager::touch(net::NodeId id, sim::Time now) {
  // Freshness order: the updated entry moves to the back (now == the newest
  // last_heard), keeping the list sorted by last_heard without a re-sort.
  for (std::size_t i = members_.size(); i-- > 0;) {
    if (members_[i].id != id) continue;
    Entry e = std::move(members_[i]);
    members_.erase(members_.begin() + static_cast<std::ptrdiff_t>(i));
    e.info.last_heard = now;
    members_.push_back(std::move(e));
    return members_.back();
  }
  members_.push_back(Entry{id, MemberInfo{}});
  members_.back().info.last_heard = now;
  return members_.back();
}

void GroupManager::maybe_prune(sim::Time now) {
  // Amortized stale-state eviction: the stale entries form a prefix of the
  // freshness-ordered list. Known-busy members are kept even while silent
  // (recording with the radio off), matching fresh_members()' contract.
  if (now < next_prune_ || members_.size() <= 8) return;
  next_prune_ = now + kMemberTimeout;
  std::size_t stale_end = 0;
  while (stale_end < members_.size() &&
         now - members_[stale_end].info.last_heard >= kMemberTimeout) {
    ++stale_end;
  }
  const auto first = members_.begin();
  const auto last = first + static_cast<std::ptrdiff_t>(stale_end);
  members_.erase(std::remove_if(first, last,
                                [now](const Entry& e) {
                                  return e.info.busy_until <= now;
                                }),
                 last);
}

void GroupManager::note_task_activity(const net::EventId& event) {
  // Evidence of a live leader is scoped to *our* event: overheard task
  // traffic of a different nearby group must not suppress our election.
  if (event == current_event_) {
    last_leader_evidence_ = node_.sched().now();
    return;
  }
  if (hearing_ && event.valid() && !current_event_.valid()) {
    current_event_ = event;
    last_leader_evidence_ = node_.sched().now();
  }
}

void GroupManager::note_recorder_busy(net::NodeId who, sim::Time until) {
  for (auto& e : members_) {
    if (e.id == who) {
      e.info.busy_until = until;
      return;
    }
  }
  // Unknown member (e.g. an overheard confirm from a node we never heard a
  // heartbeat from): create a never-heard entry carrying only the busy mark.
  // It goes to the FRONT — last_heard zero is the oldest possible — so the
  // freshness ordering stays intact.
  Entry e{who, MemberInfo{}};
  e.info.busy_until = until;
  members_.insert(members_.begin(), std::move(e));
}

void GroupManager::note_member_unreachable(net::NodeId who) {
  for (std::size_t i = 0; i < members_.size(); ++i) {
    if (members_[i].id == who) {
      members_.erase(members_.begin() + static_cast<std::ptrdiff_t>(i));
      return;
    }
  }
}

void GroupManager::reset() {
  if (is_leader())
    sim::trace_end(node_.sched().trace(), node_.sched().now(),
                   sim::TraceEvent::kLeadership, self(),
                   ev_key(current_event_));
  hearing_ = false;
  leader_ = net::kInvalidNode;
  current_event_ = net::EventId{};
  last_leader_evidence_ = sim::Time{};
  members_.clear();
  next_prune_ = sim::Time{};
  election_timer_.cancel();
  node_.proto_timer().disarm(sensing_slot_);
  node_.proto_timer().disarm(watchdog_slot_);
  pending_next_task_at_ = sim::Time{};
  pending_next_round_ = 0;
  last_conflict_announce_ = sim::Time{};
  // next_event_seq_ survives: reusing a pre-crash EventId would collide file
  // ids for two different acoustic events.
}

std::vector<std::pair<net::NodeId, GroupManager::MemberInfo>>
GroupManager::fresh_members() const {
  const sim::Time now = node_.sched().now();
  std::vector<std::pair<net::NodeId, MemberInfo>> out;
  // The list is ordered by last_heard, so the fresh members form a suffix:
  // walk from the back and stop at the first stale entry.
  for (std::size_t i = members_.size(); i-- > 0;) {
    const Entry& e = members_[i];
    if (now - e.info.last_heard >= kMemberTimeout) break;
    if (e.id == self()) continue;
    // A member that is recording right now is silent but known-busy; keep it
    // out of the candidate list yet do not expire it. The boundary is
    // deliberate: busy_until > now is busy, busy_until == now means its task
    // ends exactly now and it is eligible again.
    if (e.info.busy_until > now) continue;
    out.emplace_back(e.id, e.info);
  }
  // Ascending id, as the old map-backed table returned (assignment
  // tie-breaks and tests rely on a deterministic order).
  std::sort(out.begin(), out.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  return out;
}

void GroupManager::sensing_tick() {
  if (!hearing_) return;
  node_.proto_timer().arm_after(sensing_slot_, kSensingPeriod);
  if (node_.is_recording()) return;  // radio is off
  net::Sensing s;
  s.event = current_event_;
  s.sender = self();
  s.signal = node_.detector().last_signal();
  s.ttl_seconds = node_.balancer().ttl_storage_seconds();
  s.free_bytes = node_.store().free_bytes();
  if (node_.nb().send_now(s)) ++stats_.sensings_sent;
}

void GroupManager::watchdog_tick() {
  // The watchdog sleeps when the node stops hearing: begin_coordination
  // re-arms it at the next onset. (It used to re-arm unconditionally, which
  // kept a dead 0.8 Hz timer alive on every node that ever heard an event.)
  if (!hearing_) return;
  node_.proto_timer().arm_after(
      watchdog_slot_, kLeaderSilenceTimeout.scaled(0.5));
  if (is_leader() || node_.is_recording()) return;
  const sim::Time now = node_.sched().now();
  if (now - last_leader_evidence_ > kLeaderSilenceTimeout &&
      !election_timer_.pending()) {
    ++stats_.watchdog_reelections;
    sim::trace_instant(node_.sched().trace(), now, sim::TraceEvent::kWatchdog,
                       self(), ev_key(current_event_));
    schedule_election(kElectionBackoff, current_event_, /*is_handoff=*/false);
  }
}

}  // namespace enviromic::core
