#include "core/tasking.h"

#include <algorithm>

#include "core/node.h"
#include "sim/trace.h"

namespace enviromic::core {

namespace {
/// Leader's wait for TASK_CONFIRM/TASK_REJECT before trying another
/// member (must exceed a full request->confirm handshake).
constexpr sim::Time kConfirmTimeout = sim::Time::millis(100);
// The handshake pays a processing delay at each end.
static_assert(kConfirmTimeout > kControlProcMax * 2);
}  // namespace

TaskManager::TaskManager(Node& node) : node_(node) {}

void TaskManager::start(const net::EventId& event, std::uint32_t round,
                        sim::Time first_assign_at, sim::Time current_task_end) {
  stop();
  active_ = true;
  event_ = event;
  round_ = round;
  current_task_end_ = current_task_end;
  next_assign_at_ = std::max(first_assign_at, node_.sched().now());
  assign_timer_ = node_.sched().at(next_assign_at_, [this] { assign_round(); });
}

void TaskManager::stop() {
  active_ = false;
  assign_timer_.cancel();
  confirm_timer_.cancel();
  outstanding_ = net::kInvalidNode;
  tried_this_round_.clear();
  struck_once_.clear();
}

void TaskManager::note_member_alive(net::NodeId id) {
  for (std::size_t i = 0; i < struck_once_.size(); ++i) {
    if (struck_once_[i] == id) {
      struck_once_.erase(struck_once_.begin() +
                         static_cast<std::ptrdiff_t>(i));
      return;
    }
  }
}

void TaskManager::add_strike(net::NodeId id) {
  for (const auto s : struck_once_) {
    if (s != id) continue;
    // Second consecutive silent round: now drop the soft state. If it
    // crashed, the next SENSING heartbeat never comes and later rounds must
    // not keep targeting it.
    note_member_alive(id);  // remove the strike entry
    node_.group().note_member_unreachable(id);
    return;
  }
  struck_once_.push_back(id);
}

void TaskManager::assign_round() {
  if (!active_) return;
  tried_this_round_.clear();
  replica_ = 0;
  // Recording should begin when the current task ends (seamless hand-over,
  // paper Fig 4); for the first round there is no current task.
  round_start_at_ = std::max(current_task_end_, node_.sched().now());
  try_candidate();
}

void TaskManager::try_candidate() {
  if (!active_) return;
  const auto members = node_.group().fresh_members();
  const net::NodeId me = node_.id();

  // Pick the most suitable untried member (paper §II-A.2: highest TTL or
  // best signal reception).
  const net::NodeId invalid = net::kInvalidNode;
  net::NodeId best = invalid;
  double best_score = -1.0;
  for (const auto& [id, info] : members) {
    if (tried_this_round_.count(id)) continue;
    const double score = node_.cfg().recorder_policy == RecorderPolicy::kHighestTtl
                             ? info.ttl_s
                             : info.signal;
    if (score > best_score) {
      best_score = score;
      best = id;
    }
  }

  if (best == invalid) {
    if (replica_ > 0) {
      // Extra copies are best-effort: with no member left, settle for the
      // copies already recording and move to the next round.
      round_ += 1;
      next_assign_at_ = current_task_end_ - node_.cfg().task_assign_delay;
      next_assign_at_ = std::max(next_assign_at_, node_.sched().now());
      assign_timer_ = node_.sched().at(next_assign_at_, [this] { assign_round(); });
      return;
    }
    // Nobody else reachable. If we still hear the event, record it
    // ourselves; coordination resumes when the task ends.
    if (node_.group().hearing() && !node_.is_recording()) {
      ++stats_.self_assignments;
      const sim::Time dur = node_.cfg().task_period;
      current_task_end_ = node_.sched().now() + dur;
      round_ += 1;
      next_assign_at_ = current_task_end_;
      assign_timer_ = node_.sched().at(next_assign_at_, [this] { assign_round(); });
      node_.recorder().start_self_task(event_, dur);
    } else if (node_.is_recording()) {
      // Our own previous self-task is just wrapping up (its finish event is
      // ordered after this assignment at the same instant). Re-check after
      // a short LISTENING window rather than immediately: a solo recorder
      // with its radio permanently off would never hear a competing
      // leader's traffic and duplicate chains could persist.
      next_assign_at_ = node_.sched().now() + sim::Time::millis(100);
      assign_timer_ = node_.sched().at(next_assign_at_, [this] { assign_round(); });
    } else {
      // No member is reachable: retry a little later; members may reappear
      // after their tasks.
      next_assign_at_ = node_.sched().now() + node_.cfg().task_period.scaled(0.5);
      assign_timer_ = node_.sched().at(next_assign_at_, [this] { assign_round(); });
    }
    return;
  }

  outstanding_ = best;
  net::TaskRequest req;
  req.event = event_;
  req.leader = me;
  req.recorder = best;
  req.round = round_;
  req.replica = replica_;
  req.start_at = round_start_at_;
  req.duration = node_.cfg().task_period;
  // Model the control-stack processing latency, then transmit and arm the
  // confirm timer.
  node_.sched().after(node_.proc_delay(), [this, req] {
    if (!active_ || outstanding_ != req.recorder || round_ != req.round) return;
    node_.nb().send_to(req.recorder, req);
    sim::trace_instant(node_.sched().trace(), node_.sched().now(),
                       sim::TraceEvent::kTaskRequest, node_.id(), req.recorder,
                       sim::trace_pack(req.round, req.replica));
    confirm_timer_ = node_.sched().after(kConfirmTimeout,
                                         [this] { on_confirm_timeout(); });
  });
}

void TaskManager::handle(const net::TaskConfirm& m) {
  note_member_alive(m.recorder);  // even a stale-round confirm proves life
  if (!active_ || m.event != event_ || m.round != round_ ||
      m.replica != replica_) {
    return;
  }
  sim::trace_instant(node_.sched().trace(), node_.sched().now(),
                     sim::TraceEvent::kTaskConfirm, node_.id(), m.recorder,
                     sim::trace_pack(m.round, m.replica));
  round_done(m.recorder, /*confirmed=*/true);
}

void TaskManager::handle(const net::TaskReject& m) {
  note_member_alive(m.recorder);
  if (!active_ || m.event != event_ || m.round != round_ ||
      m.replica != replica_) {
    return;
  }
  // Someone else is already recording this round (our confirm got lost on
  // the way back earlier): the assignment is done.
  sim::trace_instant(node_.sched().trace(), node_.sched().now(),
                     sim::TraceEvent::kTaskReject, node_.id(), m.recorder,
                     sim::trace_pack(m.round, m.replica));
  round_done(m.recorder, /*confirmed=*/false);
}

void TaskManager::round_done(net::NodeId recorder, bool confirmed) {
  confirm_timer_.cancel();
  outstanding_ = net::kInvalidNode;
  const sim::Time now = node_.sched().now();
  if (replica_ == 0) {
    // The primary recorder defines the task window; replicas share it.
    const sim::Time actual_start = std::max(now, round_start_at_);
    current_task_end_ = actual_start + node_.cfg().task_period;
  }
  if (confirmed) {
    node_.group().note_recorder_busy(recorder, current_task_end_);
    tried_this_round_.insert(recorder);
  }
  const int replicas = std::max(1, node_.cfg().recording_replicas);
  if (replica_ + 1 < replicas) {
    ++replica_;
    ++stats_.replicas_assigned;
    try_candidate();
    return;
  }
  ++stats_.rounds_completed;
  round_ += 1;
  next_assign_at_ = current_task_end_ - node_.cfg().task_assign_delay;
  next_assign_at_ = std::max(next_assign_at_, now);
  assign_timer_ = node_.sched().at(next_assign_at_, [this] { assign_round(); });
}

void TaskManager::on_confirm_timeout() {
  if (!active_) return;
  ++stats_.confirm_timeouts;
  sim::trace_instant(node_.sched().trace(), node_.sched().now(),
                     sim::TraceEvent::kConfirmTimeout, node_.id(), outstanding_,
                     round_);
  tried_this_round_.insert(outstanding_);
  // Two-strike rule: under burst loss a single lost TASK_CONFIRM used to
  // blacklist a live member for a full heartbeat. Tolerate one silent round
  // (the member is merely skipped for the rest of this round) and drop the
  // soft state only on the second consecutive silence.
  add_strike(outstanding_);
  outstanding_ = net::kInvalidNode;
  try_candidate();
}

}  // namespace enviromic::core
