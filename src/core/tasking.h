// Leader-side task assignment (paper §II-A.2, Figs 1/4/5).
//
// While an event lasts, the leader hands out fixed-length recording tasks of
// T_rc to the most suitable sensing member, initiating each assignment D_ta
// before the current task ends so recording is seamless. TASK_CONFIRM /
// TASK_REJECT complete a round; a confirm timeout tries the next member.
#pragma once

#include <cstdint>
#include <set>
#include <vector>

#include "core/config.h"
#include "net/message.h"
#include "sim/event_queue.h"
#include "sim/time.h"

namespace enviromic::core {

class Node;

struct TaskStats {
  std::uint32_t rounds_completed = 0;
  std::uint32_t confirm_timeouts = 0;
  std::uint32_t self_assignments = 0;
  std::uint32_t replicas_assigned = 0;  //!< extra copies beyond the first
};

class TaskManager {
 public:
  explicit TaskManager(Node& node);

  /// Become active: start assigning rounds for `event`, beginning with
  /// `round` at `first_assign_at` (now for fresh leaders; the resigning
  /// leader's schedule for hand-offs).
  void start(const net::EventId& event, std::uint32_t round,
             sim::Time first_assign_at, sim::Time current_task_end);

  /// Relinquish leadership (resign / event over).
  void stop();

  bool active() const { return active_; }
  const net::EventId& event() const { return event_; }
  std::uint32_t next_round() const { return round_; }
  /// When the next assignment is scheduled; carried in RESIGN.
  sim::Time next_assignment_at() const { return next_assign_at_; }
  sim::Time current_task_end() const { return current_task_end_; }

  void handle(const net::TaskConfirm& m);
  void handle(const net::TaskReject& m);

  /// Any traffic from `id` (heartbeat, confirm, reject) proves it alive and
  /// clears its confirm-timeout strikes.
  void note_member_alive(net::NodeId id);

  const TaskStats& stats() const { return stats_; }

 private:
  void assign_round();
  void try_candidate();
  void round_done(net::NodeId recorder, bool confirmed);
  void on_confirm_timeout();
  void add_strike(net::NodeId id);

  Node& node_;
  bool active_ = false;
  net::EventId event_;
  std::uint32_t round_ = 0;
  std::uint8_t replica_ = 0;
  sim::Time next_assign_at_;
  sim::Time current_task_end_;   //!< end of the task being recorded now
  sim::Time round_start_at_;     //!< start_at carried in this round's request
  std::set<net::NodeId> tried_this_round_;
  /// Members with one unanswered TASK_REQUEST. A second consecutive silent
  /// round drops their soft state; any sign of life clears the strike.
  std::vector<net::NodeId> struck_once_;
  net::NodeId outstanding_ = net::kInvalidNode;
  sim::EventHandle assign_timer_;
  sim::EventHandle confirm_timer_;
  TaskStats stats_;
};

}  // namespace enviromic::core
