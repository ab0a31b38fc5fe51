// Group management (paper §II-A.1).
//
// When nodes sense an acoustic event they compete through random back-off
// timers to elect a single-hop leader; the leader mints the event/file id
// and runs task assignment. SENSING heartbeats maintain soft state of who
// can hear the event on *every* node (not just the leader) so that a RESIGN
// hand-off lets the successor start assigning immediately. A silence
// watchdog re-elects when a leader disappears without resigning (e.g. its
// RESIGN was lost or it died).
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "core/config.h"
#include "net/message.h"
#include "sim/coalesced_timer.h"
#include "sim/event_queue.h"
#include "sim/time.h"

namespace enviromic::core {

class Node;

struct GroupStats {
  std::uint32_t elections_won = 0;
  std::uint32_t handoffs_won = 0;
  std::uint32_t resigns_sent = 0;
  std::uint32_t sensings_sent = 0;
  std::uint32_t watchdog_reelections = 0;
};

class GroupManager {
 public:
  struct MemberInfo {
    sim::Time last_heard;
    double signal = 0.0;
    double ttl_s = 0.0;
    std::uint64_t free_bytes = 0;
    /// Known to be executing a recording task until this instant.
    sim::Time busy_until;
  };

  explicit GroupManager(Node& node);

  // Detector edges (wired by Node).
  void on_onset();
  void on_offset();

  // Called by the recorder after the prelude completes (or directly from
  // on_onset when preludes are disabled): join/start coordination.
  void begin_coordination();

  // Message handlers.
  void handle(const net::LeaderAnnounce& m);
  void handle(const net::Resign& m);
  void handle(const net::Sensing& m);

  /// Any observed task-management traffic for `event` proves a live leader.
  void note_task_activity(const net::EventId& event);

  /// Overheard traffic proving another node leads a *different* event in
  /// this locality. While we lead too, resolve the duplicate-leader
  /// conflict: lower id keeps the group, the other yields (re-announcing is
  /// rate-limited so lossy links converge via the 1 Hz task traffic).
  void note_foreign_leader(net::NodeId leader, const net::EventId& event);

  /// Overheard TASK_CONFIRM: the recorder is busy until task end.
  void note_recorder_busy(net::NodeId who, sim::Time until);

  /// A member stopped responding (e.g. its TASK_CONFIRM never came and it is
  /// not known-busy): drop its soft state so assignment stops targeting it.
  void note_member_unreachable(net::NodeId who);

  /// Forget all group state and cancel timers — the node crashed or
  /// rebooted. The event-id sequence deliberately survives so a reincarnated
  /// node cannot mint an EventId already used before the crash.
  void reset();

  bool hearing() const { return hearing_; }
  bool is_leader() const { return leader_ == self() && current_event_.valid(); }
  net::NodeId leader() const { return leader_; }

  /// Members with fresh SENSING soft state (excluding self), for task
  /// assignment and hand-off. Walks only the fresh tail of the
  /// freshness-ordered member list, not the whole soft-state table; the
  /// result is sorted by id. A member whose busy_until lies strictly in the
  /// future is excluded (recording, radio off); busy_until == now means the
  /// task just ended and the member is eligible again.
  std::vector<std::pair<net::NodeId, MemberInfo>> fresh_members() const;

  /// Soft-state table size (fresh and stale alike), for tests.
  std::size_t member_table_size() const { return members_.size(); }

  const GroupStats& stats() const { return stats_; }

 private:
  net::NodeId self() const;
  void schedule_election(sim::Time backoff_window, net::EventId reuse,
                         bool is_handoff);
  void election_fire(net::EventId reuse, bool is_handoff);
  void become_leader(net::EventId event, std::uint32_t round,
                     sim::Time first_assign_at);
  void sensing_tick();
  void watchdog_tick();
  void resign();

  /// One member's soft state. The list is kept ordered by last_heard
  /// (oldest first): a heartbeat moves its entry to the back, so
  /// fresh_members() walks only the fresh tail and stops at the first stale
  /// entry instead of scanning the whole table.
  struct Entry {
    net::NodeId id = net::kInvalidNode;
    MemberInfo info;
  };
  Entry& touch(net::NodeId id, sim::Time now);
  void maybe_prune(sim::Time now);

  Node& node_;
  bool hearing_ = false;
  net::NodeId leader_ = net::kInvalidNode;
  net::EventId current_event_;
  sim::Time last_leader_evidence_;
  std::vector<Entry> members_;
  sim::Time next_prune_;
  sim::EventHandle election_timer_;
  sim::CoalescedTimer::Slot sensing_slot_;
  sim::CoalescedTimer::Slot watchdog_slot_;
  // Hand-off continuation carried in the RESIGN message.
  sim::Time pending_next_task_at_;
  std::uint32_t pending_next_round_ = 0;
  std::uint32_t next_event_seq_ = 0;
  sim::Time last_conflict_announce_;
  GroupStats stats_;
};

}  // namespace enviromic::core
