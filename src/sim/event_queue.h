// The discrete-event queue at the heart of the simulator.
//
// Events are (time, sequence, callback) triples ordered by time then by
// insertion sequence, which makes execution fully deterministic for a given
// schedule. Cancellation is O(1) via a shared control block: `cancel()`
// releases the captured callback immediately (protocol timers capture
// Packets, Radio references, and shared_ptrs that must not linger), and the
// heap entry becomes a tombstone. Tombstones are reclaimed two ways: lazily
// when they reach the heap top, and eagerly by compaction whenever they
// outnumber live entries — so a workload that schedules and cancels many
// timers (CSMA back-offs, watchdogs) keeps the heap near its live size.
//
// Compaction never changes pop order: (time, seq) is a strict total order,
// so rebuilding the heap from the surviving entries yields the same
// execution sequence bit for bit.
#pragma once

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "sim/callback.h"
#include "sim/time.h"

namespace enviromic::sim {

class EventQueue;

namespace detail {
/// Shared state between a scheduled heap entry and its handle. The callback
/// lives here so that cancel() can release it without touching the heap.
struct EventRecord {
  SmallCallback cb;
  bool alive = true;
  /// Tombstone counter of the owning queue, shared so a handle outliving the
  /// queue can still cancel safely.
  std::shared_ptr<std::uint64_t> dead_counter;
};
}  // namespace detail

/// Handle to a scheduled event, usable to cancel it. Default-constructed
/// handles are inert. Handles are cheap to copy (shared_ptr to the record).
class EventHandle {
 public:
  EventHandle() = default;

  /// Cancel the event if it has not fired yet. Idempotent. Releases the
  /// captured callback immediately; the heap slot is reclaimed lazily or at
  /// the next compaction.
  void cancel() {
    if (rec_ && rec_->alive) {
      rec_->alive = false;
      rec_->cb = nullptr;
      if (rec_->dead_counter) ++*rec_->dead_counter;
    }
  }

  /// True if the event is still scheduled (not fired, not cancelled).
  bool pending() const { return rec_ && rec_->alive; }

 private:
  friend class EventQueue;
  explicit EventHandle(std::shared_ptr<detail::EventRecord> rec)
      : rec_(std::move(rec)) {}
  std::shared_ptr<detail::EventRecord> rec_;
};

/// Min-heap of timed callbacks with deterministic tie-breaking.
class EventQueue {
 public:
  /// Inline-storage move-only callable; see sim/callback.h. Converting from
  /// a lambda constructs it in place, so a schedule() call with a warm
  /// record pool performs no allocation.
  using Callback = SmallCallback;

  /// Schedule `cb` at absolute time `t` (which must not precede the time of
  /// the last popped event).
  EventHandle schedule(Time t, Callback cb);

  /// Pop the earliest live event into (*t, *cb) if one exists and its time
  /// is <= limit; false otherwise. The only way an event leaves the queue.
  bool pop_next(Time limit, Time* t, Callback* cb);

  /// Number of live (scheduled, not cancelled, not fired) events.
  std::size_t live_count() const { return heap_.size() - *dead_; }

  /// Total events ever scheduled. Monotone: never decreases, counts
  /// cancelled and fired events alike (it is the insertion sequence number).
  std::uint64_t total_scheduled() const { return seq_; }

 private:
  struct Entry {
    Time t;
    std::uint64_t seq;
    std::shared_ptr<detail::EventRecord> rec;
  };
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.t != b.t) return a.t > b.t;
      return a.seq > b.seq;
    }
  };

  void drop_dead();
  /// Rebuild the heap without tombstones once they outnumber live entries.
  void maybe_compact();
  /// Return a spent record to the free pool if no handle still refers to it.
  void recycle(std::shared_ptr<detail::EventRecord>&& rec);

  std::vector<Entry> heap_;  //!< std::push_heap/pop_heap with Later
  /// Free list of spent control blocks. Scheduling is allocation-free while
  /// the pool is warm, which the event-rate of a busy channel rewards;
  /// records whose handles are still alive (use_count > 1) are never pooled.
  std::vector<std::shared_ptr<detail::EventRecord>> pool_;
  std::uint64_t seq_ = 0;
  /// Tombstones currently buried in heap_. Shared with every EventRecord so
  /// EventHandle::cancel can bump it without a back-pointer to the queue.
  std::shared_ptr<std::uint64_t> dead_ = std::make_shared<std::uint64_t>(0);
};

}  // namespace enviromic::sim
