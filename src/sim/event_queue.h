// The discrete-event queue at the heart of the simulator.
//
// Events are (time, sequence, callback) triples ordered by time then by
// insertion sequence, which makes execution fully deterministic for a given
// schedule. Each event lives in a record that never moves: schedule() builds
// the callable in the record's slot, and the Popped owner that pop_next()
// hands out runs it there. A record counts its holders — the heap entry, the
// popped owner, each EventHandle — with a plain integer, since the simulator
// is single-threaded. When the last holder lets go of a fired or cancelled
// record, it goes on the queue's intrusive free list, and schedule() takes
// records from there first; the list has no cap, so once it holds the run's
// peak of pending or pinned events the schedule/fire cycle allocates
// nothing. A callback may schedule while it runs: new events take other
// records, and the running one is freed only after it returns.
//
// Cancellation is O(1): `cancel()` releases the captured callback
// immediately (protocol timers capture Packets, Radio references, and
// shared state that must not linger), and the heap entry becomes a
// tombstone. Tombstones are reclaimed two ways: lazily when they reach the
// heap top, and eagerly by compaction whenever they outnumber live entries —
// so a workload that schedules and cancels many timers (CSMA back-offs,
// watchdogs) keeps the heap near its live size.
//
// Compaction never changes pop order: (time, seq) is a strict total order,
// so rebuilding the heap from the surviving entries yields the same
// execution sequence bit for bit.
//
// A handle may outlive its queue: ~EventQueue frees every record nothing
// else holds and clears the owner of the rest, whose last holder then frees
// the record itself.
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
/// One scheduled event: its callable and who still holds it.
struct EventRecord {
  SmallCallback cb;
  /// The queue whose free list takes this record back; null once that queue
  /// is gone.
  EventQueue* owner = nullptr;
  /// The next spent record while this one is on the owner's free list.
  EventRecord* next_free = nullptr;
  /// Holders: the heap entry, the popped owner, each EventHandle.
  std::uint32_t refs = 0;
  /// Scheduled, not fired, not cancelled.
  bool alive = false;
};

/// Put a record nothing holds back on its queue's free list, or free it if
/// the queue is gone.
void recycle(EventRecord* rec);

/// Drop one hold on `rec`.
inline void release(EventRecord* rec) {
  if (--rec->refs == 0) recycle(rec);
}
}  // namespace detail

/// Handle to a scheduled event, usable to cancel it. Default-constructed
/// handles are inert. Each handle holds the event's record, so a handle kept
/// after the event fired or was cancelled never reaches a later event.
class EventHandle {
 public:
  EventHandle() = default;
  EventHandle(const EventHandle& other) noexcept : rec_(other.rec_) {
    if (rec_ != nullptr) ++rec_->refs;
  }
  EventHandle(EventHandle&& other) noexcept
      : rec_(std::exchange(other.rec_, nullptr)) {}
  EventHandle& operator=(EventHandle other) noexcept {
    std::swap(rec_, other.rec_);
    return *this;
  }
  ~EventHandle() {
    if (rec_ != nullptr) detail::release(rec_);
  }

  /// Cancel the event if it has not fired yet. Idempotent. Releases the
  /// captured callback immediately; the heap slot is reclaimed lazily or at
  /// the next compaction.
  void cancel();

  /// True if the event is still scheduled (not fired, not cancelled).
  bool pending() const { return rec_ != nullptr && rec_->alive; }

 private:
  friend class EventQueue;
  /// Takes over one of the holds counted in `rec->refs`.
  explicit EventHandle(detail::EventRecord* rec) : rec_(rec) {}
  detail::EventRecord* rec_ = nullptr;
};

/// Min-heap of timed callbacks with deterministic tie-breaking.
class EventQueue {
 public:
  /// The event pop_next() took off the queue. It holds the event's record,
  /// runs the callable in place, and releases the record — captures first —
  /// when the next pop_next() reuses it or when it is destroyed. Move-only.
  class Popped {
   public:
    Popped() = default;
    Popped(Popped&& other) noexcept
        : rec_(std::exchange(other.rec_, nullptr)) {}
    Popped& operator=(Popped&& other) noexcept {
      if (this != &other) {
        reset();
        rec_ = std::exchange(other.rec_, nullptr);
      }
      return *this;
    }
    ~Popped() { reset(); }

    /// Run the popped event's callable.
    void operator()() { rec_->cb(); }

   private:
    friend class EventQueue;
    void reset() {
      if (rec_ == nullptr) return;
      rec_->cb.reset();
      detail::release(std::exchange(rec_, nullptr));
    }
    detail::EventRecord* rec_ = nullptr;
  };

  EventQueue() = default;
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;
  ~EventQueue();

  /// Schedule `f` at absolute time `t` (which must not precede the time of
  /// the last popped event). The callable is built in its record, so a
  /// schedule() call with a spent record on the free list allocates nothing.
  template <class F>
  EventHandle schedule(Time t, F&& f) {
    detail::EventRecord* rec = acquire();
    // A record off the heap holds an empty slot, so building over it ends
    // no callable.
    std::construct_at(&rec->cb, std::in_place, std::forward<F>(f));
    push(t, rec);
    return EventHandle(rec);
  }

  /// Release the event `*ev` holds, then pop the earliest live event into
  /// (*t, *ev) if one exists and its time is <= limit; false otherwise. The
  /// only way an event leaves the queue.
  bool pop_next(Time limit, Time* t, Popped* ev);

  /// Number of live (scheduled, not cancelled, not fired) events.
  std::size_t live_count() const { return heap_.size() - dead_; }

  /// Total events ever scheduled. Monotone: never decreases, counts
  /// cancelled and fired events alike (it is the insertion sequence number).
  std::uint64_t total_scheduled() const { return seq_; }

 private:
  friend class EventHandle;
  friend void detail::recycle(detail::EventRecord* rec);

  struct Entry {
    Time t;
    std::uint64_t seq;
    detail::EventRecord* rec;
  };
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.t != b.t) return a.t > b.t;
      return a.seq > b.seq;
    }
  };

  /// A live record with an empty slot, held twice: by the heap entry and by
  /// the handle schedule() returns.
  detail::EventRecord* acquire() {
    detail::EventRecord* rec = free_;
    if (rec != nullptr) {
      free_ = rec->next_free;
    } else {
      rec = allocate();
    }
    rec->refs = 2;
    rec->alive = true;
    return rec;
  }
  detail::EventRecord* allocate();
  void push(Time t, detail::EventRecord* rec);
  void drop_dead();
  /// Rebuild the heap without tombstones once they outnumber live entries.
  void maybe_compact();

  std::vector<Entry> heap_;  //!< std::push_heap/pop_heap with Later
  /// Every record this queue allocated, so ~EventQueue can free or orphan
  /// each one.
  std::vector<detail::EventRecord*> records_;
  /// Spent records, most recently released first.
  detail::EventRecord* free_ = nullptr;
  std::uint64_t seq_ = 0;
  /// Tombstones currently buried in heap_.
  std::uint64_t dead_ = 0;
};

inline void EventHandle::cancel() {
  detail::EventRecord* rec = rec_;
  if (rec != nullptr && rec->alive) {
    rec->alive = false;
    if (rec->owner != nullptr) ++rec->owner->dead_;
    rec->cb.reset();
  }
}

}  // namespace enviromic::sim
