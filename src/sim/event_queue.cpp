#include "sim/event_queue.h"

#include <algorithm>
#include <cassert>

namespace enviromic::sim {

namespace {
/// Below this size, compaction is pointless bookkeeping.
constexpr std::size_t kCompactMinHeap = 64;
}  // namespace

void detail::recycle(EventRecord* rec) {
  EventQueue* q = rec->owner;
  if (q == nullptr) {
    delete rec;
    return;
  }
  rec->next_free = q->free_;
  q->free_ = rec;
}

EventQueue::~EventQueue() {
  for (const Entry& e : heap_) --e.rec->refs;
  for (detail::EventRecord* rec : records_) {
    if (rec->refs == 0) {
      delete rec;
    } else {
      rec->owner = nullptr;  // its last holder frees it
    }
  }
}

detail::EventRecord* EventQueue::allocate() {
  auto rec = std::make_unique<detail::EventRecord>();
  rec->owner = this;
  records_.push_back(rec.get());
  return rec.release();
}

void EventQueue::push(Time t, detail::EventRecord* rec) {
  heap_.push_back(Entry{t, seq_++, rec});
  std::push_heap(heap_.begin(), heap_.end(), Later{});
  maybe_compact();
}

void EventQueue::drop_dead() {
  while (!heap_.empty() && !heap_.front().rec->alive) {
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    detail::release(heap_.back().rec);
    heap_.pop_back();
    assert(dead_ > 0);
    --dead_;
  }
}

void EventQueue::maybe_compact() {
  if (heap_.size() < kCompactMinHeap || dead_ <= heap_.size() / 2) return;
  auto kept = heap_.begin();
  for (const Entry& e : heap_) {
    if (e.rec->alive) {
      *kept++ = e;
    } else {
      detail::release(e.rec);
    }
  }
  heap_.erase(kept, heap_.end());
  std::make_heap(heap_.begin(), heap_.end(), Later{});
  dead_ = 0;
}

bool EventQueue::pop_next(Time limit, Time* t, Popped* ev) {
  ev->reset();
  drop_dead();
  if (heap_.empty() || heap_.front().t > limit) return false;
  std::pop_heap(heap_.begin(), heap_.end(), Later{});
  const Entry e = heap_.back();
  heap_.pop_back();
  // Fired events are dead from the handle's point of view but are not
  // tombstones: the entry leaves the heap right here, and its hold on the
  // record passes to *ev.
  e.rec->alive = false;
  *t = e.t;
  ev->rec_ = e.rec;
  return true;
}

}  // namespace enviromic::sim
