#include "sim/event_queue.h"

#include <algorithm>
#include <cassert>

namespace enviromic::sim {

namespace {
/// Below this size, compaction is pointless bookkeeping.
constexpr std::size_t kCompactMinHeap = 64;
/// Free-pool cap; beyond this, spent records go back to the allocator.
constexpr std::size_t kPoolMax = 4096;
}  // namespace

void EventQueue::recycle(std::shared_ptr<detail::EventRecord>&& rec) {
  if (rec.use_count() == 1 && pool_.size() < kPoolMax) {
    rec->cb = nullptr;
    pool_.push_back(std::move(rec));
  }
}

EventHandle EventQueue::schedule(Time t, Callback cb) {
  std::shared_ptr<detail::EventRecord> rec;
  if (!pool_.empty()) {
    rec = std::move(pool_.back());
    pool_.pop_back();
    rec->alive = true;
  } else {
    rec = std::make_shared<detail::EventRecord>();
    rec->dead_counter = dead_;
  }
  rec->cb = std::move(cb);
  heap_.push_back(Entry{t, seq_++, rec});
  std::push_heap(heap_.begin(), heap_.end(), Later{});
  maybe_compact();
  return EventHandle(std::move(rec));
}

void EventQueue::drop_dead() {
  while (!heap_.empty() && !heap_.front().rec->alive) {
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    recycle(std::move(heap_.back().rec));
    heap_.pop_back();
    assert(*dead_ > 0);
    --*dead_;
  }
}

void EventQueue::maybe_compact() {
  if (heap_.size() < kCompactMinHeap || *dead_ <= heap_.size() / 2) return;
  std::erase_if(heap_, [](const Entry& e) { return !e.rec->alive; });
  std::make_heap(heap_.begin(), heap_.end(), Later{});
  *dead_ = 0;
}

bool EventQueue::pop_next(Time limit, Time* t, Callback* cb) {
  drop_dead();
  if (heap_.empty() || heap_.front().t > limit) return false;
  std::pop_heap(heap_.begin(), heap_.end(), Later{});
  Entry e = std::move(heap_.back());
  heap_.pop_back();
  // Fired events are dead from the handle's point of view but are not
  // tombstones: the entry leaves the heap right here.
  e.rec->alive = false;
  *t = e.t;
  *cb = std::move(e.rec->cb);
  e.rec->cb = nullptr;  // release captures even when a handle pins the record
  recycle(std::move(e.rec));
  return true;
}

}  // namespace enviromic::sim
