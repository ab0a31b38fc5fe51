#include <gtest/gtest.h>

#include <array>
#include <memory>
#include <vector>

#include "sim/event_queue.h"

namespace enviromic::sim {
namespace {

/// Pop and run every live event, in order, through pop_next.
void drain(EventQueue& q) {
  Time t;
  EventQueue::Popped ev;
  while (q.pop_next(Time::max(), &t, &ev)) ev();
}

/// Pop the earliest live event, which must exist, and run it.
void fire_next(EventQueue& q) {
  Time t;
  EventQueue::Popped ev;
  ASSERT_TRUE(q.pop_next(Time::max(), &t, &ev));
  ev();
}

TEST(EventQueue, EmptyInitially) {
  EventQueue q;
  Time t;
  EventQueue::Popped ev;
  EXPECT_FALSE(q.pop_next(Time::max(), &t, &ev));
  EXPECT_EQ(q.live_count(), 0u);
}

TEST(EventQueue, PopsInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule(Time::millis(30), [&] { order.push_back(3); });
  q.schedule(Time::millis(10), [&] { order.push_back(1); });
  q.schedule(Time::millis(20), [&] { order.push_back(2); });
  drain(q);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, TieBreaksByInsertionOrder) {
  EventQueue q;
  std::vector<int> order;
  const Time t = Time::millis(5);
  for (int i = 0; i < 10; ++i) {
    q.schedule(t, [&order, i] { order.push_back(i); });
  }
  drain(q);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(EventQueue, PopReturnsTime) {
  EventQueue q;
  q.schedule(Time::millis(42), [] {});
  Time t;
  EventQueue::Popped ev;
  ASSERT_TRUE(q.pop_next(Time::max(), &t, &ev));
  EXPECT_EQ(t, Time::millis(42));
  EXPECT_EQ(q.live_count(), 0u);
}

TEST(EventQueue, CancelPreventsExecution) {
  EventQueue q;
  bool fired = false;
  auto h = q.schedule(Time::millis(1), [&] { fired = true; });
  EXPECT_TRUE(h.pending());
  h.cancel();
  EXPECT_FALSE(h.pending());
  EXPECT_EQ(q.live_count(), 0u);
  EXPECT_FALSE(fired);
}

TEST(EventQueue, CancelIsIdempotent) {
  EventQueue q;
  auto h = q.schedule(Time::millis(1), [] {});
  h.cancel();
  h.cancel();
  EXPECT_EQ(q.live_count(), 0u);
}

TEST(EventQueue, DefaultHandleIsInert) {
  EventHandle h;
  EXPECT_FALSE(h.pending());
  h.cancel();  // no crash
}

TEST(EventQueue, CancelMiddleEventOnly) {
  EventQueue q;
  std::vector<int> order;
  q.schedule(Time::millis(1), [&] { order.push_back(1); });
  auto h = q.schedule(Time::millis(2), [&] { order.push_back(2); });
  q.schedule(Time::millis(3), [&] { order.push_back(3); });
  h.cancel();
  drain(q);
  EXPECT_EQ(order, (std::vector<int>{1, 3}));
}

TEST(EventQueue, HandleNotPendingAfterPop) {
  EventQueue q;
  auto h = q.schedule(Time::millis(1), [] {});
  fire_next(q);
  EXPECT_FALSE(h.pending());
}

TEST(EventQueue, NextTimeSkipsCancelled) {
  EventQueue q;
  auto h = q.schedule(Time::millis(1), [] {});
  q.schedule(Time::millis(7), [] {});
  h.cancel();
  Time t;
  EventQueue::Popped ev;
  EXPECT_FALSE(q.pop_next(Time::millis(6), &t, &ev));
  ASSERT_TRUE(q.pop_next(Time::max(), &t, &ev));
  EXPECT_EQ(t, Time::millis(7));
}

TEST(EventQueue, TotalScheduledCounts) {
  EventQueue q;
  for (int i = 0; i < 5; ++i) q.schedule(Time::millis(i), [] {});
  EXPECT_EQ(q.total_scheduled(), 5u);
}

TEST(EventQueue, CancelReleasesCallbackEagerly) {
  // Cancelled timers must not pin their captures (Packets, Radio refs)
  // until they bubble to the heap top: cancel() drops the callback at once.
  EventQueue q;
  auto resource = std::make_shared<int>(7);
  EXPECT_EQ(resource.use_count(), 1);
  auto h = q.schedule(Time::millis(1), [resource] { (void)*resource; });
  EXPECT_EQ(resource.use_count(), 2);
  h.cancel();
  EXPECT_EQ(resource.use_count(), 1);
}

TEST(EventQueue, PopReleasesCallbackCaptures) {
  EventQueue q;
  auto resource = std::make_shared<int>(7);
  q.schedule(Time::millis(1), [resource] { (void)*resource; });
  {
    Time t;
    EventQueue::Popped ev;
    ASSERT_TRUE(q.pop_next(Time::max(), &t, &ev));
    ev();
    EXPECT_EQ(resource.use_count(), 2);  // held by the popped callback only
  }
  EXPECT_EQ(resource.use_count(), 1);
}

TEST(EventQueue, LiveCountExcludesTombstones) {
  EventQueue q;
  std::vector<EventHandle> handles;
  for (int i = 0; i < 10; ++i) {
    handles.push_back(q.schedule(Time::millis(i), [] {}));
  }
  EXPECT_EQ(q.live_count(), 10u);
  for (int i = 0; i < 4; ++i) handles[static_cast<size_t>(2 * i)].cancel();
  // Tombstones may still sit in the heap, but the live count skips them.
  EXPECT_EQ(q.live_count(), 6u);
  fire_next(q);
  EXPECT_EQ(q.live_count(), 5u);
}

TEST(EventQueue, CompactionPreservesPopOrder) {
  // Cancel far more than half of a large schedule so compaction triggers,
  // then verify the survivors still fire in exact (time, seq) order.
  EventQueue q;
  std::vector<EventHandle> handles;
  std::vector<int> fired;
  for (int i = 0; i < 500; ++i) {
    handles.push_back(q.schedule(Time::millis(i), [&fired, i] { fired.push_back(i); }));
  }
  for (int i = 0; i < 500; ++i) {
    if (i % 5 != 0) handles[static_cast<size_t>(i)].cancel();
  }
  EXPECT_EQ(q.live_count(), 100u);
  // Churn after the cancellations so maybe_compact() runs on a dirty heap.
  for (int i = 0; i < 50; ++i) {
    auto h = q.schedule(Time::millis(1000 + i), [] {});
    h.cancel();
  }
  drain(q);
  ASSERT_EQ(fired.size(), 100u);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(fired[static_cast<size_t>(i)], 5 * i);
  EXPECT_EQ(q.live_count(), 0u);
}

TEST(EventQueue, CancelAfterQueueDestructionIsSafe) {
  EventHandle h;
  {
    EventQueue q;
    h = q.schedule(Time::millis(1), [] {});
  }
  EXPECT_TRUE(h.pending());  // the queue died, but the record survives
  h.cancel();                // must not touch freed queue state
  EXPECT_FALSE(h.pending());
}

TEST(EventQueue, TotalScheduledIsMonotone) {
  EventQueue q;
  for (int i = 0; i < 5; ++i) q.schedule(Time::millis(i), [] {});
  EXPECT_EQ(q.total_scheduled(), 5u);
  auto h = q.schedule(Time::millis(9), [] {});
  h.cancel();
  // Cancellation and popping never decrease the lifetime counter.
  fire_next(q);
  EXPECT_EQ(q.total_scheduled(), 6u);
}

TEST(EventQueue, CopiedMovedAndReassignedHandlesAgree) {
  EventQueue q;
  EventHandle a = q.schedule(Time::millis(1), [] {});
  q.schedule(Time::millis(2), [] {});
  EventHandle copy = a;
  EventHandle moved = std::move(copy);
  EventHandle assigned;
  assigned = moved;
  EventHandle reassigned = q.schedule(Time::millis(3), [] {});
  reassigned = assigned;  // drops its hold on the third event, not the event
  for (const EventHandle* h : {&a, &moved, &assigned, &reassigned}) {
    EXPECT_TRUE(h->pending());
  }
  EXPECT_EQ(q.live_count(), 3u);
  reassigned.cancel();
  EXPECT_EQ(q.live_count(), 2u);
  for (const EventHandle* h : {&a, &moved, &assigned, &reassigned}) {
    EXPECT_FALSE(h->pending());
  }
  a.cancel();
  moved.cancel();
  EXPECT_EQ(q.live_count(), 2u);
}

TEST(EventQueue, KeptHandleNeverCancelsALaterEvent) {
  // A spent record is reused by later events only once no handle pins it,
  // so a stale handle's cancel() never reaches an event scheduled after its
  // own fired or was cancelled.
  EventQueue q;
  int later = 0;
  EventHandle fired = q.schedule(Time::millis(1), [] {});
  fire_next(q);
  EventHandle next = q.schedule(Time::millis(2), [&later] { ++later; });
  fired.cancel();
  EXPECT_TRUE(next.pending());
  EXPECT_EQ(q.live_count(), 1u);

  EventHandle cancelled = q.schedule(Time::millis(3), [] {});
  cancelled.cancel();
  fire_next(q);  // fires `next` at 2 ms
  q.schedule(Time::millis(4), [] {});
  fire_next(q);  // drops the 3 ms tombstone on its way to 4 ms
  next = q.schedule(Time::millis(5), [&later] { ++later; });
  cancelled.cancel();
  fired.cancel();
  EXPECT_TRUE(next.pending());
  EXPECT_EQ(q.live_count(), 1u);
  drain(q);
  EXPECT_EQ(later, 2);
}

TEST(EventQueue, CallbackReschedulesThroughItsOwnHandle) {
  // CoalescedTimer::refresh's pattern: the firing callback cancels its own
  // (already popped) event through the handle it was scheduled with, then
  // re-schedules through the same handle while it is still running.
  EventQueue q;
  EventHandle self;
  std::vector<int> order;
  self = q.schedule(Time::millis(1), [&] {
    order.push_back(1);
    EXPECT_FALSE(self.pending());
    self.cancel();
    self = q.schedule(Time::millis(2), [&order] { order.push_back(2); });
    order.push_back(3);  // the running callable survives the reassignment
  });
  drain(q);
  EXPECT_EQ(order, (std::vector<int>{1, 3, 2}));
  EXPECT_FALSE(self.pending());
  EXPECT_EQ(q.live_count(), 0u);
}

TEST(EventQueue, CallbackCancelsAPendingSibling) {
  EventQueue q;
  bool sibling_fired = false;
  EventHandle sibling =
      q.schedule(Time::millis(5), [&] { sibling_fired = true; });
  q.schedule(Time::millis(1), [&] {
    sibling.cancel();
    EXPECT_EQ(q.live_count(), 0u);
  });
  drain(q);
  EXPECT_FALSE(sibling_fired);
  EXPECT_FALSE(sibling.pending());
  EXPECT_EQ(q.live_count(), 0u);
}

TEST(EventQueue, HeapFallbackCaptureDestroyedOnce) {
  // A capture larger than SmallCallback's inline buffer lives on the heap;
  // firing and cancelling each destroy it exactly once.
  EventQueue q;
  auto resource = std::make_shared<int>(7);
  std::array<char, 256> pad{};
  auto big = [resource, pad] { (void)*resource, (void)pad; };
  static_assert(sizeof(big) > 104);

  q.schedule(Time::millis(1), big);
  EXPECT_EQ(resource.use_count(), 3);  // `big` and the scheduled copy
  {
    Time t;
    EventQueue::Popped ev;
    ASSERT_TRUE(q.pop_next(Time::max(), &t, &ev));
    ev();
    EXPECT_EQ(resource.use_count(), 3);
  }
  EXPECT_EQ(resource.use_count(), 2);

  EventHandle h = q.schedule(Time::millis(2), big);
  EXPECT_EQ(resource.use_count(), 3);
  h.cancel();
  EXPECT_EQ(resource.use_count(), 2);
  h.cancel();
  drain(q);
  EXPECT_EQ(resource.use_count(), 2);
}

TEST(EventQueue, ManyEventsStressOrdering) {
  EventQueue q;
  // Deterministic pseudo-random times; verify monotone pop order.
  std::uint64_t x = 12345;
  for (int i = 0; i < 2000; ++i) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    q.schedule(Time::ticks(static_cast<std::int64_t>(x % 1000000)), [] {});
  }
  Time prev = Time::zero();
  Time t;
  EventQueue::Popped ev;
  while (q.pop_next(Time::max(), &t, &ev)) {
    EXPECT_GE(t, prev);
    prev = t;
  }
}

}  // namespace
}  // namespace enviromic::sim
