// Type-erased callable with a generous inline buffer: the callback slot of
// an event record (sim/event_queue.h).
//
// std::function's small-buffer optimization (16 bytes in libstdc++) is too
// small for the simulator's hot callbacks — a channel delivery lambda
// captures a Packet plus timing, ~70 bytes — so every scheduled event paid a
// heap allocation at the call site. SmallCallback sizes its buffer for those
// lambdas. It is never moved: the event queue builds each callable in its
// record's slot through the one in-place constructor and runs it there, so
// scheduling and firing an event touch the capture once each, and with the
// queue's recycled records the schedule/fire cycle is allocation-free.
// Oversized or over-aligned callables fall back to the heap transparently.
#pragma once

#include <concepts>
#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace enviromic::sim {

class SmallCallback {
 public:
  SmallCallback() = default;

  /// Build `f`'s decayed type directly in this slot. noexcept: a callable
  /// that cannot be built (out of memory on the heap fallback) ends the run
  /// instead of leaving a record's slot half-constructed.
  template <class F>
    requires std::invocable<std::decay_t<F>&>
  SmallCallback(std::in_place_t, F&& f) noexcept {
    using D = std::decay_t<F>;
    if constexpr (sizeof(D) <= kInlineBytes &&
                  alignof(D) <= alignof(std::max_align_t)) {
      ::new (static_cast<void*>(buf_)) D(std::forward<F>(f));
      vt_ = &kInlineVt<D>;
    } else {
      heap_slot<D>() = new D(std::forward<F>(f));
      vt_ = &kHeapVt<D>;
    }
  }

  SmallCallback(const SmallCallback&) = delete;
  SmallCallback& operator=(const SmallCallback&) = delete;
  ~SmallCallback() { reset(); }

  void operator()() { vt_->invoke(*this); }

  /// Destroy the callable (and its captures); the slot is empty afterwards.
  void reset() noexcept {
    if (vt_ != nullptr) {
      vt_->destroy(*this);
      vt_ = nullptr;
    }
  }

 private:
  /// Sized for the channel's delivery lambda (Packet + sender + timing) with
  /// headroom for protocol timers.
  static constexpr std::size_t kInlineBytes = 104;

  struct VTable {
    void (*invoke)(SmallCallback&);
    void (*destroy)(SmallCallback&);
  };

  template <class D>
  D* inline_ptr() {
    return std::launder(reinterpret_cast<D*>(buf_));
  }
  template <class D>
  D*& heap_slot() {
    return *reinterpret_cast<D**>(buf_);
  }

  template <class D>
  static void inline_invoke(SmallCallback& s) {
    (*s.inline_ptr<D>())();
  }
  template <class D>
  static void inline_destroy(SmallCallback& s) {
    s.inline_ptr<D>()->~D();
  }
  template <class D>
  static void heap_invoke(SmallCallback& s) {
    (*s.heap_slot<D>())();
  }
  template <class D>
  static void heap_destroy(SmallCallback& s) {
    delete s.heap_slot<D>();
  }

  template <class D>
  static constexpr VTable kInlineVt{&inline_invoke<D>, &inline_destroy<D>};
  template <class D>
  static constexpr VTable kHeapVt{&heap_invoke<D>, &heap_destroy<D>};

  alignas(std::max_align_t) unsigned char buf_[kInlineBytes];
  const VTable* vt_ = nullptr;
};

}  // namespace enviromic::sim
