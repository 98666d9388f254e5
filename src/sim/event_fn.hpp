// Small-buffer-optimized event callback for the simulation engine.
//
// EventFn replaces std::function<void()> on the engine's hot path. Every
// in-tree event capture must fit in the inline buffer — enforced with a
// static_assert at the construction site, so adding an oversized capture
// fails the build instead of silently heap-allocating. schedule_at()
// therefore never touches the allocator, no matter what it is handed.
//
// Only real closures take an EventFn: coroutine wakeups (Delay,
// Resource::acquire, the sync primitives) go through Engine::resume_at and
// never build one.
//
// Contributor rule: keep event captures at or below kInlineBytes (a handful
// of pointers / integers / one shared_ptr payload). If a capture outgrows
// the buffer, move the bulky state behind a pointer the event borrows or
// owns, or widen kInlineBytes deliberately (it is part of the closure
// footprint: every entry of the engine's slot pool carries this many
// bytes, though the 24-byte keys the event stores sift do not).
#pragma once

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace e2e::sim {

class EventFn {
 public:
  /// Inline capture capacity. Sized for the largest in-tree capture (an
  /// rdma::Delivery plus a pointer); the static_assert below keeps it
  /// honest.
  static constexpr std::size_t kInlineBytes = 64;
  static constexpr std::size_t kInlineAlign = alignof(std::max_align_t);

  EventFn() noexcept = default;

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, EventFn>>>
  EventFn(F&& f) {  // NOLINT(google-explicit-constructor): drop-in for
                    // std::function at every schedule site
    using Fn = std::decay_t<F>;
    static_assert(sizeof(Fn) <= kInlineBytes,
                  "event capture exceeds EventFn inline storage; shrink the "
                  "capture (see event_fn.hpp header comment)");
    static_assert(alignof(Fn) <= kInlineAlign,
                  "event capture over-aligned for EventFn inline storage");
    static_assert(std::is_nothrow_move_constructible_v<Fn>,
                  "event captures must be nothrow-move-constructible (the "
                  "engine's slot pool relocates them)");
    ::new (static_cast<void*>(storage_)) Fn(std::forward<F>(f));
    ops_ = &OpsFor<Fn>::kOps;
  }

  EventFn(EventFn&& o) noexcept { move_from(o); }
  EventFn& operator=(EventFn&& o) noexcept {
    if (this != &o) {
      reset();
      move_from(o);
    }
    return *this;
  }
  EventFn(const EventFn&) = delete;
  EventFn& operator=(const EventFn&) = delete;
  ~EventFn() { reset(); }

  explicit operator bool() const noexcept { return ops_ != nullptr; }

  void operator()() { ops_->invoke(storage_); }

 private:
  struct Ops {
    void (*invoke)(void*);
    // Move-constructs into dst from src and destroys src, in one call so
    // each move (into and out of a slot, slot-pool growth) pays a single
    // indirect call.
    void (*relocate)(void* dst, void* src) noexcept;
    void (*destroy)(void*) noexcept;
  };

  template <typename Fn>
  struct OpsFor {
    static void invoke(void* p) { (*static_cast<Fn*>(p))(); }
    static void relocate(void* dst, void* src) noexcept {
      Fn* s = static_cast<Fn*>(src);
      ::new (dst) Fn(std::move(*s));
      s->~Fn();
    }
    static void destroy(void* p) noexcept { static_cast<Fn*>(p)->~Fn(); }
    static constexpr Ops kOps{&invoke, &relocate, &destroy};
  };

  void move_from(EventFn& o) noexcept {
    ops_ = o.ops_;
    if (ops_ != nullptr) {
      ops_->relocate(storage_, o.storage_);
      o.ops_ = nullptr;
    }
  }
  void reset() noexcept {
    if (ops_ != nullptr) {
      ops_->destroy(storage_);
      ops_ = nullptr;
    }
  }

  alignas(kInlineAlign) unsigned char storage_[kInlineBytes];
  const Ops* ops_ = nullptr;
};

}  // namespace e2e::sim
