// Synchronization primitives for simulation coroutines.
//
// All wake-ups are funnelled through the Engine (scheduled at the current
// instant) rather than resumed inline. This bounds stack depth and keeps
// resume ordering deterministic: waiters wake in FIFO order at the same
// simulated timestamp.
//
// Waiters are parked on intrusive FIFO lists whose nodes live in the
// awaiting coroutine frames (valid for exactly as long as the coroutine is
// suspended), so suspending and waking never allocates.
#pragma once

#include <coroutine>
#include <cstddef>
#include <cstdint>

#include "sim/engine.hpp"

namespace e2e::sim {

namespace detail {
inline void resume_via_engine(Engine& eng, std::coroutine_handle<> h) {
  eng.resume_at(eng.now(), h);
}

/// One parked coroutine. Lives in the awaiter object inside the suspended
/// coroutine's frame.
struct WaitNode {
  std::coroutine_handle<> handle;
  WaitNode* next = nullptr;
};

/// Intrusive FIFO of WaitNodes.
class WaitList {
 public:
  [[nodiscard]] bool empty() const noexcept { return head_ == nullptr; }
  [[nodiscard]] std::size_t size() const noexcept { return size_; }

  void push(WaitNode* n) noexcept {
    if (tail_ != nullptr)
      tail_->next = n;
    else
      head_ = n;
    tail_ = n;
    ++size_;
  }

  WaitNode* pop() noexcept {
    WaitNode* n = head_;
    head_ = n->next;
    if (head_ == nullptr) tail_ = nullptr;
    n->next = nullptr;
    --size_;
    return n;
  }

 private:
  WaitNode* head_ = nullptr;
  WaitNode* tail_ = nullptr;
  std::size_t size_ = 0;
};
}  // namespace detail

/// Suspends the awaiting coroutine for a simulated duration.
/// Usage: `co_await Delay{engine, 5 * kMicrosecond};`
struct Delay {
  Engine& engine;
  SimDuration duration;

  bool await_ready() const noexcept { return duration == 0; }
  void await_suspend(std::coroutine_handle<> h) const {
    engine.resume_at(Engine::saturating_add(engine.now(), duration), h);
  }
  void await_resume() const noexcept {}
};

/// Awaitable that completes at absolute simulated time `t` (immediately if
/// t <= now). Used to join fire-and-forget Resource::charge() bookings.
inline Delay until(Engine& eng, SimTime t) {
  return Delay{eng, t > eng.now() ? t - eng.now() : 0};
}

/// Manual-reset event. wait() suspends until set() is called; once set,
/// wait() completes immediately until reset().
class ManualEvent {
 public:
  explicit ManualEvent(Engine& eng) : eng_(eng) {}

  void set() {
    set_ = true;
    while (!waiters_.empty())
      detail::resume_via_engine(eng_, waiters_.pop()->handle);
  }
  void reset() noexcept { set_ = false; }
  [[nodiscard]] bool is_set() const noexcept { return set_; }

  auto wait() {
    struct Awaiter {
      ManualEvent& ev;
      detail::WaitNode self{};
      bool await_ready() const noexcept { return ev.set_; }
      void await_suspend(std::coroutine_handle<> h) {
        self.handle = h;
        ev.waiters_.push(&self);
      }
      void await_resume() const noexcept {}
    };
    return Awaiter{*this};
  }

 private:
  Engine& eng_;
  detail::WaitList waiters_;
  bool set_ = false;
};

/// Counting semaphore. Used throughout for credit/token flow control.
class Semaphore {
 public:
  Semaphore(Engine& eng, std::int64_t initial) : eng_(eng), count_(initial) {}

  /// Releases `n` permits, waking waiters FIFO.
  void release(std::int64_t n = 1) {
    count_ += n;
    while (count_ > 0 && !waiters_.empty()) {
      --count_;
      detail::resume_via_engine(eng_, waiters_.pop()->handle);
    }
  }

  /// Acquires one permit, suspending until available.
  auto acquire() {
    struct Awaiter {
      Semaphore& s;
      detail::WaitNode self{};
      bool await_ready() noexcept {
        if (s.count_ > 0 && s.waiters_.empty()) {
          --s.count_;
          return true;
        }
        return false;
      }
      void await_suspend(std::coroutine_handle<> h) {
        self.handle = h;
        s.waiters_.push(&self);
      }
      void await_resume() const noexcept {}
    };
    return Awaiter{*this};
  }

  [[nodiscard]] bool try_acquire() noexcept {
    if (count_ > 0 && waiters_.empty()) {
      --count_;
      return true;
    }
    return false;
  }

  [[nodiscard]] std::int64_t available() const noexcept { return count_; }
  [[nodiscard]] std::size_t waiting() const noexcept {
    return waiters_.size();
  }

 private:
  Engine& eng_;
  std::int64_t count_;
  detail::WaitList waiters_;
};

/// Join-point for a dynamic set of tasks (Go-style WaitGroup).
class WaitGroup {
 public:
  explicit WaitGroup(Engine& eng) : eng_(eng) {}

  void add(std::int64_t n = 1) noexcept { count_ += n; }
  void done(std::int64_t n = 1) {
    count_ -= n;
    if (count_ <= 0) {
      while (!waiters_.empty())
        detail::resume_via_engine(eng_, waiters_.pop()->handle);
    }
  }

  auto wait() {
    struct Awaiter {
      WaitGroup& wg;
      detail::WaitNode self{};
      bool await_ready() const noexcept { return wg.count_ <= 0; }
      void await_suspend(std::coroutine_handle<> h) {
        self.handle = h;
        wg.waiters_.push(&self);
      }
      void await_resume() const noexcept {}
    };
    return Awaiter{*this};
  }

  [[nodiscard]] std::int64_t pending() const noexcept { return count_; }

 private:
  Engine& eng_;
  std::int64_t count_ = 0;
  detail::WaitList waiters_;
};

}  // namespace e2e::sim
