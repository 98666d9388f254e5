// Coroutine task type for simulation actors.
//
// Task<T> is a lazy coroutine: the body does not start until the task is
// either co_awaited by another task or detached onto the engine with
// co_spawn(). Protocol logic throughout the library is written as Tasks that
// await simulated time, resources, and channels.
//
// Lifetime rules:
//  * An awaited Task is owned by the Task object; the frame is destroyed
//    when the Task object goes out of scope (after completion).
//  * A spawned (detached) Task owns itself; the frame self-destroys at
//    final suspend. An exception escaping a detached task terminates the
//    program (mirroring an escaped exception on a real thread).
#pragma once

#include <coroutine>
#include <cstdio>
#include <exception>
#include <utility>

#include "sim/frame_pool.hpp"

namespace e2e::sim {

template <typename T>
class Task;

namespace detail {

// Always suspends; await_suspend hands control onward (symmetric
// transfer) or frees a detached frame.
struct FinalAwaiter : std::suspend_always {
  template <typename Promise>
  std::coroutine_handle<> await_suspend(
      std::coroutine_handle<Promise> h) noexcept {
    auto& p = h.promise();
    if (p.detached) {
      if (p.exception) {
        std::fputs("e2e::sim: exception escaped a detached Task\n", stderr);
        // Rethrow inside this noexcept frame: terminate() fires with the
        // exception active, so the runtime prints its type and what().
        std::rethrow_exception(p.exception);
      }
      h.destroy();
      return std::noop_coroutine();
    }
    return p.continuation ? p.continuation : std::noop_coroutine();
  }
};

struct PromiseBase {
  std::coroutine_handle<> continuation{};
  std::exception_ptr exception{};
  bool detached = false;

  std::suspend_always initial_suspend() noexcept { return {}; }
  FinalAwaiter final_suspend() noexcept { return {}; }
  void unhandled_exception() noexcept { exception = std::current_exception(); }

#if E2E_SIM_FRAME_POOL
  // Coroutine frames route through the size-bucketed freelist: per-chunk
  // tasks recycle their frames instead of hitting malloc. With only the
  // sized delete declared, the coroutine machinery passes the frame size.
  static void* operator new(std::size_t n) { return FramePool::allocate(n); }
  static void operator delete(void* p, std::size_t n) noexcept {
    FramePool::deallocate(p, n);
  }
#endif
};

template <typename T>
struct Promise : PromiseBase {
  T value{};
  Task<T> get_return_object() noexcept;
  void return_value(T v) noexcept(std::is_nothrow_move_assignable_v<T>) {
    value = std::move(v);
  }
};

template <>
struct Promise<void> : PromiseBase {
  Task<void> get_return_object() noexcept;
  void return_void() noexcept {}
};

}  // namespace detail

template <typename T = void>
class [[nodiscard]] Task {
 public:
  using promise_type = detail::Promise<T>;
  using handle_type = std::coroutine_handle<promise_type>;

  Task() noexcept = default;
  explicit Task(handle_type h) noexcept : handle_(h) {}
  Task(Task&& o) noexcept : handle_(std::exchange(o.handle_, nullptr)) {}
  Task& operator=(Task&& o) noexcept {
    if (this != &o) {
      destroy();
      handle_ = std::exchange(o.handle_, nullptr);
    }
    return *this;
  }
  Task(const Task&) = delete;
  Task& operator=(const Task&) = delete;
  ~Task() { destroy(); }

  [[nodiscard]] bool valid() const noexcept { return handle_ != nullptr; }
  [[nodiscard]] bool done() const noexcept { return handle_ && handle_.done(); }

  /// Awaiting a Task starts it (symmetric transfer) and resumes the awaiter
  /// when the task completes, propagating exceptions and the return value.
  auto operator co_await() && noexcept {
    struct Awaiter {
      handle_type h;
      bool await_ready() const noexcept { return !h || h.done(); }
      std::coroutine_handle<> await_suspend(
          std::coroutine_handle<> cont) noexcept {
        h.promise().continuation = cont;
        return h;
      }
      T await_resume() {
        if (h.promise().exception)
          std::rethrow_exception(h.promise().exception);
        if constexpr (!std::is_void_v<T>) return std::move(h.promise().value);
      }
    };
    return Awaiter{handle_};
  }

  /// Detaches the task: the frame becomes self-owning and starts running
  /// immediately (until its first suspension point). Used by co_spawn().
  void detach_and_start() {
    handle_type h = std::exchange(handle_, nullptr);
    h.promise().detached = true;
    h.resume();
  }

 private:
  void destroy() {
    if (handle_) {
      handle_.destroy();
      handle_ = nullptr;
    }
  }
  handle_type handle_ = nullptr;
};

namespace detail {
template <typename T>
Task<T> Promise<T>::get_return_object() noexcept {
  return Task<T>{std::coroutine_handle<Promise<T>>::from_promise(*this)};
}
inline Task<void> Promise<void>::get_return_object() noexcept {
  return Task<void>{std::coroutine_handle<Promise<void>>::from_promise(*this)};
}
}  // namespace detail

/// Launches `t` as an independent actor. The task starts synchronously and
/// runs until its first suspension point; thereafter the simulation engine
/// drives it. The frame frees itself on completion.
inline void co_spawn(Task<void> t) { t.detach_and_start(); }

}  // namespace e2e::sim
