// Non-shrinking FIFO ring buffer.
//
// std::deque frees its 512-byte node whenever a pop crosses a node
// boundary and reallocates it on the next push, so a steady-state queue
// oscillating around a boundary churns the allocator forever. RingQueue
// grows (doubling, power-of-two capacity) and then never gives storage
// back: a queue that has reached its high-water mark performs no further
// allocator work. Used for the hot message queues (sim::Channel, protocol
// FIFOs) and the engine's two sorted event lanes; not a general deque
// replacement.
#pragma once

#include <cstddef>
#include <memory>
#include <utility>

namespace e2e::sim {

template <typename T>
class RingQueue {
  static_assert(alignof(T) <= alignof(std::max_align_t),
                "raw char storage only guarantees fundamental alignment");

 public:
  RingQueue() = default;
  RingQueue(const RingQueue&) = delete;
  RingQueue& operator=(const RingQueue&) = delete;
  ~RingQueue() { clear(); }

  void push_back(T v) {
    if (size_ == cap_) grow();
    ::new (slot((head_ + size_) & (cap_ - 1))) T(std::move(v));
    ++size_;
  }

  [[nodiscard]] T& front() noexcept { return *slot(head_); }
  [[nodiscard]] const T& front() const noexcept { return *slot(head_); }

  void pop_front() noexcept {
    slot(head_)->~T();
    head_ = (head_ + 1) & (cap_ - 1);
    --size_;
  }

  [[nodiscard]] T& back() noexcept {
    return *slot((head_ + size_ - 1) & (cap_ - 1));
  }
  [[nodiscard]] const T& back() const noexcept {
    return *slot((head_ + size_ - 1) & (cap_ - 1));
  }

  void pop_back() noexcept {
    slot((head_ + size_ - 1) & (cap_ - 1))->~T();
    --size_;
  }

  /// Destroys all elements; capacity is retained.
  void clear() noexcept {
    while (size_ > 0) pop_front();
    head_ = 0;
  }

  /// Grows the storage to hold at least `n` elements without further
  /// allocation (capacity stays a power of two; never shrinks).
  void reserve(std::size_t n) {
    if (n <= cap_) return;
    std::size_t c = cap_ == 0 ? 16 : cap_;
    while (c < n) c *= 2;
    regrow(c);
  }

  /// The `i`-th element from the front (i < size()).
  [[nodiscard]] const T& operator[](std::size_t i) const noexcept {
    return *slot((head_ + i) & (cap_ - 1));
  }

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  [[nodiscard]] std::size_t capacity() const noexcept { return cap_; }

 private:
  T* slot(std::size_t i) const noexcept {
    return reinterpret_cast<T*>(buf_.get() + i * sizeof(T));
  }

  void grow() { regrow(cap_ == 0 ? 16 : cap_ * 2); }

  void regrow(std::size_t new_cap) {
    auto fresh = std::unique_ptr<unsigned char[]>(
        new unsigned char[new_cap * sizeof(T)]);  // NOLINT: raw storage
    for (std::size_t i = 0; i < size_; ++i) {
      T* src = slot((head_ + i) & (cap_ - 1));
      ::new (fresh.get() + i * sizeof(T)) T(std::move(*src));
      src->~T();
    }
    buf_ = std::move(fresh);
    cap_ = new_cap;
    head_ = 0;
  }

  std::unique_ptr<unsigned char[]> buf_;
  std::size_t cap_ = 0;
  std::size_t head_ = 0;
  std::size_t size_ = 0;
};

}  // namespace e2e::sim
