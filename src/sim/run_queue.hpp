// Run-length FIFO of integer indices.
//
// Holds the same sequence a RingQueue<std::uint64_t> would after the same
// push/pop calls, but stores it as ascending [lo, hi) runs: a contiguous
// plan of N indices costs one run, not N slots. Pushing the successor of
// the back extends the back run; anything else opens a new run, so
// arbitrary orders still round-trip exactly. Bulk pops take whole runs at
// a time. Used for RFTP's per-node block plan, where a TB-scale transfer
// is a handful of runs. Values must be below UINT64_MAX.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>

#include "sim/ring_queue.hpp"

namespace e2e::sim {

class RunQueue {
 public:
  void push_back(std::uint64_t v) {
    if (!runs_.empty() && runs_.back().hi == v)
      runs_.back().hi = v + 1;
    else
      runs_.push_back(Run{v, v + 1});
    ++size_;
  }

  /// Appends lo, lo + 1, ..., hi - 1: the same queue as `hi - lo` calls to
  /// push_back, in one run.
  void push_back_run(std::uint64_t lo, std::uint64_t hi) {
    if (lo >= hi) return;
    if (!runs_.empty() && runs_.back().hi == lo)
      runs_.back().hi = hi;
    else
      runs_.push_back(Run{lo, hi});
    size_ += hi - lo;
  }

  [[nodiscard]] std::uint64_t front() const noexcept {
    return runs_.front().lo;
  }
  [[nodiscard]] std::uint64_t back() const noexcept {
    return runs_.back().hi - 1;
  }

  void pop_front() noexcept {
    Run& r = runs_.front();
    if (++r.lo == r.hi) runs_.pop_front();
    --size_;
  }
  void pop_back() noexcept {
    Run& r = runs_.back();
    if (--r.hi == r.lo) runs_.pop_back();
    --size_;
  }

  /// Pops the first `n` indices (n <= size()): the same queue as `n`
  /// calls to pop_front. Calls `f(lo, hi)` once per popped [lo, hi) run,
  /// front to back. O(runs touched).
  template <typename F>
  void pop_front_n(std::uint64_t n, F&& f) {
    size_ -= n;
    while (n > 0) {
      Run& r = runs_.front();
      const std::uint64_t take = std::min(n, r.hi - r.lo);
      f(r.lo, r.lo + take);
      r.lo += take;
      n -= take;
      if (r.lo == r.hi) runs_.pop_front();
    }
  }
  /// Pops the last `n` indices (n <= size()): the same queue as `n` calls
  /// to pop_back. Calls `f(lo, hi)` once per popped [lo, hi) run, back to
  /// front. O(runs touched).
  template <typename F>
  void pop_back_n(std::uint64_t n, F&& f) {
    size_ -= n;
    while (n > 0) {
      Run& r = runs_.back();
      const std::uint64_t take = std::min(n, r.hi - r.lo);
      f(r.hi - take, r.hi);
      r.hi -= take;
      n -= take;
      if (r.lo == r.hi) runs_.pop_back();
    }
  }

  /// Position of the first `v` from the front, or size() if absent.
  /// O(runs).
  [[nodiscard]] std::uint64_t position(std::uint64_t v) const noexcept {
    std::uint64_t pos = 0;
    for (std::size_t i = 0; i < runs_.size(); ++i) {
      const Run& r = runs_[i];
      if (r.lo <= v && v < r.hi) return pos + (v - r.lo);
      pos += r.hi - r.lo;
    }
    return size_;
  }

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  /// Stored runs: the memory footprint, not the element count.
  [[nodiscard]] std::size_t runs() const noexcept { return runs_.size(); }

 private:
  struct Run {
    std::uint64_t lo = 0;
    std::uint64_t hi = 0;  // exclusive
  };
  RingQueue<Run> runs_;
  std::size_t size_ = 0;
};

}  // namespace e2e::sim
