// Run-length FIFO of integer indices.
//
// Holds the same sequence a RingQueue<std::uint64_t> would after the same
// push/pop calls, but stores it as ascending [lo, hi) runs: a contiguous
// plan of N indices costs one run, not N slots. Pushing the successor of
// the back (or the predecessor of the front) extends the end run; anything
// else opens a new run, so arbitrary orders still round-trip exactly. Used for RFTP's per-node block plan, where a TB-scale transfer
// is a handful of runs. Values must be below UINT64_MAX.
#pragma once

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

  /// Re-inserts at the head (undo of a pop_front).
  void push_front(std::uint64_t v) {
    if (!runs_.empty() && runs_.front().lo == v + 1)
      runs_.front().lo = v;
    else
      runs_.push_front(Run{v, v + 1});
    ++size_;
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

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
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
