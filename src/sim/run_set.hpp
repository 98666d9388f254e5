// Run-length set of integer indices.
//
// Holds the same membership a per-index flag array would, but stores it
// as ascending, disjoint, non-adjacent [lo, hi) runs: a contiguous range
// of N indices costs one run, not N bytes. Inserting at or past the end
// of the back run is O(1), so in-order fills cost what a flag store
// does; anything else binary-searches and may split or merge a run.
// Used for RFTP's drained-block set and durable ledger, where a TB-scale
// transfer's state is a few runs bounded by the blocks in flight. Values
// must be below UINT64_MAX.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace e2e::sim {

class RunSet {
 public:
  struct Run {
    std::uint64_t lo = 0;
    std::uint64_t hi = 0;  // exclusive
    bool operator==(const Run&) const = default;
  };

  /// Adds `v`; returns false if it was already present.
  bool insert(std::uint64_t v) {
    if (runs_.empty() || v > runs_.back().hi) {
      runs_.push_back(Run{v, v + 1});
    } else if (v == runs_.back().hi) {
      runs_.back().hi = v + 1;
    } else {
      const auto it = first_ending_at_or_after(v);  // never end()
      if (it->lo <= v && v < it->hi) return false;
      if (it->hi == v) {
        it->hi = v + 1;
        const auto next = it + 1;
        if (next != runs_.end() && next->lo == v + 1) {
          it->hi = next->hi;
          runs_.erase(next);
        }
      } else if (it->lo == v + 1) {
        it->lo = v;  // the previous run ends below v, so no merge
      } else {
        runs_.insert(it, Run{v, v + 1});
      }
    }
    ++size_;
    return true;
  }

  /// Removes `v`; returns false if it was absent.
  bool erase(std::uint64_t v) {
    const auto it = first_ending_at_or_after(v + 1);  // it->hi > v
    if (it == runs_.end() || it->lo > v) return false;
    if (it->lo == v) {
      if (++it->lo == it->hi) runs_.erase(it);
    } else if (it->hi == v + 1) {
      --it->hi;
    } else {
      const Run right{v + 1, it->hi};
      it->hi = v;
      runs_.insert(it + 1, right);
    }
    --size_;
    return true;
  }

  [[nodiscard]] bool contains(std::uint64_t v) const {
    const auto it = std::upper_bound(
        runs_.begin(), runs_.end(), v,
        [](std::uint64_t x, const Run& r) { return x < r.hi; });
    return it != runs_.end() && it->lo <= v;
  }

  /// Drops every index; run storage capacity is retained.
  void clear() noexcept {
    runs_.clear();
    size_ = 0;
  }

  /// Element count.
  [[nodiscard]] std::uint64_t size() const noexcept { return size_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  /// Stored runs: the memory footprint, not the element count.
  [[nodiscard]] std::size_t runs() const noexcept { return runs_.size(); }

  /// Runs in ascending order.
  [[nodiscard]] auto begin() const noexcept { return runs_.begin(); }
  [[nodiscard]] auto end() const noexcept { return runs_.end(); }

  /// Calls `f(lo, hi)` for each maximal run of `*this` minus `other`, in
  /// ascending order. O(runs of both sets).
  template <typename F>
  void for_each_difference(const RunSet& other, F&& f) const {
    auto j = other.runs_.begin();
    const auto j_end = other.runs_.end();
    for (const Run& r : runs_) {
      std::uint64_t lo = r.lo;
      while (lo < r.hi) {
        while (j != j_end && j->hi <= lo) ++j;
        if (j == j_end || j->lo >= r.hi) {
          f(lo, r.hi);
          break;
        }
        if (j->lo > lo) f(lo, j->lo);
        lo = j->hi;
      }
    }
  }

 private:
  /// First run whose (exclusive) end is >= v.
  std::vector<Run>::iterator first_ending_at_or_after(std::uint64_t v) {
    return std::lower_bound(
        runs_.begin(), runs_.end(), v,
        [](const Run& r, std::uint64_t x) { return r.hi < x; });
  }

  std::vector<Run> runs_;
  std::uint64_t size_ = 0;
};

}  // namespace e2e::sim
