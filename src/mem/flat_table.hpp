// Flat, allocation-free-at-steady-state lookup structures for protocol
// rendezvous state.
//
// Protocol layers key in-flight work by dense integer tags (initiator task
// tags, work-request ids, R2T tags). std::map pays a node allocation plus
// pointer chasing per entry; these tables replace it:
//
//  * FlatMap<V>: open-addressed uint64 -> V hash table (linear probing,
//    backward-shift deletion). Erasing keeps the capacity, so steady-state
//    insert/erase churn never allocates. Iteration order is unspecified;
//    use for_each_sorted when determinism requires key order.
//  * SlotArena<T>: stable-address slot storage with free-list recycling and
//    generation counters. Values are constructed once per slot and REUSED
//    on reacquire (the caller resets state), so per-command objects that
//    own channels/events stop allocating after warm-up. Ref handles
//    (slot, generation) held by timers or late completions go stale on
//    release instead of dangling.
//  * PendingTable<T>: FlatMap index over a SlotArena — the common
//    tag -> live-object rendezvous shape.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <new>
#include <utility>
#include <vector>

namespace e2e::mem {

/// Open-addressed hash map from uint64 keys to V. V must be default
/// constructible and move assignable. Capacity is a power of two and never
/// shrinks; erase uses backward-shift deletion (no tombstones).
template <typename V>
class FlatMap {
 public:
  FlatMap() = default;

  [[nodiscard]] std::size_t size() const noexcept { return count_; }
  [[nodiscard]] bool empty() const noexcept { return count_ == 0; }

  [[nodiscard]] V* find(std::uint64_t key) noexcept {
    if (count_ == 0) return nullptr;
    std::size_t i = home(key);
    while (slots_[i].live) {
      if (slots_[i].key == key) return &slots_[i].value;
      i = (i + 1) & mask_;
    }
    return nullptr;
  }
  [[nodiscard]] const V* find(std::uint64_t key) const noexcept {
    return const_cast<FlatMap*>(this)->find(key);
  }
  [[nodiscard]] bool contains(std::uint64_t key) const noexcept {
    return find(key) != nullptr;
  }

  /// Inserts or overwrites; returns the stored value. The reference is
  /// invalidated by the next insert (growth may rehash).
  V& insert(std::uint64_t key, V value) {
    if ((count_ + 1) * 4 > capacity() * 3) grow();
    std::size_t i = home(key);
    while (slots_[i].live) {
      if (slots_[i].key == key) {
        slots_[i].value = std::move(value);
        return slots_[i].value;
      }
      i = (i + 1) & mask_;
    }
    slots_[i].key = key;
    slots_[i].value = std::move(value);
    slots_[i].live = true;
    ++count_;
    return slots_[i].value;
  }

  /// Removes `key` if present. Backward-shift deletion: subsequent probe
  /// chain entries move up so lookups never need tombstones.
  bool erase(std::uint64_t key) noexcept {
    if (count_ == 0) return false;
    std::size_t i = home(key);
    while (slots_[i].live && slots_[i].key != key) i = (i + 1) & mask_;
    if (!slots_[i].live) return false;
    std::size_t hole = i;
    std::size_t j = i;
    for (;;) {
      j = (j + 1) & mask_;
      if (!slots_[j].live) break;
      const std::size_t h = home(slots_[j].key);
      // Move j's entry into the hole unless its home lies in (hole, j]
      // cyclically (then the probe chain from h to j never crosses hole).
      const bool keep = ((j - h) & mask_) < ((j - hole) & mask_);
      if (!keep) {
        slots_[hole].key = slots_[j].key;
        slots_[hole].value = std::move(slots_[j].value);
        hole = j;
      }
    }
    slots_[hole].value = V{};
    slots_[hole].live = false;
    --count_;
    return true;
  }

  void clear() noexcept {
    for (auto& s : slots_) {
      if (s.live) s.value = V{};
      s.live = false;
    }
    count_ = 0;
  }

  /// Visits (key, value) pairs in ascending key order. Collects keys into a
  /// scratch vector — use only on cold paths that need determinism (e.g.
  /// failover drains feeding traced events).
  template <typename Fn>
  void for_each_sorted(Fn&& fn) {
    std::vector<std::uint64_t> keys;
    keys.reserve(count_);
    for (auto& s : slots_)
      if (s.live) keys.push_back(s.key);
    std::sort(keys.begin(), keys.end());
    for (const std::uint64_t k : keys) fn(k, *find(k));
  }

 private:
  struct Slot {
    std::uint64_t key = 0;
    V value{};
    bool live = false;
  };

  [[nodiscard]] std::size_t capacity() const noexcept {
    return slots_.size();
  }

  /// splitmix64 finalizer: protocol tags are sequential, so spread them.
  [[nodiscard]] static std::uint64_t mix(std::uint64_t x) noexcept {
    x += 0x9E3779B97F4A7C15ull;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
    return x ^ (x >> 31);
  }

  [[nodiscard]] std::size_t home(std::uint64_t key) const noexcept {
    return static_cast<std::size_t>(mix(key)) & mask_;
  }

  void grow() {
    const std::size_t cap = slots_.empty() ? 16 : slots_.size() * 2;
    std::vector<Slot> old = std::move(slots_);
    slots_ = std::vector<Slot>(cap);  // default-insert: V may be move-only
    mask_ = cap - 1;
    count_ = 0;
    for (auto& s : old)
      if (s.live) insert(s.key, std::move(s.value));
  }

  std::vector<Slot> slots_;
  std::size_t mask_ = 0;
  std::size_t count_ = 0;
};

/// Stable-address slot storage with generation-counted handles. Values are
/// constructed on first use of a slot and kept alive across release/acquire
/// cycles — acquire() hands back a recycled object whose state the caller
/// must reset. Release bumps the generation so stale Refs (held by timers
/// or late completions) resolve to nullptr instead of the new occupant.
template <typename T>
class SlotArena {
 public:
  struct Ref {
    std::uint32_t slot = 0;
    std::uint32_t gen = 0;  // 0 = null handle (generations start at 1)
  };

  /// Acquires a slot, constructing T(args...) only for never-used slots.
  template <typename... Args>
  Ref acquire(Args&&... args) {
    std::uint32_t idx;
    if (!free_.empty()) {
      idx = free_.back();
      free_.pop_back();
    } else {
      idx = static_cast<std::uint32_t>(slots_.size());
      slots_.emplace_back(std::forward<Args>(args)...);
    }
    Slot& s = slots_[idx];
    assert(!s.live);
    s.live = true;
    return Ref{idx, s.gen};
  }

  /// Resolves a handle; nullptr when the slot was released since.
  [[nodiscard]] T* get(Ref r) noexcept {
    if (r.gen == 0 || r.slot >= slots_.size()) return nullptr;
    Slot& s = slots_[r.slot];
    return (s.live && s.gen == r.gen) ? &s.value : nullptr;
  }

  /// The live object behind a handle (must not be stale).
  [[nodiscard]] T& at(Ref r) noexcept {
    T* p = get(r);
    assert(p != nullptr);
    return *p;
  }

  /// Releases the slot: the object stays constructed for reuse, the
  /// generation bump invalidates outstanding Refs.
  void release(Ref r) noexcept {
    T* p = get(r);
    assert(p != nullptr);
    (void)p;
    Slot& s = slots_[r.slot];
    s.live = false;
    ++s.gen;
    free_.push_back(r.slot);
  }

  [[nodiscard]] std::size_t slot_count() const noexcept {
    return slots_.size();
  }

 private:
  struct Slot {
    template <typename... Args>
    explicit Slot(Args&&... args) : value(std::forward<Args>(args)...) {}
    T value;
    std::uint32_t gen = 1;
    bool live = false;
  };

  std::deque<Slot> slots_;  // deque: stable addresses across growth
  std::vector<std::uint32_t> free_;
};

/// tag -> live object rendezvous table: a FlatMap index over a SlotArena.
/// The values have stable addresses and survive erase for reuse; Refs taken
/// via ref_of stay safe (stale after erase) for timer-style guards.
template <typename T>
class PendingTable {
 public:
  using Ref = typename SlotArena<T>::Ref;

  /// Registers `key`, reusing a recycled T when available (caller resets
  /// its state). A duplicate key is a protocol bug: debug builds assert;
  /// release builds retire the old entry (its slot recycles, outstanding
  /// Refs go stale) rather than leaking the slot and silently handing two
  /// callers the same object.
  template <typename... Args>
  T& emplace(std::uint64_t key, Args&&... args) {
    if (Ref* existing = index_.find(key); existing != nullptr) {
      assert(false && "PendingTable::emplace: duplicate key");
      arena_.release(*existing);
      index_.erase(key);
    }
    const Ref r = arena_.acquire(std::forward<Args>(args)...);
    index_.insert(key, r);
    return arena_.at(r);
  }

  [[nodiscard]] T* find(std::uint64_t key) noexcept {
    Ref* r = index_.find(key);
    return r == nullptr ? nullptr : arena_.get(*r);
  }

  /// Handle for `key` (null Ref when absent); resolves via get() until the
  /// entry is erased.
  [[nodiscard]] Ref ref_of(std::uint64_t key) noexcept {
    Ref* r = index_.find(key);
    return r == nullptr ? Ref{} : *r;
  }
  [[nodiscard]] T* get(Ref r) noexcept { return arena_.get(r); }

  /// Erases `key`, recycling its slot (stale Refs go null).
  bool erase(std::uint64_t key) noexcept {
    Ref* r = index_.find(key);
    if (r == nullptr) return false;
    arena_.release(*r);
    index_.erase(key);
    return true;
  }

  [[nodiscard]] std::size_t size() const noexcept { return index_.size(); }
  [[nodiscard]] std::size_t slot_count() const noexcept {
    return arena_.slot_count();
  }

 private:
  FlatMap<Ref> index_;
  SlotArena<T> arena_;
};

}  // namespace e2e::mem
