// Pooled, intrusively refcounted message payloads.
//
// Protocol layers ship their headers/PDUs between hosts as type-erased
// payloads (tcp::Connection::Message, rdma::SendWr/WorkCompletion). With
// std::shared_ptr<const void> every send was a make_shared (control block +
// object) and every hand-off bumped an atomic refcount; at steady state the
// same handful of message shapes (Wire, Pdu, DataHeader, GrantMsg) churn
// hundreds of thousands of times per simulated transfer. MsgPtr replaces
// that: the refcount lives in a small header in front of the payload, the
// blocks recycle through size-bucketed thread-local freelists, and counts
// are plain (non-atomic) integers — each engine shard is single-threaded,
// pinned to one worker (sim/cluster.hpp), so a count is only ever touched
// from one thread at a time. A message that crosses shards does so as the
// sole reference inside a buffered cross-shard Delivery; the cluster's one
// window barrier orders the send, the merge (its completion step) and the
// receiving shard's next window, so it carries the hand-off, and
// the block then simply lives on in the receiving worker's freelist (the
// blocks are plain operator-new storage with no thread affinity).
//
// Ownership rule for contributors: a payload is immutable once it has been
// handed to a send path (post_send / Connection::send). To reuse a block,
// hold your own MsgPtr and check unique() — if other references exist, the
// message is still in flight and you must allocate a fresh one (make_msg is
// a freelist pop in steady state, so this is cheap).
//
// Under AddressSanitizer pooling is compiled out (each message gets its own
// heap block) so ASan keeps byte-exact use-after-free coverage of payloads;
// the refcounting semantics are identical either way.
#pragma once

#include <cstddef>
#include <cstdint>
#include <new>
#include <type_traits>
#include <utility>

#if defined(__SANITIZE_ADDRESS__)
#define E2E_MEM_MSG_POOL 0
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define E2E_MEM_MSG_POOL 0
#else
#define E2E_MEM_MSG_POOL 1
#endif
#else
#define E2E_MEM_MSG_POOL 1
#endif

namespace e2e::mem {

namespace detail {

/// True when message pooling is compiled in (false under ASan).
inline constexpr bool kMsgPoolEnabled = E2E_MEM_MSG_POOL != 0;

/// Header preceding every payload. 16 bytes keeps the payload aligned for
/// any standard type (blocks come from operator new, aligned to
/// max_align_t; 16 is a multiple of that alignment on every ABI we build).
struct MsgHeader {
  void (*destroy)(void*) noexcept = nullptr;  // payload dtor, null = trivial
  std::uint32_t refs = 0;
  std::uint32_t bucket = 0;  // freelist index, or kHeapBucket
};
static_assert(sizeof(MsgHeader) == 16);
static_assert(alignof(std::max_align_t) <= 16,
              "payload offset must satisfy max alignment");

inline void* payload_of(MsgHeader* h) noexcept { return h + 1; }

/// Thread-local size-bucketed freelists for message blocks.
class MsgPool {
 public:
  /// Bucket granularity and the largest payload the pool recycles. In-tree
  /// messages (Wire with an embedded Pdu is the fattest) are well under
  /// 512 bytes; anything larger falls through to the global allocator.
  static constexpr std::size_t kGranularity = 64;
  static constexpr std::size_t kMaxPooledBytes = 512;
  static constexpr std::size_t kBuckets = kMaxPooledBytes / kGranularity;
  static constexpr std::uint32_t kHeapBucket = 0xFFFFFFFFu;

  struct Stats {
    std::uint64_t fresh = 0;     // blocks served by the global allocator
    std::uint64_t reused = 0;    // blocks served from a freelist
    std::uint64_t oversize = 0;  // payloads larger than kMaxPooledBytes
    std::uint64_t cached = 0;    // blocks currently parked on freelists
  };

  static MsgHeader* allocate(std::size_t payload_bytes) {
    auto& pool = instance();
#if E2E_MEM_MSG_POOL
    if (payload_bytes <= kMaxPooledBytes) {
      const std::size_t bucket =
          payload_bytes == 0 ? 0 : (payload_bytes - 1) / kGranularity;
      if (FreeBlock* blk = pool.free_[bucket]) {
        pool.free_[bucket] = blk->next;
        --pool.stats_.cached;
        ++pool.stats_.reused;
        auto* h = reinterpret_cast<MsgHeader*>(blk);
        h->destroy = nullptr;
        h->refs = 1;
        h->bucket = static_cast<std::uint32_t>(bucket);
        return h;
      }
      ++pool.stats_.fresh;
      auto* h = static_cast<MsgHeader*>(
          ::operator new(sizeof(MsgHeader) + (bucket + 1) * kGranularity));
      h->destroy = nullptr;
      h->refs = 1;
      h->bucket = static_cast<std::uint32_t>(bucket);
      return h;
    }
    ++pool.stats_.oversize;
#else
    if (payload_bytes <= kMaxPooledBytes) ++pool.stats_.fresh;
    else ++pool.stats_.oversize;
#endif
    auto* h = static_cast<MsgHeader*>(
        ::operator new(sizeof(MsgHeader) + payload_bytes));
    h->destroy = nullptr;
    h->refs = 1;
    h->bucket = kHeapBucket;
    return h;
  }

  static void recycle(MsgHeader* h) noexcept {
    if (h->destroy != nullptr) h->destroy(payload_of(h));
#if E2E_MEM_MSG_POOL
    if (h->bucket != kHeapBucket) {
      auto& pool = instance();
      auto* blk = reinterpret_cast<FreeBlock*>(h);
      blk->next = pool.free_[h->bucket];
      pool.free_[h->bucket] = blk;
      ++pool.stats_.cached;
      return;
    }
#endif
    release(h);
  }

  /// Kept out of line: inlined into a MsgPtr destructor, GCC 12's
  /// -Wuse-after-free follows the path where one copy's decrement frees
  /// the header and a second copy's decrement then reads it. The shared
  /// count makes that path infeasible (only the last reference frees),
  /// but the analysis cannot see the count's value, so it warns.
  [[gnu::noinline]] static void release(MsgHeader* h) noexcept {
    ::operator delete(h);
  }

  /// Counters for this thread's pool (tests, diagnostics).
  static Stats stats() noexcept { return instance().stats_; }

  /// Returns every cached block to the global allocator (tests).
  static void trim() noexcept {
    auto& pool = instance();
    for (auto*& head : pool.free_) {
      while (head != nullptr) {
        FreeBlock* next = head->next;
        ::operator delete(head);
        head = next;
      }
    }
    pool.stats_.cached = 0;
  }

  // Deliberately no teardown work: the pool must be trivially destructible
  // so the thread_local never registers a destructor. A MsgPtr with static
  // or thread-local storage duration (e.g. a datamover's cached wire held
  // by a static rig) may release after ordinary thread_local destructors
  // have run; with a trivial pool that release still finds valid freelist
  // storage instead of a destroyed object. Blocks parked at thread exit
  // are reclaimed by the OS with the process; under ASan/LSan pooling is
  // compiled out, so leak checking never sees parked blocks. (Public so
  // the triviality static_assert below can check it.)
  ~MsgPool() = default;

 private:
  struct FreeBlock {
    FreeBlock* next = nullptr;
  };
  static_assert(sizeof(FreeBlock) <= sizeof(MsgHeader));

  static MsgPool& instance() noexcept {
    thread_local MsgPool pool;
    return pool;
  }

  FreeBlock* free_[kBuckets] = {};
  Stats stats_;
};

static_assert(std::is_trivially_destructible_v<MsgPool>,
              "late MsgPtr releases rely on the pool never being destroyed");

}  // namespace detail

/// Shared-ownership handle to a pooled, type-erased message payload.
/// Single-threaded refcounting; copying is a pointer copy plus an integer
/// increment. The last reference returns the block to its freelist.
class MsgPtr {
 public:
  constexpr MsgPtr() noexcept = default;
  constexpr MsgPtr(std::nullptr_t) noexcept {}  // NOLINT(runtime/explicit)

  MsgPtr(const MsgPtr& o) noexcept : h_(o.h_) {
    if (h_ != nullptr) ++h_->refs;
  }
  MsgPtr(MsgPtr&& o) noexcept : h_(o.h_) { o.h_ = nullptr; }
  MsgPtr& operator=(const MsgPtr& o) noexcept {
    MsgPtr tmp(o);
    swap(tmp);
    return *this;
  }
  MsgPtr& operator=(MsgPtr&& o) noexcept {
    swap(o);
    return *this;
  }
  ~MsgPtr() { reset(); }

  void reset() noexcept {
    if (h_ != nullptr && --h_->refs == 0) detail::MsgPool::recycle(h_);
    h_ = nullptr;
  }

  void swap(MsgPtr& o) noexcept { std::swap(h_, o.h_); }

  [[nodiscard]] const void* get() const noexcept {
    return h_ == nullptr ? nullptr : detail::payload_of(h_);
  }

  /// Typed view of the payload (the caller knows what it shipped).
  template <typename T>
  [[nodiscard]] const T* as() const noexcept {
    return static_cast<const T*>(get());
  }

  /// True when this is the only reference — the payload may be mutated and
  /// reused in place (see mutable_as).
  [[nodiscard]] bool unique() const noexcept {
    return h_ != nullptr && h_->refs == 1;
  }

  /// Mutable view for in-place reuse. Only valid when unique().
  template <typename T>
  [[nodiscard]] T* mutable_as() noexcept {
    return static_cast<T*>(const_cast<void*>(get()));
  }

  explicit operator bool() const noexcept { return h_ != nullptr; }
  friend bool operator==(const MsgPtr& a, const MsgPtr& b) noexcept {
    return a.h_ == b.h_;
  }
  friend bool operator==(const MsgPtr& a, std::nullptr_t) noexcept {
    return a.h_ == nullptr;
  }

 private:
  explicit MsgPtr(detail::MsgHeader* h) noexcept : h_(h) {}

  template <typename T, typename... Args>
  friend MsgPtr make_msg(Args&&... args);

  detail::MsgHeader* h_ = nullptr;
};

/// Allocates a pooled message holding a T. Steady state this is a freelist
/// pop plus T's constructor.
template <typename T, typename... Args>
MsgPtr make_msg(Args&&... args) {
  static_assert(std::is_nothrow_destructible_v<T>);
  static_assert(alignof(T) <= 16, "payloads are 16-byte aligned");
  detail::MsgHeader* h = detail::MsgPool::allocate(sizeof(T));
  if constexpr (std::is_nothrow_constructible_v<T, Args&&...>) {
    ::new (detail::payload_of(h)) T(std::forward<Args>(args)...);
  } else {
    try {
      ::new (detail::payload_of(h)) T(std::forward<Args>(args)...);
    } catch (...) {
      detail::MsgPool::recycle(h);
      throw;
    }
  }
  if constexpr (!std::is_trivially_destructible_v<T>)
    h->destroy = [](void* p) noexcept { static_cast<T*>(p)->~T(); };
  return MsgPtr(h);
}

}  // namespace e2e::mem
