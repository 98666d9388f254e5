// Size-bucketed freelist allocator for coroutine frames.
//
// Protocol layers spawn short-lived Task frames per chunk (per-IO server
// tasks, per-request rpc handlers, per-block transfers); at steady state
// the same handful of frame sizes churn millions of times per simulated
// run. FramePool recycles them: a freed frame goes on a per-size freelist
// and the next allocation of that size pops it back off — no malloc, no
// lock (the pool is thread_local).
//
// Threading contract (the sharded-engine audit, see sim/cluster.hpp): the
// thread_local pools are correct only because sim::Cluster pins shard k to
// worker k % workers for the whole parallel run — a shard's coroutines
// always allocate and free on the same worker, so each thread_local pool
// is effectively a per-shard pool. One asymmetry is deliberately safe:
// frames allocated on the main thread during the single-threaded setup
// phase are freed on the owning shard's worker and simply migrate into
// that worker's freelist (blocks are plain operator-new storage with no
// thread affinity, and pools are leaky until trim()).
// If shards ever migrate between workers mid-run, these pools must move
// into the shard object; cluster_test.cpp pins the worker_of() contract.
//
// Frames above kMaxPooledBytes fall through to the global allocator.
// Under AddressSanitizer the pool is compiled out entirely so ASan keeps
// byte-exact use-after-free coverage of coroutine frames.
#pragma once

#include <cstddef>
#include <cstdint>

#if defined(__SANITIZE_ADDRESS__)
#define E2E_SIM_FRAME_POOL 0
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define E2E_SIM_FRAME_POOL 0
#else
#define E2E_SIM_FRAME_POOL 1
#endif
#else
#define E2E_SIM_FRAME_POOL 1
#endif

namespace e2e::sim::detail {

/// True when frame pooling is compiled in (false under ASan).
inline constexpr bool kFramePoolEnabled = E2E_SIM_FRAME_POOL != 0;

class FramePool {
 public:
  /// Bucket granularity and the largest frame the pool recycles. Typical
  /// in-tree frames (per-chunk protocol tasks) are a few hundred bytes;
  /// 4 KiB covers the fattest with headroom.
  static constexpr std::size_t kGranularity = 64;
  static constexpr std::size_t kMaxPooledBytes = 4096;
  static constexpr std::size_t kBuckets = kMaxPooledBytes / kGranularity;

  static void* allocate(std::size_t bytes);
  static void deallocate(void* p, std::size_t bytes) noexcept;

  struct Stats {
    std::uint64_t fresh = 0;     // served by the global allocator
    std::uint64_t reused = 0;    // served from a freelist
    std::uint64_t oversize = 0;  // larger than kMaxPooledBytes
    std::uint64_t cached = 0;    // blocks currently parked on freelists
  };
  /// Counters for this thread's pool (tests, diagnostics).
  static Stats stats() noexcept;

  /// Returns every cached block to the global allocator.
  static void trim() noexcept;
};

}  // namespace e2e::sim::detail
