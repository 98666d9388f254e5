// RunQueue against RingQueue<std::uint64_t>: the run-length FIFO must hold
// exactly the sequence the plain ring would after the same calls.
#include "sim/run_queue.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "sim/ring_queue.hpp"
#include "sim/rng.hpp"

namespace e2e::sim {
namespace {

void expect_same(const RunQueue& rq, const RingQueue<std::uint64_t>& ref) {
  ASSERT_EQ(rq.size(), ref.size());
  if (ref.empty()) return;
  ASSERT_EQ(rq.front(), ref.front());
  ASSERT_EQ(rq.back(), ref.back());
}

/// Drives both queues with one seeded op sequence. Pushed values follow
/// three shapes: the successor of the back (a contiguous plan), a value
/// just below the front and a gapped jump (failover requeues of stray
/// blocks).
void differential(std::uint64_t seed, int ops) {
  Rng rng(seed);
  RunQueue rq;
  RingQueue<std::uint64_t> ref;
  std::uint64_t next = 1000;
  for (int i = 0; i < ops; ++i) {
    SCOPED_TRACE(::testing::Message() << "seed=" << seed << " op=" << i);
    const std::uint64_t shape = rng.uniform_u64(0, 3);
    const std::uint64_t op = rng.uniform_u64(0, 9);  // pushes outweigh pops
    std::uint64_t v = next;
    if (shape == 1 && !ref.empty() && ref.front() > 0)
      v = ref.front() - 1;
    else if (shape == 2)
      v = next + rng.uniform_u64(2, 40);
    else if (shape == 3 && !ref.empty())
      v = ref.back() + 1;
    if (op < 6) {
      rq.push_back(v);
      ref.push_back(v);
      next = v + 1;
    } else if (!ref.empty() && op < 8) {
      rq.pop_front();
      ref.pop_front();
    } else if (!ref.empty()) {
      rq.pop_back();
      ref.pop_back();
    }
    expect_same(rq, ref);
    if (::testing::Test::HasFatalFailure()) return;
  }
  // Drain both from alternating ends: every element must still match.
  while (!ref.empty()) {
    ASSERT_EQ(rq.front(), ref.front());
    ASSERT_EQ(rq.back(), ref.back());
    if (ref.size() % 2 == 0) {
      rq.pop_front();
      ref.pop_front();
    } else {
      rq.pop_back();
      ref.pop_back();
    }
  }
  EXPECT_EQ(rq.size(), 0u);
  EXPECT_EQ(rq.runs(), 0u);
}

TEST(RunQueue, MatchesRingQueueOnSeededOpSequences) {
  for (std::uint64_t seed = 1; seed <= 64; ++seed) {
    differential(seed, 2000);
    if (HasFatalFailure()) return;
  }
}

TEST(RunQueue, ContiguousPlanIsOneRun) {
  // The size of a 64 TiB plan in 4 MiB blocks.
  constexpr std::uint64_t kBlocks = 1u << 24;
  RunQueue q;
  for (std::uint64_t i = 0; i < kBlocks; ++i) q.push_back(i);
  EXPECT_EQ(q.size(), kBlocks);
  EXPECT_EQ(q.runs(), 1u);
  EXPECT_EQ(q.front(), 0u);
  EXPECT_EQ(q.back(), kBlocks - 1);
}

TEST(RunQueue, NonAdjacentPushesKeepTheirOrder) {
  RunQueue q;
  q.push_back(7);
  q.push_back(3);  // not the successor of 7: a new run, not a merge
  q.push_back(8);  // not the successor of 3
  EXPECT_EQ(q.runs(), 3u);
  EXPECT_EQ(q.front(), 7u);
  q.pop_front();
  EXPECT_EQ(q.front(), 3u);
  q.pop_front();
  EXPECT_EQ(q.front(), 8u);
  EXPECT_EQ(q.back(), 8u);
}

TEST(RunQueue, PopNMatchesPerIndexPops) {
  for (std::uint64_t seed = 1; seed <= 32; ++seed) {
    SCOPED_TRACE(::testing::Message() << "seed=" << seed);
    Rng rng(seed);
    RunQueue bulk, single;
    std::uint64_t next = 0;
    for (int i = 0; i < 300; ++i) {
      if (rng.uniform_u64(0, 2) != 0) {
        // Abutting, gapped and out-of-order runs.
        std::uint64_t lo = next + rng.uniform_u64(0, 2) * 7;
        if (rng.uniform_u64(0, 5) == 0) lo = rng.uniform_u64(0, next);
        const std::uint64_t hi = lo + rng.uniform_u64(1, 30);
        bulk.push_back_run(lo, hi);
        for (std::uint64_t v = lo; v < hi; ++v) single.push_back(v);
        next = std::max(next, hi);
        continue;
      }
      const bool from_back = rng.uniform_u64(0, 1) == 1;
      const std::uint64_t n = rng.uniform_u64(0, single.size());
      std::vector<std::uint64_t> want;
      for (std::uint64_t j = 0; j < n; ++j) {
        want.push_back(from_back ? single.back() : single.front());
        if (from_back)
          single.pop_back();
        else
          single.pop_front();
      }
      // Each call covers one run, in pop order; expanded in pop order it
      // is the per-index sequence.
      std::vector<std::uint64_t> got;
      std::size_t calls = 0;
      const std::size_t runs_before = bulk.runs();
      const auto collect = [&](std::uint64_t lo, std::uint64_t hi) {
        ASSERT_LT(lo, hi);
        ++calls;
        if (from_back)
          for (std::uint64_t v = hi; v-- > lo;) got.push_back(v);
        else
          for (std::uint64_t v = lo; v < hi; ++v) got.push_back(v);
      };
      if (from_back)
        bulk.pop_back_n(n, collect);
      else
        bulk.pop_front_n(n, collect);
      ASSERT_EQ(got, want);
      ASSERT_LE(calls, runs_before);
      ASSERT_LE(runs_before - bulk.runs(), calls);
      ASSERT_EQ(bulk.size(), single.size());
      ASSERT_EQ(bulk.runs(), single.runs());
      if (single.size() > 0) {
        ASSERT_EQ(bulk.front(), single.front());
        ASSERT_EQ(bulk.back(), single.back());
      }
    }
  }
}

TEST(RunQueue, PositionCountsFromTheFront) {
  RunQueue q;
  q.push_back_run(10, 20);
  q.push_back_run(5, 8);
  q.push_back_run(30, 31);
  EXPECT_EQ(q.position(10), 0u);
  EXPECT_EQ(q.position(19), 9u);
  EXPECT_EQ(q.position(6), 11u);
  EXPECT_EQ(q.position(30), 13u);
  EXPECT_EQ(q.position(8), q.size());   // between runs: absent
  EXPECT_EQ(q.position(99), q.size());
  q.pop_front_n(12, [](std::uint64_t, std::uint64_t) {});
  EXPECT_EQ(q.position(7), 0u);
  EXPECT_EQ(q.position(10), q.size());  // popped
}

TEST(RunQueue, PushBackRunMatchesPerIndexPushes) {
  for (std::uint64_t seed = 1; seed <= 32; ++seed) {
    SCOPED_TRACE(::testing::Message() << "seed=" << seed);
    Rng rng(seed);
    RunQueue bulk, single;
    std::uint64_t next = 0;
    for (int i = 0; i < 200; ++i) {
      // Abutting, gapped and empty ranges, with pops in between.
      const std::uint64_t lo = next + rng.uniform_u64(0, 2) * 5;
      const std::uint64_t hi = lo + rng.uniform_u64(0, 20);
      bulk.push_back_run(lo, hi);
      for (std::uint64_t v = lo; v < hi; ++v) single.push_back(v);
      next = hi;
      if (rng.uniform_u64(0, 3) == 0 && single.size() > 0) {
        bulk.pop_front();
        single.pop_front();
      }
      ASSERT_EQ(bulk.size(), single.size());
      ASSERT_EQ(bulk.runs(), single.runs());
    }
    while (single.size() > 0) {
      ASSERT_EQ(bulk.front(), single.front());
      ASSERT_EQ(bulk.back(), single.back());
      bulk.pop_front();
      single.pop_front();
    }
    EXPECT_EQ(bulk.size(), 0u);
  }
}

}  // namespace
}  // namespace e2e::sim
