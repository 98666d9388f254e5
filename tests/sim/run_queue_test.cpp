// RunQueue against RingQueue<std::uint64_t>: the run-length FIFO must hold
// exactly the sequence the plain ring would after the same calls.
#include "sim/run_queue.hpp"

#include <gtest/gtest.h>

#include <cstdint>

#include "sim/ring_queue.hpp"
#include "sim/rng.hpp"

namespace e2e::sim {
namespace {

void expect_same(const RunQueue& rq, const RingQueue<std::uint64_t>& ref) {
  ASSERT_EQ(rq.size(), ref.size());
  ASSERT_EQ(rq.empty(), ref.empty());
  if (ref.empty()) return;
  ASSERT_EQ(rq.front(), ref.front());
  ASSERT_EQ(rq.back(), ref.back());
}

/// Drives both queues with one seeded op sequence. Pushed values follow
/// three shapes: the successor of the back (a contiguous plan), a value
/// just below the front (a fast-forward undo re-inserting what it
/// popped), and a gapped jump (a failover requeue of a stray block).
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
    if (op < 4) {
      rq.push_back(v);
      ref.push_back(v);
      next = v + 1;
    } else if (op < 6) {
      rq.push_front(v);
      ref.push_front(v);
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
  EXPECT_TRUE(rq.empty());
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

TEST(RunQueue, UndoRestoresTheRunLayout) {
  // Pop one index off each end, then undo in reverse order, as the
  // fast-forward replay does when a period fails verification.
  RunQueue q;
  for (std::uint64_t i = 0; i < 100; ++i) q.push_back(i);
  q.push_back(500);  // a requeued straggler opens a second run
  ASSERT_EQ(q.runs(), 2u);
  const std::uint64_t a = q.front();
  q.pop_front();
  const std::uint64_t b = q.back();
  q.pop_back();
  EXPECT_EQ(q.runs(), 1u);
  q.push_back(b);
  q.push_front(a);
  EXPECT_EQ(q.runs(), 2u);
  EXPECT_EQ(q.size(), 101u);
  EXPECT_EQ(q.front(), 0u);
  EXPECT_EQ(q.back(), 500u);
}

TEST(RunQueue, NonAdjacentPushesKeepTheirOrder) {
  RunQueue q;
  q.push_back(7);
  q.push_back(3);  // not the successor of 7: a new run, not a merge
  q.push_front(8);  // not the predecessor of 7
  EXPECT_EQ(q.runs(), 3u);
  EXPECT_EQ(q.front(), 8u);
  q.pop_front();
  EXPECT_EQ(q.front(), 7u);
  q.pop_front();
  EXPECT_EQ(q.front(), 3u);
  EXPECT_EQ(q.back(), 3u);
}

}  // namespace
}  // namespace e2e::sim
