#include "blk/page_cache.hpp"

#include <gtest/gtest.h>

#include "exp/runner.hpp"
#include "testutil.hpp"

namespace e2e::blk {
namespace {

struct CacheRig : ::testing::Test {
  sim::Engine eng;
  numa::Host host{eng, e2e::test::tiny_host("h")};
};

TEST_F(CacheRig, InsertTracksResidency) {
  PageCache pc(host, 1 << 20, 1 << 20);
  int f1 = 0, f2 = 0;
  EXPECT_EQ(pc.insert(&f1, 1000), 0u);
  EXPECT_EQ(pc.insert(&f2, 2000), 0u);
  EXPECT_EQ(pc.total_resident(), 3000u);
  EXPECT_EQ(pc.state(&f1).resident, 1000u);
}

TEST_F(CacheRig, EvictsWhenOverCapacity) {
  PageCache pc(host, 10'000, 1 << 20);
  int f1 = 0, f2 = 0;
  pc.insert(&f1, 8000);
  const auto evicted = pc.insert(&f2, 5000);
  EXPECT_EQ(evicted, 3000u);
  EXPECT_EQ(pc.total_resident(), 10'000u);
}

TEST_F(CacheRig, DirtyPagesAreNotEvicted) {
  PageCache pc(host, 10'000, 1 << 20);
  int f1 = 0;
  pc.insert(&f1, 8000);
  exp::run_task(eng, pc.mark_dirty(&f1, 8000));
  int f2 = 0;
  pc.insert(&f2, 6000);
  // Only f2's own clean pages could be evicted; f1 stays fully resident.
  EXPECT_EQ(pc.state(&f1).resident, 8000u);
}

TEST_F(CacheRig, MarkDirtyThrottlesAtLimit) {
  PageCache pc(host, 1 << 20, 4096);
  int f = 0;
  exp::run_task(eng, pc.mark_dirty(&f, 4096));
  bool second_done = false;
  sim::co_spawn([](PageCache& cache, int* file, bool* done) -> sim::Task<> {
    co_await cache.mark_dirty(file, 4096);
    *done = true;
  }(pc, &f, &second_done));
  eng.run();
  EXPECT_FALSE(second_done);  // throttled: over the dirty limit
  pc.complete_writeback(&f, 4096);
  eng.run();
  EXPECT_TRUE(second_done);
}

TEST_F(CacheRig, CompleteWritebackClampsToDirty) {
  PageCache pc(host, 1 << 20, 1 << 20);
  int f = 0;
  exp::run_task(eng, pc.mark_dirty(&f, 1000));
  pc.complete_writeback(&f, 5000);  // over-complete is clamped
  EXPECT_EQ(pc.total_dirty(), 0u);
  EXPECT_EQ(pc.state(&f).dirty, 0u);
}

TEST_F(CacheRig, PagePlacementIsThreadLocalNode) {
  PageCache pc(host, 1 << 20, 1 << 20);
  numa::Process p(host, "k", numa::NumaBinding::bound(1));
  numa::Thread& th = p.spawn_thread();
  const auto& placement = pc.page_placement(th);
  EXPECT_EQ(placement.extents[0].node, 1);
}

TEST_F(CacheRig, PagePlacementHasStableIdentity) {
  // Buffered I/O resolves the kernel-page placement once per operation; it
  // must be the host's canonical per-node placement, not a fresh Placement
  // per call — fresh placements mint a new cost-plan identity on every
  // booking, growing threads' plan caches without bound (one CostPlan per
  // I/O) and never hitting the cache.
  PageCache pc(host, 1 << 20, 1 << 20);
  numa::Process p(host, "k", numa::NumaBinding::bound(0));
  numa::Thread& th = p.spawn_thread();
  const numa::Placement& a = pc.page_placement(th);
  const numa::Placement& b = pc.page_placement(th);
  EXPECT_EQ(&a, &b) << "placement must be a stable host-owned object";
  EXPECT_EQ(&a, &host.node_placement(th.node()));
  EXPECT_EQ(a.plan_key_value(), b.plan_key_value())
      << "repeated buffered I/O must reuse one plan-cache key";
}

}  // namespace
}  // namespace e2e::blk
