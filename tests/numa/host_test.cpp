#include "numa/host.hpp"

#include <gtest/gtest.h>

#include "testutil.hpp"

namespace e2e::numa {
namespace {

TEST(Host, TopologyFromProfile) {
  sim::Engine eng;
  Host h(eng, test::tiny_host("h"));
  EXPECT_EQ(h.node_count(), 2);
  EXPECT_EQ(h.core_count(), 4);
  EXPECT_EQ(h.core(0).node, 0);
  EXPECT_EQ(h.core(1).node, 0);
  EXPECT_EQ(h.core(2).node, 1);
  EXPECT_EQ(h.core(3).node, 1);
}

TEST(Host, CoreRateMatchesGhz) {
  sim::Engine eng;
  Host h(eng, test::tiny_host("h"));
  EXPECT_DOUBLE_EQ(h.core(0).cycles->rate_per_second(), 2e9);
}

TEST(Host, ChannelRateMatchesProfile) {
  sim::Engine eng;
  Host h(eng, test::tiny_host("h"));
  EXPECT_DOUBLE_EQ(h.channel(0).rate_per_second(), 10e9);
  EXPECT_DOUBLE_EQ(h.channel(1).rate_per_second(), 10e9);
}

TEST(Host, InterconnectIsPerDirection) {
  sim::Engine eng;
  Host h(eng, test::tiny_host("h"));
  EXPECT_NE(&h.interconnect(0, 1), &h.interconnect(1, 0));
  EXPECT_DOUBLE_EQ(h.interconnect(0, 1).rate_per_second(), 5e9);
  EXPECT_THROW((void)h.interconnect(0, 0), std::invalid_argument);
}

TEST(Host, AllocBindPolicy) {
  sim::Engine eng;
  Host h(eng, test::tiny_host("h"));
  auto p = h.alloc(1000, MemPolicy::kBind, 1, 0);
  ASSERT_EQ(p.extents.size(), 1u);
  EXPECT_EQ(p.extents[0].node, 1);
  EXPECT_EQ(h.used_bytes(1), 1000u);
  EXPECT_EQ(h.used_bytes(0), 0u);
}

TEST(Host, AllocFirstTouchFollowsToucher) {
  sim::Engine eng;
  Host h(eng, test::tiny_host("h"));
  auto p = h.alloc(1000, MemPolicy::kFirstTouch, kAnyNode, 1);
  EXPECT_EQ(p.extents[0].node, 1);
}

TEST(Host, AllocInterleaveSplitsEvenly) {
  sim::Engine eng;
  Host h(eng, test::tiny_host("h"));
  auto p = h.alloc(1000, MemPolicy::kInterleave, kAnyNode, 0);
  ASSERT_EQ(p.extents.size(), 2u);
  EXPECT_TRUE(p.valid());
  EXPECT_EQ(h.used_bytes(0), 500u);
  EXPECT_EQ(h.used_bytes(1), 500u);
}

TEST(Host, PickCoreOsDefaultRoundRobinsAllCores) {
  sim::Engine eng;
  Host h(eng, test::tiny_host("h"));
  EXPECT_EQ(h.pick_core(SchedPolicy::kOsDefault, 1), 0);
  EXPECT_EQ(h.pick_core(SchedPolicy::kOsDefault, 1), 1);
  EXPECT_EQ(h.pick_core(SchedPolicy::kOsDefault, 1), 2);
  EXPECT_EQ(h.pick_core(SchedPolicy::kOsDefault, 1), 3);
  EXPECT_EQ(h.pick_core(SchedPolicy::kOsDefault, 1), 0);
}

TEST(Host, PickCoreBindNodeStaysOnNode) {
  sim::Engine eng;
  Host h(eng, test::tiny_host("h"));
  for (int i = 0; i < 6; ++i) {
    const CoreId c = h.pick_core(SchedPolicy::kBindNode, 1);
    EXPECT_EQ(h.core(c).node, 1);
  }
}

TEST(Host, DmaChargesLocalChannelOnly) {
  sim::Engine eng;
  Host h(eng, test::tiny_host("h"));
  const auto p = Placement::on(0);
  h.charge_dma(p, 1000, /*dev_node=*/0, /*to_device=*/true);
  EXPECT_GT(h.channel(0).busy_until(), 0u);
  EXPECT_EQ(h.interconnect(0, 1).busy_until(), 0u);
  EXPECT_EQ(h.interconnect(1, 0).busy_until(), 0u);
}

TEST(Host, DmaRemoteCrossesInterconnectWithInflation) {
  sim::Engine eng;
  Host h(eng, test::tiny_host("h"));
  const auto p = Placement::on(1);  // memory on node 1, device on node 0
  h.charge_dma(p, 1000, 0, /*to_device=*/true);
  // Channel of node 1 serves inflated remote traffic.
  const double factor = h.costs().numa_remote_channel_factor;
  EXPECT_EQ(h.channel(1).busy_until(),
            h.channel(1).service_time(1000 * factor));
  // Reads toward the device cross node1 -> node0.
  EXPECT_GT(h.interconnect(1, 0).busy_until(), 0u);
  EXPECT_EQ(h.interconnect(0, 1).busy_until(), 0u);
}

TEST(Host, DmaFromDeviceWritesCrossOppositeDirection) {
  sim::Engine eng;
  Host h(eng, test::tiny_host("h"));
  const auto p = Placement::on(1);
  h.charge_dma(p, 1000, 0, /*to_device=*/false);
  EXPECT_GT(h.interconnect(0, 1).busy_until(), 0u);
  EXPECT_EQ(h.interconnect(1, 0).busy_until(), 0u);
}

TEST(Host, StreamPeakMatchesProfile) {
  sim::Engine eng;
  Host h(eng, test::tiny_host("h"));
  EXPECT_NEAR(h.stream_peak_gbps(), 160.0, 1e-9);  // 2 x 10 GB/s
}

TEST(Placement, RemoteFraction) {
  auto p = Placement::interleaved(2);
  EXPECT_DOUBLE_EQ(p.remote_fraction(0), 0.5);
  auto q = Placement::on(1);
  EXPECT_DOUBLE_EQ(q.remote_fraction(1), 0.0);
  EXPECT_DOUBLE_EQ(q.remote_fraction(0), 1.0);
}

TEST(Placement, Validity) {
  EXPECT_TRUE(Placement::on(0).valid());
  EXPECT_TRUE(Placement::interleaved(3).valid());
  Placement bad{{{0, 0.4}}, {}};
  EXPECT_FALSE(bad.valid());
  Placement empty;
  EXPECT_FALSE(empty.valid());
}

TEST(Host, RejectsZeroNodes) {
  sim::Engine eng;
  auto prof = test::tiny_host("h");
  prof.numa_nodes = 0;
  EXPECT_THROW(Host(eng, prof), std::invalid_argument);
}

TEST(Host, FastForwardFoldsPerCoreUsage) {
  constexpr std::uint64_t kK = 100'003;
  sim::Engine eng;
  Host ff(eng, test::tiny_host("ff"));
  Host exact(eng, test::tiny_host("exact"));
  const auto period = [](Host& h) {
    h.core(0).usage.add(metrics::CpuCategory::kCopy, 700);
    h.core(3).usage.add(metrics::CpuCategory::kUserProto, 11);
  };
  EXPECT_FALSE(ff.ff_repeats());
  ff.ff_mark();
  for (int i = 0; i < 2; ++i) {
    period(ff);
    ff.ff_mark();
  }
  ASSERT_TRUE(ff.ff_repeats());
  ff.ff_advance(kK);
  for (std::uint64_t i = 0; i < 2 + kK; ++i) period(exact);
  for (int c = 0; c < ff.core_count(); ++c)
    for (std::size_t cat = 0; cat < metrics::kCpuCategoryCount; ++cat) {
      const auto k = static_cast<metrics::CpuCategory>(cat);
      EXPECT_EQ(ff.core(c).usage.get(k), exact.core(c).usage.get(k))
          << "core " << c << " " << metrics::to_string(k);
    }

  period(ff);
  ff.core(1).usage.add(metrics::CpuCategory::kOther, 1);  // off the period
  ff.ff_mark();
  EXPECT_FALSE(ff.ff_repeats());
}

}  // namespace
}  // namespace e2e::numa
