// Generality beyond the paper's dual-socket hosts: the NUMA model on a
// quad-socket machine (4 nodes, pairwise interconnect, 4-way interleave).
#include <gtest/gtest.h>

#include <set>

#include "exp/runner.hpp"
#include "numa/numa.hpp"
#include "testutil.hpp"

namespace e2e::numa {
namespace {

model::HostProfile quad_host() {
  model::HostProfile h;
  h.name = "quad";
  h.numa_nodes = 4;
  h.cores_per_node = 4;
  h.core_ghz = 2.0;
  h.mem_gbytes = 256;
  h.mem_gBps_per_node = 20.0;
  h.interconnect_gBps = 10.0;
  h.nics = {{"nic0", model::LinkType::kRoCE, 40.0, 9000, 0, 63.0}};
  return h;
}

TEST(QuadNode, TopologyAndCoreMapping) {
  sim::Engine eng;
  Host h(eng, quad_host());
  EXPECT_EQ(h.node_count(), 4);
  EXPECT_EQ(h.core_count(), 16);
  for (int c = 0; c < 16; ++c) EXPECT_EQ(h.core(c).node, c / 4);
}

TEST(QuadNode, InterleaveSpreadsOverAllNodes) {
  sim::Engine eng;
  Host h(eng, quad_host());
  const auto p = h.alloc(4000, MemPolicy::kInterleave, kAnyNode, 0);
  ASSERT_EQ(p.extents.size(), 4u);
  for (const auto& e : p.extents) EXPECT_DOUBLE_EQ(e.fraction, 0.25);
  EXPECT_DOUBLE_EQ(p.remote_fraction(2), 0.75);
}

TEST(QuadNode, AllInterconnectDirectionsAreDistinct) {
  sim::Engine eng;
  Host h(eng, quad_host());
  std::set<sim::Resource*> seen;
  for (NodeId a = 0; a < 4; ++a)
    for (NodeId b = 0; b < 4; ++b)
      if (a != b) seen.insert(&h.interconnect(a, b));
  EXPECT_EQ(seen.size(), 12u);  // 4*3 directed pairs
}

TEST(QuadNode, RemoteCopyCrossesOnlyTheRightLink) {
  sim::Engine eng;
  Host h(eng, quad_host());
  Process p(h, "p", NumaBinding::bound(3));
  Thread& th = p.spawn_thread();
  exp::run_task(eng, test::as_task(th.copy(1 << 20, Placement::on(1),
                                           Placement::on(3),
                                           metrics::CpuCategory::kCopy)));
  EXPECT_GT(h.interconnect(1, 3).units_served(), 0.0);  // read pull
  EXPECT_EQ(h.interconnect(3, 1).units_served(), 0.0);
  EXPECT_EQ(h.interconnect(0, 3).units_served(), 0.0);
  EXPECT_EQ(h.interconnect(2, 3).units_served(), 0.0);
}

TEST(QuadNode, StreamTriadSaturatesAllChannels) {
  sim::Engine eng;
  Host h(eng, quad_host());
  StreamOptions opts;
  opts.threads_per_node = 4;
  const auto r = run_stream_triad(eng, h, opts);
  EXPECT_NEAR(r.triad_gBps, 80.0, 4.0);  // 4 x 20 GB/s
}

TEST(QuadNode, BindNodeRoundRobinsWithinEachNode) {
  sim::Engine eng;
  Host h(eng, quad_host());
  for (NodeId n = 0; n < 4; ++n) {
    std::string name = "p";
    name += std::to_string(n);
    Process p(h, name, NumaBinding::bound(n));
    for (int i = 0; i < 8; ++i) EXPECT_EQ(p.spawn_thread().node(), n);
  }
}

TEST(QuadNode, DmaFromFarNodeChargesItsChannelInflated) {
  sim::Engine eng;
  Host h(eng, quad_host());
  const auto p = Placement::on(2);
  h.charge_dma(p, 1000, /*dev_node=*/0, /*to_device=*/true);
  EXPECT_DOUBLE_EQ(h.channel(2).units_served(),
                   1000.0 * h.costs().numa_remote_channel_factor);
  EXPECT_GT(h.interconnect(2, 0).units_served(), 0.0);
}

}  // namespace
}  // namespace e2e::numa
