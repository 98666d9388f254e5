#include "rftp/rftp.hpp"

#include <gtest/gtest.h>

#include <memory>

#include "exp/runner.hpp"
#include "metrics/throughput.hpp"
#include "testutil.hpp"

namespace e2e::rftp {
namespace {

using e2e::test::TinyRig;

struct RftpRig : ::testing::Test {
  TinyRig rig;
  std::unique_ptr<rdma::Device> dev_a1;
  std::unique_ptr<rdma::Device> dev_b1;
  std::unique_ptr<net::Link> link1;

  void SetUp() override {
    dev_a1 = std::make_unique<rdma::Device>(*rig.a, rig.a->profile().nics[1]);
    dev_b1 = std::make_unique<rdma::Device>(*rig.b, rig.b->profile().nics[1]);
    link1 = net::make_roce_lan(rig.eng, "t1");
  }

  std::unique_ptr<RftpSession> make_session(RftpConfig cfg,
                                            bool two_links = false) {
    EndpointConfig s{rig.proc_a.get(), {rig.dev_a.get()}};
    EndpointConfig r{rig.proc_b.get(), {rig.dev_b.get()}};
    std::vector<net::Link*> links{rig.link.get()};
    if (two_links) {
      s.nics.push_back(dev_a1.get());
      r.nics.push_back(dev_b1.get());
      links.push_back(link1.get());
    }
    return std::make_unique<RftpSession>(s, r, links, cfg);
  }
};

TEST_F(RftpRig, TransfersExactByteCount) {
  RftpConfig cfg;
  cfg.streams = 1;
  cfg.block_bytes = 1 << 20;
  auto sess = make_session(cfg);
  ZeroSource src(10 << 20);
  NullSink dst;
  const auto r = exp::run_task(rig.eng, sess->run(src, dst, 10 << 20));
  EXPECT_EQ(r.bytes, 10u << 20);
  EXPECT_EQ(r.blocks, 10u);
  EXPECT_EQ(sess->blocks_delivered(), 10u);
  EXPECT_GT(r.goodput_gbps, 0.0);
}

TEST_F(RftpRig, PartialFinalBlock) {
  RftpConfig cfg;
  cfg.streams = 1;
  cfg.block_bytes = 1 << 20;
  auto sess = make_session(cfg);
  const std::uint64_t total = (3 << 20) + 12345;
  ZeroSource src(total);
  NullSink dst;
  const auto r = exp::run_task(rig.eng, sess->run(src, dst, total));
  EXPECT_EQ(r.bytes, total);
  EXPECT_EQ(r.blocks, 4u);
}

TEST_F(RftpRig, MeterSeesEveryByte) {
  RftpConfig cfg;
  cfg.streams = 2;
  cfg.block_bytes = 512 * 1024;
  auto sess = make_session(cfg);
  metrics::ThroughputMeter meter(rig.eng, sim::kMillisecond);
  ZeroSource src(8 << 20);
  NullSink dst;
  exp::run_task(rig.eng, sess->run(src, dst, 8 << 20, &meter));
  EXPECT_EQ(meter.total_bytes(), 8u << 20);
}

TEST_F(RftpRig, ControlMessagesMatchBlocksPlusInitialGrants) {
  RftpConfig cfg;
  cfg.streams = 1;
  cfg.credits_per_stream = 4;
  cfg.block_bytes = 1 << 20;
  auto sess = make_session(cfg);
  ZeroSource src(8 << 20);
  NullSink dst;
  exp::run_task(rig.eng, sess->run(src, dst, 8 << 20));
  rig.eng.run();
  // Every block triggers a re-grant; 4 initial grants bootstrap the flow.
  EXPECT_EQ(sess->control_messages(), 8u + 4u);
}

TEST_F(RftpRig, CreditsBoundDataInFlight) {
  // One credit: blocks are strictly serialized by the token round-trip.
  RftpConfig slow;
  slow.streams = 1;
  slow.credits_per_stream = 1;
  slow.block_bytes = 1 << 20;
  auto s1 = make_session(slow);
  ZeroSource src1(16 << 20);
  NullSink dst1;
  const auto r1 = exp::run_task(rig.eng, s1->run(src1, dst1, 16 << 20));

  TinyRig rig2;
  RftpConfig fast = slow;
  fast.credits_per_stream = 8;
  EndpointConfig s{rig2.proc_a.get(), {rig2.dev_a.get()}};
  EndpointConfig r{rig2.proc_b.get(), {rig2.dev_b.get()}};
  RftpSession sess2(s, r, {rig2.link.get()}, fast);
  ZeroSource src2(16 << 20);
  NullSink dst2;
  const auto r2 = exp::run_task(rig2.eng, sess2.run(src2, dst2, 16 << 20));
  EXPECT_GT(r2.goodput_gbps, r1.goodput_gbps * 1.5);
}

TEST_F(RftpRig, StreamsSplitAcrossLinks) {
  RftpConfig cfg;
  cfg.streams = 2;
  cfg.block_bytes = 1 << 20;
  auto sess = make_session(cfg, /*two_links=*/true);
  ZeroSource src(32 << 20);
  NullSink dst;
  exp::run_task(rig.eng, sess->run(src, dst, 32 << 20));
  // Both links carried data.
  EXPECT_GT(rig.link->dir(0).units_served(), 0.0);
  EXPECT_GT(link1->dir(0).units_served(), 0.0);
  const double ratio = rig.link->dir(0).units_served() /
                       link1->dir(0).units_served();
  EXPECT_NEAR(ratio, 1.0, 0.25);  // balanced within 25%
}

TEST_F(RftpRig, NumaAwarePinsBuffersToNicNodes) {
  RftpConfig cfg;
  cfg.streams = 2;
  cfg.numa_aware = true;
  cfg.credits_per_stream = 2;
  cfg.block_bytes = 1 << 20;
  const auto used0_before = rig.a->used_bytes(0);
  const auto used1_before = rig.a->used_bytes(1);
  auto sess = make_session(cfg, /*two_links=*/true);
  // Stream 0 uses nic0 (node 0), stream 1 uses nic1 (node 1): both nodes
  // got pool memory, none of it interleaved.
  EXPECT_GT(rig.a->used_bytes(0), used0_before);
  EXPECT_GT(rig.a->used_bytes(1), used1_before);
}

TEST_F(RftpRig, TwoLinksDoubleThroughput) {
  RftpConfig cfg;
  cfg.streams = 1;
  cfg.block_bytes = 1 << 20;
  auto s1 = make_session(cfg);
  ZeroSource src1(64 << 20);
  NullSink dst1;
  const auto r1 = exp::run_task(rig.eng, s1->run(src1, dst1, 64 << 20));

  TinyRig rigB;
  auto devA1 =
      std::make_unique<rdma::Device>(*rigB.a, rigB.a->profile().nics[1]);
  auto devB1 =
      std::make_unique<rdma::Device>(*rigB.b, rigB.b->profile().nics[1]);
  auto linkB1 = net::make_roce_lan(rigB.eng, "x");
  RftpConfig cfg2 = cfg;
  cfg2.streams = 2;
  RftpSession sess2({rigB.proc_a.get(), {rigB.dev_a.get(), devA1.get()}},
                    {rigB.proc_b.get(), {rigB.dev_b.get(), devB1.get()}},
                    {rigB.link.get(), linkB1.get()}, cfg2);
  ZeroSource src2(64 << 20);
  NullSink dst2;
  const auto r2 = exp::run_task(rigB.eng, sess2.run(src2, dst2, 64 << 20));
  EXPECT_GT(r2.goodput_gbps, 1.6 * r1.goodput_gbps);
}

TEST_F(RftpRig, WanThroughputFollowsCreditWindow) {
  // 95 ms RTT: goodput ~= streams * credits * block / RTT until line rate.
  TinyRig rigW;
  auto wan = net::make_ani_wan(rigW.eng, "wan");
  RftpConfig cfg;
  cfg.streams = 1;
  cfg.credits_per_stream = 4;
  cfg.block_bytes = 4 << 20;
  RftpSession sess({rigW.proc_a.get(), {rigW.dev_a.get()}},
                   {rigW.proc_b.get(), {rigW.dev_b.get()}},
                   {wan.get()}, cfg);
  MemorySource src(1 << 30, numa::Placement::on(0));
  MemorySink dst;
  const auto r = exp::run_task(rigW.eng, sess.run(src, dst, 1 << 30));
  const double window_gbps =
      4.0 * (4 << 20) * 8.0 / (0.095 * 1e9);  // ~1.41 Gbps
  EXPECT_NEAR(r.goodput_gbps, window_gbps, window_gbps * 0.25);
}

TEST_F(RftpRig, RejectsBadConfig) {
  RftpConfig cfg;
  cfg.streams = 0;
  EXPECT_THROW(make_session(cfg), std::invalid_argument);
  RftpConfig cfg2;
  cfg2.credits_per_stream = 0;
  EXPECT_THROW(make_session(cfg2), std::invalid_argument);
  EndpointConfig empty{};
  EXPECT_THROW(RftpSession(empty, empty, {rig.link.get()}, RftpConfig{}),
               std::invalid_argument);
}

TEST_F(RftpRig, RunningTwiceConcurrentlyThrows) {
  RftpConfig cfg;
  cfg.streams = 1;
  auto sess = make_session(cfg);
  ZeroSource src(1 << 30);
  NullSink dst;
  sim::co_spawn([](RftpSession& s, ZeroSource& sc, NullSink& dc)
                    -> sim::Task<> {
    (void)co_await s.run(sc, dc, 1 << 30);
  }(*sess, src, dst));
  ZeroSource src2(1 << 20);
  EXPECT_THROW(exp::run_task(rig.eng, sess->run(src2, dst, 1 << 20)),
               std::logic_error);
}

TEST_F(RftpRig, RetransmitsAfterInjectedWireFaults) {
  RftpConfig cfg;
  cfg.streams = 1;
  cfg.block_bytes = 1 << 20;
  auto sess = make_session(cfg);
  // Corrupt five data messages.
  const auto loss =
      test::lose_next(rig.eng, *rig.link, net::Direction::kAtoB, 5);
  metrics::ThroughputMeter meter(rig.eng, sim::kMillisecond);
  ZeroSource src(20 << 20);
  NullSink dst;
  const auto r = exp::run_task(rig.eng, sess->run(src, dst, 20 << 20, &meter));
  // The transfer completed exactly despite the faults...
  EXPECT_EQ(r.bytes, 20u << 20);
  EXPECT_EQ(meter.total_bytes(), 20u << 20);
  EXPECT_EQ(sess->blocks_delivered(), 20u);
  // ...by retransmitting the corrupted blocks.
  EXPECT_EQ(sess->retransmissions, 5u);
}

TEST_F(RftpRig, FailedWireCompletionRetransmitsExactlyOnceAndIsTraced) {
  trace::Tracer tracer(rig.eng);
  tracer.install();
  RftpConfig cfg;
  cfg.streams = 1;
  cfg.block_bytes = 1 << 20;
  auto sess = make_session(cfg);
  const auto loss =
      test::lose_next(rig.eng, *rig.link, net::Direction::kAtoB, 1);
  ZeroSource src(8 << 20);
  NullSink dst;
  const auto r = exp::run_task(rig.eng, sess->run(src, dst, 8 << 20));
  EXPECT_EQ(r.bytes, 8u << 20);
  EXPECT_TRUE(r.complete);
  EXPECT_TRUE(r.integrity_ok);
  // The corrupted block went out exactly twice: one failure, one retry.
  EXPECT_EQ(sess->retransmissions, 1u);
  EXPECT_EQ(tracer.counter_value("rftp/retransmissions"), 1u);
}

TEST_F(RftpRig, FaultFreeRunsHaveNoRetransmissions) {
  RftpConfig cfg;
  cfg.streams = 2;
  auto sess = make_session(cfg);
  ZeroSource src(16 << 20);
  NullSink dst;
  exp::run_task(rig.eng, sess->run(src, dst, 16 << 20));
  EXPECT_EQ(sess->retransmissions, 0u);
}

TEST_F(RftpRig, SurvivesFaultBursts) {
  RftpConfig cfg;
  cfg.streams = 1;
  cfg.block_bytes = 512 << 10;
  cfg.credits_per_stream = 4;
  auto sess = make_session(cfg);
  const auto loss =
      test::lose_next(rig.eng, *rig.link, net::Direction::kAtoB, 20);
  ZeroSource src(30 << 20);
  NullSink dst;
  const auto r = exp::run_task(rig.eng, sess->run(src, dst, 30 << 20));
  EXPECT_EQ(r.bytes, 30u << 20);
  EXPECT_GE(sess->retransmissions, 20u);
}

TEST_F(RftpRig, AttachRoutesPlanFaultsAndHoldsFastForward) {
  RftpConfig cfg;
  cfg.streams = 3;
  cfg.block_bytes = 4 << 20;
  auto sess = make_session(cfg);
  // qp=4 names stream 4 % 3 = 1.
  const auto plan =
      fault::FaultPlan::parse("qpkill@20ms:qp=4;crash@60ms:host=1,down=10ms");
  fault::FaultInjector inj(rig.eng, plan);
  inj.attach(*rig.link);
  sess->attach(inj);
  EXPECT_EQ(sess->config().ff_quiet_after,
            plan.quiet_after(20 * rig.link->rtt() + 100 * sim::kMillisecond));
  inj.arm();
  ZeroSource src(512 << 20);
  NullSink dst;
  const auto r = exp::run_task(rig.eng, sess->run(src, dst, 512 << 20));
  EXPECT_TRUE(r.complete);
  EXPECT_TRUE(r.integrity_ok);
  EXPECT_EQ(r.bytes, 512u << 20);
  EXPECT_EQ(sess->failovers, 1u);
  EXPECT_EQ(r.resumes, 1u);
  EXPECT_EQ(inj.skipped_events(), 0u);  // both events had a handler
}

class BlockSizeSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BlockSizeSweep, ByteConservationAcrossBlockSizes) {
  TinyRig rig;
  RftpConfig cfg;
  cfg.streams = 2;
  cfg.block_bytes = GetParam();
  cfg.credits_per_stream = 4;
  RftpSession sess({rig.proc_a.get(), {rig.dev_a.get()}},
                   {rig.proc_b.get(), {rig.dev_b.get()}},
                   {rig.link.get()}, cfg);
  metrics::ThroughputMeter meter(rig.eng, sim::kMillisecond);
  const std::uint64_t total = (23ull << 20) + 17;  // awkward size
  ZeroSource src(total);
  NullSink dst;
  const auto r = exp::run_task(rig.eng, sess.run(src, dst, total, &meter));
  EXPECT_EQ(r.bytes, total);
  EXPECT_EQ(meter.total_bytes(), total);
  EXPECT_EQ(r.blocks, (total + cfg.block_bytes - 1) / cfg.block_bytes);
}

INSTANTIATE_TEST_SUITE_P(Blocks, BlockSizeSweep,
                         ::testing::Values(64ull << 10, 256ull << 10,
                                           1ull << 20, 4ull << 20,
                                           16ull << 20));

class StreamSweep : public ::testing::TestWithParam<int> {};

TEST_P(StreamSweep, AllStreamConfigsDeliverEverything) {
  TinyRig rig;
  RftpConfig cfg;
  cfg.streams = GetParam();
  cfg.block_bytes = 1 << 20;
  RftpSession sess({rig.proc_a.get(), {rig.dev_a.get()}},
                   {rig.proc_b.get(), {rig.dev_b.get()}},
                   {rig.link.get()}, cfg);
  ZeroSource src(40 << 20);
  NullSink dst;
  const auto r = exp::run_task(rig.eng, sess.run(src, dst, 40 << 20));
  EXPECT_EQ(r.bytes, 40u << 20);
  EXPECT_EQ(sess.blocks_delivered(), 40u);
}

INSTANTIATE_TEST_SUITE_P(Streams, StreamSweep, ::testing::Values(1, 2, 3, 4, 8));

}  // namespace
}  // namespace e2e::rftp
