#include "rdma/rdma.hpp"

#include <gtest/gtest.h>

#include <memory>

#include "exp/runner.hpp"
#include "metrics/throughput.hpp"
#include "testutil.hpp"

namespace e2e::rdma {
namespace {

using e2e::test::TinyRig;
using e2e::test::make_buffer;

struct QpRig : ::testing::Test {
  TinyRig rig;
  std::unique_ptr<ConnectedPair> pair;
  numa::Thread* tha = nullptr;
  numa::Thread* thb = nullptr;

  void SetUp() override {
    pair = std::make_unique<ConnectedPair>(*rig.dev_a, *rig.dev_b, *rig.link);
    tha = &rig.proc_a->spawn_thread();
    thb = &rig.proc_b->spawn_thread();
  }
};

sim::Task<> send_one(QueuePair& qp, numa::Thread& th, mem::Buffer* buf,
                     std::uint64_t bytes, std::uint32_t imm,
                     mem::MsgPtr payload = nullptr) {
  SendWr wr;
  wr.op = Opcode::kSend;
  wr.wr_id = 1;
  wr.local = buf;
  wr.bytes = bytes;
  wr.imm = imm;
  wr.payload = std::move(payload);
  co_await qp.post_send(th, wr);
}

TEST_F(QpRig, SendConsumesPostedReceive) {
  auto sbuf = make_buffer(*rig.a, 4096, 0);
  auto rbuf = make_buffer(*rig.b, 4096, 0);
  exp::run_task(rig.eng,
                pair->b().post_recv(*thb, RecvWr{77, &rbuf}));
  exp::run_task(rig.eng, send_one(pair->a(), *tha, &sbuf, 4096, 5));
  rig.eng.run();
  auto wc = pair->b().recv_cq().try_poll();
  ASSERT_TRUE(wc.has_value());
  EXPECT_EQ(wc->wr_id, 77u);
  EXPECT_EQ(wc->byte_len, 4096u);
  EXPECT_EQ(wc->imm, 5u);
  EXPECT_EQ(wc->op, Opcode::kSend);
}

TEST_F(QpRig, SendWithoutReceiveWaitsUntilPosted) {
  auto sbuf = make_buffer(*rig.a, 4096, 0);
  auto rbuf = make_buffer(*rig.b, 4096, 0);
  exp::run_task(rig.eng, send_one(pair->a(), *tha, &sbuf, 4096, 0));
  rig.eng.run();
  EXPECT_FALSE(pair->b().recv_cq().try_poll().has_value());  // RNR
  exp::run_task(rig.eng, pair->b().post_recv(*thb, RecvWr{1, &rbuf}));
  rig.eng.run();
  EXPECT_TRUE(pair->b().recv_cq().try_poll().has_value());
}

TEST_F(QpRig, PayloadTravelsToReceiver) {
  auto sbuf = make_buffer(*rig.a, 256, 0);
  auto rbuf = make_buffer(*rig.b, 256, 0);
  exp::run_task(rig.eng, pair->b().post_recv(*thb, RecvWr{1, &rbuf}));
  exp::run_task(rig.eng, send_one(pair->a(), *tha, &sbuf, 64, 0,
                                  mem::make_msg<int>(42)));
  rig.eng.run();
  auto wc = pair->b().recv_cq().try_poll();
  ASSERT_TRUE(wc.has_value());
  ASSERT_NE(wc->as<int>(), nullptr);
  EXPECT_EQ(*wc->as<int>(), 42);
}

TEST_F(QpRig, WriteIsSilentAtResponder) {
  auto sbuf = make_buffer(*rig.a, 1 << 20, 0);
  auto target = make_buffer(*rig.b, 1 << 20, 0);
  SendWr wr;
  wr.op = Opcode::kWrite;
  wr.wr_id = 9;
  wr.local = &sbuf;
  wr.bytes = 1 << 20;
  wr.remote = RemoteKey{&target};
  exp::run_task(rig.eng, pair->a().post_send(*tha, wr));
  rig.eng.run();
  // Local send completion, no remote CQE.
  auto swc = pair->a().send_cq().try_poll();
  ASSERT_TRUE(swc.has_value());
  EXPECT_EQ(swc->wr_id, 9u);
  EXPECT_FALSE(pair->b().recv_cq().try_poll().has_value());
  EXPECT_EQ(pair->b().bytes_delivered(), 1u << 20);
}

TEST_F(QpRig, WriteImmConsumesReceiveAndSignals) {
  auto sbuf = make_buffer(*rig.a, 4096, 0);
  auto target = make_buffer(*rig.b, 4096, 0);
  auto tiny = make_buffer(*rig.b, 64, 0);
  exp::run_task(rig.eng, pair->b().post_recv(*thb, RecvWr{3, &tiny}));
  SendWr wr;
  wr.op = Opcode::kWriteImm;
  wr.local = &sbuf;
  wr.bytes = 4096;
  wr.remote = RemoteKey{&target};
  wr.imm = 123;
  exp::run_task(rig.eng, pair->a().post_send(*tha, wr));
  rig.eng.run();
  auto wc = pair->b().recv_cq().try_poll();
  ASSERT_TRUE(wc.has_value());
  EXPECT_EQ(wc->op, Opcode::kWriteImm);
  EXPECT_EQ(wc->imm, 123u);
  EXPECT_EQ(wc->wr_id, 3u);
}

TEST_F(QpRig, ReadPullsRemoteDataWithoutRemoteCpu) {
  auto local = make_buffer(*rig.a, 1 << 20, 0);
  auto remote = make_buffer(*rig.b, 1 << 20, 0);
  const auto b_usage_before = rig.b->total_usage().total();
  SendWr wr;
  wr.op = Opcode::kRead;
  wr.wr_id = 4;
  wr.local = &local;
  wr.bytes = 1 << 20;
  wr.remote = RemoteKey{&remote};
  exp::run_task(rig.eng, pair->a().post_send(*tha, wr));
  rig.eng.run();
  auto wc = pair->a().send_cq().try_poll();
  ASSERT_TRUE(wc.has_value());
  EXPECT_EQ(wc->op, Opcode::kRead);
  EXPECT_EQ(wc->byte_len, 1u << 20);
  EXPECT_EQ(rig.b->total_usage().total(), b_usage_before);  // zero CPU
}

TEST_F(QpRig, UnregisteredBufferIsRejected) {
  mem::Buffer raw;
  raw.bytes = 4096;
  raw.placement = numa::Placement::on(0);
  SendWr wr;
  wr.op = Opcode::kSend;
  wr.local = &raw;
  wr.bytes = 4096;
  EXPECT_THROW(exp::run_task(rig.eng, pair->a().post_send(*tha, wr)),
               std::logic_error);
}

TEST_F(QpRig, OneSidedWithoutRemoteKeyIsRejected) {
  auto sbuf = make_buffer(*rig.a, 4096, 0);
  SendWr wr;
  wr.op = Opcode::kWrite;
  wr.local = &sbuf;
  wr.bytes = 4096;
  EXPECT_THROW(exp::run_task(rig.eng, pair->a().post_send(*tha, wr)),
               std::invalid_argument);
}

TEST_F(QpRig, SendsCompleteInOrder) {
  auto sbuf = make_buffer(*rig.a, 1 << 20, 0);
  auto target = make_buffer(*rig.b, 1 << 20, 0);
  for (std::uint64_t i = 1; i <= 5; ++i) {
    SendWr wr;
    wr.op = Opcode::kWrite;
    wr.wr_id = i;
    wr.local = &sbuf;
    wr.bytes = 1 << 20;
    wr.remote = RemoteKey{&target};
    exp::run_task(rig.eng, pair->a().post_send(*tha, wr));
  }
  rig.eng.run();
  for (std::uint64_t i = 1; i <= 5; ++i) {
    auto wc = pair->a().send_cq().try_poll();
    ASSERT_TRUE(wc.has_value());
    EXPECT_EQ(wc->wr_id, i);
  }
}

sim::Task<> post_writes(QueuePair& qp, numa::Thread& th, mem::Buffer* local,
                        mem::Buffer* remote, int n) {
  for (int i = 0; i < n; ++i) {
    SendWr wr;
    wr.op = Opcode::kWrite;
    wr.wr_id = static_cast<std::uint64_t>(i);
    wr.local = local;
    wr.bytes = local->bytes;
    wr.remote = RemoteKey{remote};
    co_await qp.post_send(th, wr);
  }
}

TEST_F(QpRig, WriteThroughputApproachesLineRate) {
  auto sbuf = make_buffer(*rig.a, 4 << 20, 0);
  auto target = make_buffer(*rig.b, 4 << 20, 0);
  const int n = 100;
  exp::run_task(rig.eng, post_writes(pair->a(), *tha, &sbuf, &target, n));
  rig.eng.run();
  const double gbps = metrics::gbps(pair->b().bytes_delivered(),
                                    rig.eng.now());
  EXPECT_GT(gbps, 36.0);  // 40G link minus headers/latency
  EXPECT_LE(gbps, 40.0);
}

TEST_F(QpRig, ReadSlowerThanWriteByEfficiencyFactor) {
  auto local = make_buffer(*rig.a, 4 << 20, 0);
  auto remote = make_buffer(*rig.b, 4 << 20, 0);
  const int n = 50;
  // Writes.
  for (int i = 0; i < n; ++i) {
    SendWr wr;
    wr.op = Opcode::kWrite;
    wr.local = &local;
    wr.bytes = 4 << 20;
    wr.remote = RemoteKey{&remote};
    exp::run_task(rig.eng, pair->a().post_send(*tha, wr));
  }
  rig.eng.run();
  const double write_time = static_cast<double>(rig.eng.now());

  TinyRig rig2;
  ConnectedPair pair2(*rig2.dev_a, *rig2.dev_b, *rig2.link);
  numa::Thread& th2 = rig2.proc_a->spawn_thread();
  auto local2 = make_buffer(*rig2.a, 4 << 20, 0);
  auto remote2 = make_buffer(*rig2.b, 4 << 20, 0);
  for (int i = 0; i < n; ++i) {
    SendWr wr;
    wr.op = Opcode::kRead;
    wr.wr_id = static_cast<std::uint64_t>(i);
    wr.local = &local2;
    wr.bytes = 4 << 20;
    wr.remote = RemoteKey{&remote2};
    exp::run_task(rig2.eng, pair2.a().post_send(th2, wr));
  }
  rig2.eng.run();
  const double read_time = static_cast<double>(rig2.eng.now());
  const double eff = rig.a->costs().rdma_read_efficiency;
  EXPECT_NEAR(write_time / read_time, eff, 0.05);
}

TEST_F(QpRig, InjectedFaultFailsCompletionAndDropsPayload) {
  auto sbuf = make_buffer(*rig.a, 1 << 20, 0);
  auto target = make_buffer(*rig.b, 1 << 20, 0);
  const auto loss =
      test::lose_next(rig.eng, *rig.link, net::Direction::kAtoB, 1);
  SendWr wr;
  wr.op = Opcode::kWrite;
  wr.wr_id = 1;
  wr.local = &sbuf;
  wr.bytes = 1 << 20;
  wr.remote = RemoteKey{&target};
  exp::run_task(rig.eng, pair->a().post_send(*tha, wr));
  rig.eng.run();
  auto wc = pair->a().send_cq().try_poll();
  ASSERT_TRUE(wc.has_value());
  EXPECT_FALSE(wc->success);
  EXPECT_EQ(pair->b().bytes_delivered(), 0u);  // nothing arrived

  // The next transfer succeeds (injection is consumed).
  wr.wr_id = 2;
  exp::run_task(rig.eng, pair->a().post_send(*tha, wr));
  rig.eng.run();
  wc = pair->a().send_cq().try_poll();
  ASSERT_TRUE(wc.has_value());
  EXPECT_TRUE(wc->success);
  EXPECT_EQ(pair->b().bytes_delivered(), 1u << 20);
}

TEST_F(QpRig, InjectedFaultOnReadResponse) {
  auto local = make_buffer(*rig.a, 1 << 20, 0);
  auto remote = make_buffer(*rig.b, 1 << 20, 0);
  // Read responses ride the reverse direction.
  const auto loss =
      test::lose_next(rig.eng, *rig.link, net::Direction::kBtoA, 1);
  SendWr wr;
  wr.op = Opcode::kRead;
  wr.wr_id = 7;
  wr.local = &local;
  wr.bytes = 1 << 20;
  wr.remote = RemoteKey{&remote};
  exp::run_task(rig.eng, pair->a().post_send(*tha, wr));
  rig.eng.run();
  auto wc = pair->a().send_cq().try_poll();
  ASSERT_TRUE(wc.has_value());
  EXPECT_EQ(wc->op, Opcode::kRead);
  EXPECT_FALSE(wc->success);
}

TEST_F(QpRig, DoubleConnectThrows) {
  EXPECT_THROW(QueuePair::connect(pair->a(), pair->b(), *rig.link),
               std::logic_error);
}

TEST_F(QpRig, EstablishChargesSetupAndRtt) {
  const auto t0 = rig.eng.now();
  exp::run_task(rig.eng, pair->establish(*tha, *thb));
  EXPECT_GE(rig.eng.now() - t0, rig.link->rtt());
  EXPECT_GT(rig.proc_a->usage().total(), 0u);
  EXPECT_GT(rig.proc_b->usage().total(), 0u);
}

TEST_F(QpRig, RegistrationChargesCpuAndMarksBuffer) {
  ProtectionDomain pd(*rig.a);
  mem::Buffer buf;
  buf.bytes = 1 << 20;
  buf.placement = numa::Placement::on(0);
  const auto before = rig.proc_a->usage().total();
  exp::run_task(rig.eng, pd.register_buffer(*tha, buf));
  EXPECT_TRUE(buf.registered);
  EXPECT_GT(rig.proc_a->usage().total(), before);
}

}  // namespace
}  // namespace e2e::rdma
