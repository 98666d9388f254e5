#include "tcp/connection.hpp"

#include <gtest/gtest.h>

#include "exp/runner.hpp"
#include "numa/process.hpp"
#include "testutil.hpp"

namespace e2e::tcp {
namespace {

using metrics::CpuCategory;
using e2e::test::TinyRig;

struct TcpRig : ::testing::Test {
  TinyRig rig;
  std::unique_ptr<Connection> conn;
  numa::Thread* tx = nullptr;
  numa::Thread* rx = nullptr;
  numa::Placement src = numa::Placement::on(0);
  numa::Placement dst = numa::Placement::on(0);

  void make() {
    conn = std::make_unique<Connection>(*rig.a, 0, *rig.b, 0, *rig.link);
    tx = &rig.proc_a->spawn_thread();
    rx = &rig.proc_b->spawn_thread();
  }
};

sim::Task<std::uint64_t> recv_all(Connection& c, numa::Thread& th,
                                  numa::Placement buf) {
  std::uint64_t total = 0;
  for (;;) {
    const std::uint64_t n = co_await c.recv(th, buf);
    if (n == 0) co_return total;
    total += n;
  }
}

sim::Task<> send_n(Connection& c, numa::Thread& th, numa::Placement buf,
                   std::uint64_t chunk, int count, bool cached = false) {
  for (int i = 0; i < count; ++i) co_await c.send(th, buf, chunk, cached);
  c.shutdown(th);
}

TEST_F(TcpRig, BytesConservedEndToEnd) {
  make();
  sim::co_spawn(send_n(*conn, *tx, src, 64 * 1024, 10));
  const std::uint64_t got =
      exp::run_task(rig.eng, recv_all(*conn, *rx, dst));
  EXPECT_EQ(got, 640u * 1024);
  EXPECT_EQ(conn->bytes_sent(0), 640u * 1024);
}

TEST_F(TcpRig, SendChargesCopyAndKernelCategories) {
  make();
  sim::co_spawn(send_n(*conn, *tx, src, 128 * 1024, 4));
  exp::run_task(rig.eng, recv_all(*conn, *rx, dst));
  EXPECT_GT(rig.proc_a->usage().get(CpuCategory::kCopy), 0u);
  EXPECT_GT(rig.proc_a->usage().get(CpuCategory::kKernelProto), 0u);
  EXPECT_GT(rig.proc_b->usage().get(CpuCategory::kCopy), 0u);
  EXPECT_GT(rig.proc_b->usage().get(CpuCategory::kKernelProto), 0u);
}

TEST_F(TcpRig, CachedSourceSkipsSourceMemoryTraffic) {
  make();
  sim::co_spawn(send_n(*conn, *tx, src, 256 * 1024, 4, /*cached=*/false));
  exp::run_task(rig.eng, recv_all(*conn, *rx, dst));
  const double uncached = rig.a->channel(0).units_served();

  TinyRig rig2;
  Connection c2(*rig2.a, 0, *rig2.b, 0, *rig2.link);
  numa::Thread& tx2 = rig2.proc_a->spawn_thread();
  numa::Thread& rx2 = rig2.proc_b->spawn_thread();
  sim::co_spawn(send_n(c2, tx2, numa::Placement::on(0), 256 * 1024, 4,
                       /*cached=*/true));
  exp::run_task(rig2.eng, recv_all(c2, rx2, numa::Placement::on(0)));
  EXPECT_LT(rig2.a->channel(0).units_served(), uncached);
}

TEST_F(TcpRig, RemoteThreadPaysStackPenalty) {
  make();
  numa::Process remote_proc(*rig.a, "remote", numa::NumaBinding::bound(1));
  numa::Thread& rtx = remote_proc.spawn_thread();  // node 1, NIC on node 0
  sim::co_spawn(send_n(*conn, rtx, numa::Placement::on(1), 128 * 1024, 4));
  exp::run_task(rig.eng, recv_all(*conn, *rx, dst));
  const auto remote_kernel =
      remote_proc.usage().get(CpuCategory::kKernelProto);

  TinyRig rig2;
  Connection c2(*rig2.a, 0, *rig2.b, 0, *rig2.link);
  numa::Thread& ltx = rig2.proc_a->spawn_thread();  // node 0, local
  numa::Thread& rx2 = rig2.proc_b->spawn_thread();
  sim::co_spawn(send_n(c2, ltx, numa::Placement::on(0), 128 * 1024, 4));
  exp::run_task(rig2.eng, recv_all(c2, rx2, numa::Placement::on(0)));
  const auto local_kernel =
      rig2.proc_a->usage().get(CpuCategory::kKernelProto);
  EXPECT_GT(remote_kernel, local_kernel);
}

TEST_F(TcpRig, ConnectCostsOneRttPlusCpu) {
  make();
  const auto t0 = rig.eng.now();
  exp::run_task(rig.eng, conn->connect(*tx));
  EXPECT_GE(rig.eng.now() - t0, rig.link->rtt());
}

TEST_F(TcpRig, ShutdownUnblocksReceiver) {
  make();
  auto total = std::make_shared<std::uint64_t>(1);
  sim::co_spawn([](Connection& c, numa::Thread& th, numa::Placement buf,
                   std::shared_ptr<std::uint64_t> out) -> sim::Task<> {
    *out = co_await c.recv(th, buf);
  }(*conn, *rx, dst, total));
  conn->shutdown(*tx);
  rig.eng.run();
  EXPECT_EQ(*total, 0u);
}

TEST_F(TcpRig, EndpointOfRejectsForeignHost) {
  make();
  TinyRig other;
  EXPECT_THROW((void)conn->endpoint_of(*other.a), std::invalid_argument);
}

}  // namespace
}  // namespace e2e::tcp
