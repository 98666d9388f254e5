// e2e::check audit-layer tests.
//
// Two families:
//  - Canaries: plant a deliberate violation (through the auditor API or the
//    real machinery) and prove the matching rule fires. A checker that
//    cannot see planted bugs is worthless.
//  - Clean runs: drive real transfers with the auditor installed and prove
//    zero violations — the conservation laws actually hold in the model.
#include "check/audit.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <sstream>
#include <string>

#include "fault/integrity.hpp"
#include "rftp/rftp.hpp"
#include "sim/resource.hpp"
#include "testutil.hpp"

namespace e2e::check {
namespace {

using e2e::test::TinyRig;
using e2e::test::make_buffer;

bool has_rule(const Auditor& au, std::string_view rule) {
  return std::any_of(au.violations().begin(), au.violations().end(),
                     [&](const Violation& v) { return v.rule == rule; });
}

// --- observer slot ---

TEST(Auditor, InstallsAndUninstalls) {
  sim::Engine eng;
  {
    Auditor au(eng);
    EXPECT_EQ(of(eng), &au);
    // Only one auditor may be installed at a time.
    EXPECT_THROW({ Auditor second(eng); }, std::logic_error);
  }
  EXPECT_EQ(of(eng), nullptr);
}

TEST(Auditor, CleanRunReportsAllQuiet) {
  sim::Engine eng;
  Auditor au(eng);
  sim::Resource r(eng, 1e9, "r");
  r.charge(100);
  eng.run();
  au.finalize();
  EXPECT_TRUE(au.ok());
  std::ostringstream os;
  au.report(os);
  EXPECT_NE(os.str().find("no violations"), std::string::npos);
}

// --- resource / CPU canaries ---

TEST(Auditor, ResourceWindowOverlapDetected) {
  sim::Engine eng;
  Auditor au(eng);
  au.set_log(false);
  sim::Resource r(eng, 1e9, "r");
  au.on_resource_service(r, 10, 20, 10.0);
  au.on_resource_service(r, 15, 25, 10.0);  // starts inside the previous
  EXPECT_TRUE(has_rule(au, "resource.window-overlap"));
}

TEST(Auditor, ResourceBusyAccountingMismatchDetected) {
  sim::Engine eng;
  Auditor au(eng);
  au.set_log(false);
  sim::Resource r(eng, 1e9, "r");
  r.charge(100);  // audited: 100 ns of service
  au.on_resource_service(r, 200, 250, 50.0);  // phantom service window
  eng.run();
  au.finalize();
  EXPECT_TRUE(has_rule(au, "resource.busy-accounting"));
}

TEST(Auditor, CpuUnaccountedTimeDetected) {
  sim::Engine eng;
  Auditor au(eng);
  au.set_log(false);
  sim::Resource cycles(eng, 2e9, "core0/cycles");
  cycles.charge(2000.0);  // 1000 ns of service observed
  // Only 400 ns accounted to a category: 600 ns vanish.
  au.on_cpu_charge(&cycles, metrics::CpuCategory::kCopy, 400);
  eng.run();
  au.finalize();
  EXPECT_TRUE(has_rule(au, "cpu.unaccounted-time"));
}

TEST(Auditor, SetRateFlapKeepsResourceAccountingExact) {
  sim::Engine eng;
  Auditor au(eng);
  sim::Resource r(eng, 1e9, "flappy");
  r.charge(10'000);
  eng.run_until(1'000);
  r.set_rate(4e9);  // faster mid-drain
  eng.run_until(2'000);
  r.set_rate(5e8);  // slower again
  eng.run();
  au.finalize();
  EXPECT_TRUE(au.ok()) << [&] {
    std::ostringstream os;
    au.report(os);
    return os.str();
  }();
}

// --- QP ledger canaries ---

TEST(Auditor, QpByteLedgerImbalanceDetected) {
  sim::Engine eng;
  Auditor au(eng);
  au.set_log(false);
  int key = 0;
  au.on_qp_tx(&key, "a", 4096);
  au.on_qp_rx(&key, "a", 1024);  // 3072 bytes vanish in flight
  au.finalize();
  EXPECT_TRUE(has_rule(au, "rdma.byte-ledger"));
}

TEST(Auditor, DroppedDeliveriesBalanceTheLedger) {
  sim::Engine eng;
  Auditor au(eng);
  int key = 0;
  au.on_qp_tx(&key, "a", 4096);
  au.on_qp_rx(&key, "a", 1024);
  au.on_qp_drop(&key, "a", 3072);  // error-state receiver drop: accounted
  au.finalize();
  EXPECT_TRUE(au.ok());
}

TEST(Auditor, UnregisteredMrDetected) {
  sim::Engine eng;
  Auditor au(eng);
  au.set_log(false);
  int key = 0;
  au.on_dma_check(&key, "b", /*registered=*/false, "write target region");
  EXPECT_TRUE(has_rule(au, "rdma.unregistered-mr"));
}

// --- flow ledger canaries ---

TEST(Auditor, FlowOverDeliveryDetected) {
  sim::Engine eng;
  Auditor au(eng);
  au.set_log(false);
  int key = 0;
  au.flow_in(&key, "tcp", 1000);
  au.flow_out(&key, "tcp", 900);   // drops are legal
  EXPECT_TRUE(au.ok());
  au.flow_out(&key, "tcp", 200);   // byte creation is not
  EXPECT_TRUE(has_rule(au, "flow.over-delivery"));
  EXPECT_EQ(std::count_if(
                au.violations().begin(), au.violations().end(),
                [](const Violation& v) { return v.rule == "flow.over-delivery"; }),
            1);  // reported once per flow, not per byte
}

// --- RFTP canaries (driven through the audit API) ---

struct RftpCanary : ::testing::Test {
  sim::Engine eng;
  Auditor au{eng};
  int sess = 0;  // any stable address works as the session key

  void SetUp() override { au.set_log(false); }

  // Walks one token through a full healthy cycle delivering `block`.
  void deliver(std::uint32_t token, std::uint64_t block,
               std::uint64_t bytes) {
    au.rftp_fill(&sess, block, bytes);
    au.rftp_grant_sent(&sess, 0, token);
    au.rftp_credit_received(&sess, 0, token);
    au.rftp_credit_consumed(&sess, 0, token);
    au.rftp_drain(&sess, 0, token, block, bytes,
                  fault::rftp_block_tag(block, bytes), /*duplicate=*/false,
                  /*checksum_ok=*/true);
    au.rftp_grant_sent(&sess, 0, token);  // re-grant closes the cycle
  }
};

TEST_F(RftpCanary, HealthySessionIsClean) {
  au.rftp_begin(&sess, 200, 100, 2, 1);
  deliver(0, 0, 100);
  deliver(0, 1, 100);
  std::uint64_t digest =
      fault::rftp_block_tag(0, 100) ^ fault::rftp_block_tag(1, 100);
  au.rftp_end(&sess, /*complete=*/true, 200, digest);
  au.finalize();
  EXPECT_TRUE(au.ok());
}

TEST_F(RftpCanary, CreditLeakDetected) {
  au.rftp_begin(&sess, 100, 100, 1, 1);
  deliver(0, 0, 100);
  // Token 1: granted, received, consumed — the bound block never drains.
  au.rftp_grant_sent(&sess, 0, 1);
  au.rftp_credit_received(&sess, 0, 1);
  au.rftp_credit_consumed(&sess, 0, 1);
  au.rftp_end(&sess, /*complete=*/true, 100, fault::rftp_block_tag(0, 100));
  EXPECT_TRUE(au.ok());  // the leak is only provable once the run settles
  au.finalize();
  EXPECT_TRUE(has_rule(au, "rftp.credit-leak"));
}

TEST_F(RftpCanary, DeadStreamTokensAreNotLeaks) {
  au.rftp_begin(&sess, 100, 100, 1, 2);
  deliver(0, 0, 100);
  au.rftp_grant_sent(&sess, 1, 0);
  au.rftp_credit_received(&sess, 1, 0);
  au.rftp_credit_consumed(&sess, 1, 0);  // on-wire when the stream dies
  au.rftp_stream_dead(&sess, 1);
  au.rftp_end(&sess, /*complete=*/true, 100, fault::rftp_block_tag(0, 100));
  au.finalize();
  EXPECT_TRUE(au.ok());
}

TEST_F(RftpCanary, MissingBlocksDetected) {
  au.rftp_begin(&sess, 200, 100, 2, 1);
  deliver(0, 0, 100);  // block 1 never arrives
  au.rftp_end(&sess, /*complete=*/true, 100, fault::rftp_block_tag(0, 100));
  EXPECT_TRUE(has_rule(au, "rftp.missing-blocks"));
  EXPECT_TRUE(has_rule(au, "rftp.byte-conservation"));
}

TEST_F(RftpCanary, DeliveredByteMismatchDetected) {
  au.rftp_begin(&sess, 100, 100, 1, 1);
  deliver(0, 0, 100);
  // The session claims more bytes than the audit independently counted.
  au.rftp_end(&sess, /*complete=*/true, 150, fault::rftp_block_tag(0, 100));
  EXPECT_TRUE(has_rule(au, "rftp.delivered-bytes"));
}

TEST_F(RftpCanary, CorruptedBlockTagDetected) {
  au.rftp_begin(&sess, 100, 100, 1, 1);
  au.rftp_fill(&sess, 0, 100);
  au.rftp_grant_sent(&sess, 0, 0);
  au.rftp_credit_received(&sess, 0, 0);
  au.rftp_credit_consumed(&sess, 0, 0);
  // Landed tag is not the analytic tag of (block 0, 100 bytes) — and the
  // session's own checksum check was fooled into accepting it.
  au.rftp_drain(&sess, 0, 0, 0, 100, /*landed_tag=*/0xdead, false, true);
  EXPECT_TRUE(has_rule(au, "rftp.integrity-tag"));
}

TEST_F(RftpCanary, DoubleGrantDetected) {
  au.rftp_begin(&sess, 100, 100, 1, 1);
  au.rftp_grant_sent(&sess, 0, 0);
  au.rftp_credit_received(&sess, 0, 0);
  au.rftp_grant_sent(&sess, 0, 0);  // re-grant while the sender holds it
  EXPECT_TRUE(has_rule(au, "rftp.credit-double-grant"));
}

TEST_F(RftpCanary, PhantomBlockDetected) {
  au.rftp_begin(&sess, 100, 100, 1, 1);
  au.rftp_fill(&sess, 0, 100);
  // A block arrives on a token that was never consumed by the sender.
  au.rftp_drain(&sess, 0, 0, 0, 100, fault::rftp_block_tag(0, 100), false,
                true);
  EXPECT_TRUE(has_rule(au, "rftp.phantom-block"));
}

TEST_F(RftpCanary, DrainWithoutFillDetected) {
  au.rftp_begin(&sess, 100, 100, 1, 1);
  au.rftp_grant_sent(&sess, 0, 0);
  au.rftp_credit_received(&sess, 0, 0);
  au.rftp_credit_consumed(&sess, 0, 0);
  au.rftp_drain(&sess, 0, 0, 0, 100, fault::rftp_block_tag(0, 100), false,
                true);
  EXPECT_TRUE(has_rule(au, "rftp.drain-without-fill"));
}

TEST_F(RftpCanary, LedgerOfUndrainedBlockReportedOnce) {
  au.rftp_begin(&sess, 200, 100, 2, 1);
  deliver(0, 0, 100);
  sim::RunSet ledger;
  ledger.insert(0);
  ledger.insert(1);  // never drained
  au.rftp_checkpoint(&sess, ledger);
  // A later checkpoint still carrying the block is the same fault, not a
  // new one: each block is checked when it first enters the ledger.
  au.rftp_checkpoint(&sess, ledger);
  EXPECT_EQ(std::count_if(au.violations().begin(), au.violations().end(),
                          [](const Violation& v) {
                            return v.rule == "rftp.ledger-unacked";
                          }),
            1);
  EXPECT_EQ(au.violations().size(), 1u);
}

TEST_F(RftpCanary, LedgerPastTheTransferDetected) {
  au.rftp_begin(&sess, 200, 100, 2, 1);
  deliver(0, 0, 100);
  sim::RunSet ledger;
  ledger.insert(0);
  ledger.insert(2);  // block_count is 2
  au.rftp_checkpoint(&sess, ledger);
  EXPECT_TRUE(has_rule(au, "rftp.ledger-size"));
}

TEST_F(RftpCanary, RollbackOfLedgeredBlockDetected) {
  au.rftp_begin(&sess, 200, 100, 2, 1);
  deliver(0, 0, 100);
  sim::RunSet ledger;
  ledger.insert(0);
  au.rftp_checkpoint(&sess, ledger);
  EXPECT_TRUE(au.ok());
  au.rftp_crash(&sess, 1);
  // Block 0 is durably acked: un-draining it would count it twice.
  au.rftp_rollback(&sess, 0, 100, fault::rftp_block_tag(0, 100));
  EXPECT_TRUE(has_rule(au, "rftp.rollback-ledgered"));
}

TEST(Auditor, AbortOnFinalizeThrows) {
  sim::Engine eng;
  Auditor strict(eng, Policy::kAbortOnFinalize);
  strict.set_log(false);
  int key = 0;
  strict.on_qp_tx(&key, "a", 1);
  EXPECT_THROW(strict.finalize(), AuditFailure);
}

// --- clean end-to-end runs through the real stack ---

TEST(AuditorScenario, RftpTransferIsClean) {
  TinyRig rig;
  Auditor au(rig.eng);
  rftp::RftpConfig cfg;
  cfg.streams = 2;
  cfg.block_bytes = 512 * 1024;
  rftp::EndpointConfig s{rig.proc_a.get(), {rig.dev_a.get()}};
  rftp::EndpointConfig r{rig.proc_b.get(), {rig.dev_b.get()}};
  rftp::RftpSession sess(s, r, {rig.link.get()}, cfg);
  rftp::ZeroSource src(8 << 20);
  rftp::NullSink dst;
  const auto res = exp::run_task(rig.eng, sess.run(src, dst, 8 << 20));
  rig.eng.run();
  EXPECT_TRUE(res.complete);
  au.finalize();
  EXPECT_TRUE(au.ok()) << [&] {
    std::ostringstream os;
    au.report(os);
    return os.str();
  }();
}

TEST(AuditorScenario, PostOnKilledQpFlushesWithoutTransmitting) {
  TinyRig rig;
  Auditor au(rig.eng);
  auto pair = std::make_unique<rdma::ConnectedPair>(*rig.dev_a, *rig.dev_b,
                                                    *rig.link);
  auto& tha = rig.proc_a->spawn_thread();
  auto& thb = rig.proc_b->spawn_thread();
  auto sbuf = make_buffer(*rig.a, 4096, 0);
  auto rbuf = make_buffer(*rig.b, 4096, 0);
  exp::run_task(rig.eng, pair->b().post_recv(thb, rdma::RecvWr{1, &rbuf}));
  pair->a().kill();
  rdma::SendWr wr;
  wr.op = rdma::Opcode::kSend;
  wr.wr_id = 42;
  wr.local = &sbuf;
  wr.bytes = 4096;
  exp::run_task(rig.eng, pair->a().post_send(tha, wr));
  rig.eng.run();
  // The WR flushed at post time: a failed CQE, no delivery at the peer.
  auto wc = pair->a().send_cq().try_poll();
  ASSERT_TRUE(wc.has_value());
  EXPECT_FALSE(wc->success);
  EXPECT_EQ(wc->wr_id, 42u);
  EXPECT_FALSE(pair->b().recv_cq().try_poll().has_value());
  EXPECT_EQ(pair->a().sends_flushed(), 1u);
  au.finalize();
  EXPECT_TRUE(au.ok());  // nothing transmitted, so the ledger balances
}

TEST(AuditorScenario, WriteToDeregisteredMrFlagged) {
  TinyRig rig;
  Auditor au(rig.eng);
  au.set_log(false);
  auto pair = std::make_unique<rdma::ConnectedPair>(*rig.dev_a, *rig.dev_b,
                                                    *rig.link);
  auto& tha = rig.proc_a->spawn_thread();
  auto sbuf = make_buffer(*rig.a, 4096, 0);
  auto target = make_buffer(*rig.b, 4096, 0);
  target.registered = false;  // remote region was never (or no longer) pinned
  rdma::SendWr wr;
  wr.op = rdma::Opcode::kWrite;
  wr.wr_id = 7;
  wr.local = &sbuf;
  wr.bytes = 4096;
  wr.remote = rdma::RemoteKey{&target};
  exp::run_task(rig.eng, pair->a().post_send(tha, wr));
  rig.eng.run();
  EXPECT_TRUE(has_rule(au, "rdma.unregistered-mr"));
}

}  // namespace
}  // namespace e2e::check
