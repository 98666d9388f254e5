// Layered recovery: QP error -> reset -> RTS, CM re-establishment, iSER
// session supervision, and the iSCSI initiator's capped retry budget.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "exp/runner.hpp"
#include "fault/integrity.hpp"
#include "iscsi/initiator.hpp"
#include "iscsi/target.hpp"
#include "iser/session.hpp"
#include "rdma/rdma.hpp"
#include "testutil.hpp"

namespace e2e::fault {
namespace {

using e2e::test::TinyRig;
using e2e::test::make_buffer;

struct QpRecoveryTest : ::testing::Test {
  TinyRig rig;
  std::unique_ptr<rdma::ConnectedPair> pair;
  numa::Thread* tha = nullptr;
  numa::Thread* thb = nullptr;

  void SetUp() override {
    pair = std::make_unique<rdma::ConnectedPair>(*rig.dev_a, *rig.dev_b,
                                                 *rig.link);
    tha = &rig.proc_a->spawn_thread();
    thb = &rig.proc_b->spawn_thread();
  }

  /// Posts one 1 MiB RDMA Write a->b and returns its completion success.
  bool write_once(mem::Buffer& src, mem::Buffer& dst) {
    rdma::SendWr wr;
    wr.op = rdma::Opcode::kWrite;
    wr.wr_id = 1;
    wr.local = &src;
    wr.bytes = src.bytes;
    wr.remote = rdma::RemoteKey{&dst};
    exp::run_task(rig.eng, pair->a().post_send(*tha, wr));
    rig.eng.run();
    auto wc = pair->a().send_cq().try_poll();
    EXPECT_TRUE(wc.has_value());
    return wc.has_value() && wc->success;
  }
};

TEST_F(QpRecoveryTest, KillFailsSendsAndDropsDelivery) {
  auto src = make_buffer(*rig.a, 1 << 20, 0);
  auto dst = make_buffer(*rig.b, 1 << 20, 0);
  pair->a().kill();
  EXPECT_FALSE(pair->a().alive());
  EXPECT_TRUE(pair->a().error_event().is_set());
  EXPECT_FALSE(write_once(src, dst));
  EXPECT_EQ(pair->b().bytes_delivered(), 0u);
}

TEST_F(QpRecoveryTest, KillIsIdempotent) {
  pair->kill();
  pair->kill();
  EXPECT_FALSE(pair->alive());
}

TEST_F(QpRecoveryTest, RecoverWalksBackToRtsAndTrafficFlows) {
  auto src = make_buffer(*rig.a, 1 << 20, 0);
  auto dst = make_buffer(*rig.b, 1 << 20, 0);
  pair->kill();
  const auto t0 = rig.eng.now();
  exp::run_task(rig.eng, pair->reestablish(*tha, *thb, 1 << 20, 1 << 20));
  EXPECT_TRUE(pair->alive());
  // Re-establishment is not free: QP bring-up + MR revalidation + RTT.
  EXPECT_GE(rig.eng.now() - t0, rig.link->rtt());
  EXPECT_TRUE(write_once(src, dst));
  EXPECT_EQ(pair->b().bytes_delivered(), 1u << 20);
}

TEST_F(QpRecoveryTest, ReestablishOnHealthyPairIsNoOpRecover) {
  exp::run_task(rig.eng, pair->reestablish(*tha, *thb));
  EXPECT_TRUE(pair->alive());
}

/// iSER rig with a retry-capable initiator (command timeouts on, so lost
/// PDUs retransmit instead of hanging the submitter).
struct IserRecoveryTest : ::testing::Test {
  TinyRig rig;
  std::unique_ptr<mem::Tmpfs> tgt_fs;
  std::unique_ptr<iser::IserSession> session;
  std::unique_ptr<mem::BufferPool> staging;
  std::vector<std::unique_ptr<scsi::Lun>> luns;
  std::unique_ptr<iscsi::Target> target;
  std::unique_ptr<iscsi::Initiator> initiator;
  numa::Thread* ith = nullptr;
  numa::Thread* tth = nullptr;

  void bring_up(iscsi::RetryPolicy policy,
                sim::SimDuration command_timeout = 500 * sim::kMicrosecond) {
    tgt_fs = std::make_unique<mem::Tmpfs>(*rig.b);
    auto& f = tgt_fs->create("lun0", 8 << 20, numa::MemPolicy::kBind, 0);
    luns.push_back(std::make_unique<scsi::Lun>(0, *tgt_fs, f));
    session = std::make_unique<iser::IserSession>(
        *rig.dev_a, *rig.dev_b, *rig.link, *rig.proc_a, *rig.proc_b);
    staging = std::make_unique<mem::BufferPool>(
        *rig.b, "staging", 4, 1 << 20, numa::MemPolicy::kBind, 0);
    staging->mark_registered();
    target = std::make_unique<iscsi::Target>(
        *rig.proc_b, session->target_ep(),
        std::vector<scsi::Lun*>{luns[0].get()}, *staging);
    initiator = std::make_unique<iscsi::Initiator>(
        *rig.proc_a, session->initiator_ep(), command_timeout, policy);
    ith = &rig.proc_a->spawn_thread();
    tth = &rig.proc_b->spawn_thread();
    exp::run_task(rig.eng, session->start(*ith, *tth));
    target->start(2);
    iscsi::LoginParams params;
    ASSERT_TRUE(exp::run_task(rig.eng, initiator->login(*ith, params)));
    initiator->start_dispatcher(*ith);
  }
};

TEST_F(IserRecoveryTest, SupervisorRecoversKilledSessionAndIoCompletes) {
  bring_up(iscsi::RetryPolicy{});
  session->enable_recovery(*ith, *tth);
  session->kill();
  EXPECT_FALSE(session->pair().alive());

  auto buf = make_buffer(*rig.a, 1 << 20, 0);
  const auto status =
      exp::run_task(rig.eng, initiator->submit_write(*ith, 0, 0, 2048, buf));
  EXPECT_EQ(status, scsi::Status::kGood);
  EXPECT_GE(session->recoveries(), 1u);
  EXPECT_TRUE(session->pair().alive());
  // The write executed exactly once despite command retransmissions.
  EXPECT_EQ(luns[0]->written_digest(), fault::block_range_tag(0, 2048));
  EXPECT_EQ(luns[0]->writes_executed(), 1u);
}

TEST_F(IserRecoveryTest, ExhaustedRecoveryBudgetSurfacesTerminalError) {
  iscsi::RetryPolicy policy;
  policy.max_attempts = 3;
  policy.backoff_cap = 2 * sim::kMillisecond;
  bring_up(policy);
  iser::SessionRecoveryPolicy rp;
  rp.max_attempts = 0;  // first failed recovery abandons the session
  session->enable_recovery(*ith, *tth, rp);
  session->kill();

  auto buf = make_buffer(*rig.a, 1 << 20, 0);
  const auto status =
      exp::run_task(rig.eng, initiator->submit_write(*ith, 0, 0, 2048, buf));
  EXPECT_EQ(status, scsi::Status::kTransportError);
  EXPECT_TRUE(session->abandoned());
  EXPECT_EQ(luns[0]->writes_executed(), 0u);

  // An abandoned session stays failed: a later command spends only its own
  // retry budget and surfaces the same terminal error.
  const sim::SimTime t0 = rig.eng.now();
  const auto again =
      exp::run_task(rig.eng, initiator->submit_write(*ith, 0, 0, 2048, buf));
  EXPECT_EQ(again, scsi::Status::kTransportError);
  EXPECT_LT(rig.eng.now() - t0, 10 * sim::kMillisecond);
  EXPECT_EQ(initiator->command_failures(), 2u);
  EXPECT_EQ(luns[0]->writes_executed(), 0u);
}

TEST_F(IserRecoveryTest, CappedCommandRetriesNeverHangWithoutRecovery) {
  iscsi::RetryPolicy policy;
  policy.max_attempts = 2;
  policy.backoff_cap = sim::kMillisecond;
  bring_up(policy);
  session->kill();  // no supervisor: the session stays dead

  auto buf = make_buffer(*rig.a, 1 << 20, 0);
  const auto status =
      exp::run_task(rig.eng, initiator->submit_write(*ith, 0, 0, 2048, buf));
  EXPECT_EQ(status, scsi::Status::kTransportError);
  EXPECT_EQ(initiator->command_failures(), 1u);
}

TEST_F(IserRecoveryTest, CrashRefusesReloginsUntilRestartThenRecovers) {
  iscsi::RetryPolicy policy;
  policy.max_attempts = 20;
  policy.backoff_cap = 2 * sim::kMillisecond;
  bring_up(policy);
  session->enable_recovery(*ith, *tth);

  // Crash-stop the target for 5 ms: every re-login inside the window is
  // refused and burns supervisor budget; the one after the host returns
  // succeeds.
  session->crash(5 * sim::kMillisecond);
  EXPECT_FALSE(session->pair().alive());

  auto buf = make_buffer(*rig.a, 1 << 20, 0);
  const auto status =
      exp::run_task(rig.eng, initiator->submit_write(*ith, 0, 0, 2048, buf));
  EXPECT_EQ(status, scsi::Status::kGood);
  EXPECT_GE(session->relogins_refused(), 1u);
  EXPECT_GE(session->recoveries(), 1u);
  EXPECT_FALSE(session->abandoned());
  EXPECT_TRUE(session->pair().alive());
  // Command dedup across the crash epoch: the write landed exactly once.
  EXPECT_EQ(luns[0]->writes_executed(), 1u);
  EXPECT_EQ(luns[0]->written_digest(), fault::block_range_tag(0, 2048));
}

TEST_F(IserRecoveryTest, PermanentCrashExhaustsBudgetAndAbandonsExactlyOnce) {
  iscsi::RetryPolicy policy;
  policy.max_attempts = 3;
  policy.backoff_cap = 2 * sim::kMillisecond;
  bring_up(policy);
  iser::SessionRecoveryPolicy rp;
  rp.max_attempts = 3;
  rp.backoff_cap = 2 * sim::kMillisecond;
  session->enable_recovery(*ith, *tth, rp);

  session->crash(0);  // the target never comes back

  auto buf = make_buffer(*rig.a, 1 << 20, 0);
  const auto status =
      exp::run_task(rig.eng, initiator->submit_write(*ith, 0, 0, 2048, buf));
  EXPECT_EQ(status, scsi::Status::kTransportError);
  EXPECT_TRUE(session->abandoned());
  // The budget burned one refused re-login per attempt, then gave up —
  // the supervisor exits on abandonment so it cannot abandon twice.
  EXPECT_EQ(session->relogins_refused(),
            static_cast<std::uint64_t>(rp.max_attempts));
  EXPECT_EQ(session->recoveries(), 0u);
  EXPECT_EQ(luns[0]->writes_executed(), 0u);
  rig.eng.run();
  EXPECT_TRUE(session->abandoned());
}

TEST_F(IserRecoveryTest, PolicyBackoffScheduleMatchesSharedBackoff) {
  // The supervisor delegates its delay math to fault::Backoff; pin the
  // equivalence so the policy keeps meaning what it meant: same
  // (base, multiplier, cap, jitter, seed) => same schedule, twice.
  iser::SessionRecoveryPolicy rp;
  fault::Backoff a(iser::kRecoveryBackoff, iser::kRecoveryMultiplier,
                   rp.backoff_cap, iser::kRecoveryJitter, rp.seed);
  fault::Backoff b(iser::kRecoveryBackoff, iser::kRecoveryMultiplier,
                   rp.backoff_cap, iser::kRecoveryJitter, rp.seed);
  for (int i = 0; i < rp.max_attempts + 2; ++i) {
    const auto d = a.next();
    EXPECT_EQ(d, b.next());
    // Every delay respects the configured cap plus its jitter margin.
    EXPECT_LE(d, static_cast<sim::SimDuration>(
                     static_cast<double>(rp.backoff_cap) *
                     (1.0 + iser::kRecoveryJitter)));
    EXPECT_GE(d, iser::kRecoveryBackoff);
  }
}

TEST_F(IserRecoveryTest, LossBurstIsAbsorbedByCommandRetries) {
  bring_up(iscsi::RetryPolicy{});
  // Eat the command PDU.
  const auto loss =
      test::lose_next(rig.eng, *rig.link, net::Direction::kAtoB, 1);
  auto buf = make_buffer(*rig.a, 1 << 20, 0);
  const auto status =
      exp::run_task(rig.eng, initiator->submit_write(*ith, 0, 0, 2048, buf));
  EXPECT_EQ(status, scsi::Status::kGood);
  EXPECT_GE(initiator->command_retries(), 1u);
  EXPECT_EQ(luns[0]->written_digest(), fault::block_range_tag(0, 2048));
}

}  // namespace
}  // namespace e2e::fault
