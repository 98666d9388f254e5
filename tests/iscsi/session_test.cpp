#include <gtest/gtest.h>

#include <memory>

#include "exp/runner.hpp"
#include "iscsi/initiator.hpp"
#include "iscsi/target.hpp"
#include "iser/session.hpp"
#include "testutil.hpp"

namespace e2e::iscsi {
namespace {

using e2e::test::TinyRig;
using e2e::test::make_buffer;

struct IserRig : ::testing::Test {
  TinyRig rig;
  std::unique_ptr<mem::Tmpfs> tgt_fs;
  std::unique_ptr<iser::IserSession> session;
  std::unique_ptr<mem::BufferPool> staging;
  std::vector<std::unique_ptr<scsi::Lun>> luns;
  std::unique_ptr<Target> target;
  std::unique_ptr<Initiator> initiator;
  numa::Thread* ith = nullptr;
  numa::Thread* tth = nullptr;

  void SetUp() override {
    tgt_fs = std::make_unique<mem::Tmpfs>(*rig.b);
    for (int l = 0; l < 2; ++l) {
      auto& f = tgt_fs->create("lun" + std::to_string(l), 8 << 20,
                               numa::MemPolicy::kBind, 0);
      luns.push_back(std::make_unique<scsi::Lun>(l, *tgt_fs, f));
    }
    session = std::make_unique<iser::IserSession>(
        *rig.dev_a, *rig.dev_b, *rig.link, *rig.proc_a, *rig.proc_b);
    staging = std::make_unique<mem::BufferPool>(
        *rig.b, "staging", 4, 1 << 20, numa::MemPolicy::kBind, 0);
    staging->mark_registered();
    std::vector<scsi::Lun*> lun_ptrs;
    for (auto& l : luns) lun_ptrs.push_back(l.get());
    target = std::make_unique<Target>(*rig.proc_b, session->target_ep(),
                                      lun_ptrs, *staging);
    initiator =
        std::make_unique<Initiator>(*rig.proc_a, session->initiator_ep());
    ith = &rig.proc_a->spawn_thread();
    tth = &rig.proc_b->spawn_thread();
  }

  void bring_up(int workers = 2) {
    exp::run_task(rig.eng, session->start(*ith, *tth));
    target->start(workers);
    LoginParams params;
    const bool ok = exp::run_task(rig.eng, initiator->login(*ith, params));
    ASSERT_TRUE(ok);
    initiator->start_dispatcher(*ith);
  }
};

TEST_F(IserRig, LoginNegotiates) {
  bring_up();
  EXPECT_TRUE(initiator->logged_in());
  EXPECT_GE(initiator->negotiated().max_burst_length, 1u << 20);
}

TEST_F(IserRig, SubmitBeforeLoginThrows) {
  auto buf = make_buffer(*rig.a, 4096, 0);
  EXPECT_THROW(
      exp::run_task(rig.eng, initiator->submit_read(*ith, 0, 0, 8, buf)),
      std::logic_error);
}

TEST_F(IserRig, ReadMovesDataFromLunToInitiator) {
  bring_up();
  auto buf = make_buffer(*rig.a, 1 << 20, 0);
  const auto status = exp::run_task(
      rig.eng, initiator->submit_read(*ith, 0, 0, 2048, buf));
  EXPECT_EQ(status, scsi::Status::kGood);
  EXPECT_EQ(luns[0]->backing().bytes_read, 2048u * 512);
  EXPECT_EQ(target->bytes_out(), 2048u * 512);
  EXPECT_EQ(initiator->tasks_completed(), 1u);
}

TEST_F(IserRig, WriteMovesDataFromInitiatorToLun) {
  bring_up();
  auto buf = make_buffer(*rig.a, 1 << 20, 0);
  const auto status = exp::run_task(
      rig.eng, initiator->submit_write(*ith, 1, 0, 2048, buf));
  EXPECT_EQ(status, scsi::Status::kGood);
  EXPECT_EQ(luns[1]->backing().bytes_written, 2048u * 512);
  EXPECT_EQ(target->bytes_in(), 2048u * 512);
}

TEST_F(IserRig, LargeTransfersSegmentThroughStaging) {
  bring_up();
  // 4 MiB transfer through 1 MiB staging buffers: 4 segments.
  auto buf = make_buffer(*rig.a, 4 << 20, 0);
  const auto status = exp::run_task(
      rig.eng, initiator->submit_read(*ith, 0, 0, 8192, buf));
  EXPECT_EQ(status, scsi::Status::kGood);
  EXPECT_EQ(luns[0]->backing().bytes_read, 4u << 20);
  // All staging buffers returned to the pool once the engine drains.
  rig.eng.run();
  EXPECT_EQ(staging->available(), staging->capacity());
}

TEST_F(IserRig, UnknownLunIsCheckCondition) {
  bring_up();
  auto buf = make_buffer(*rig.a, 4096, 0);
  EXPECT_EQ(exp::run_task(rig.eng,
                          initiator->submit_read(*ith, 99, 0, 8, buf)),
            scsi::Status::kCheckCondition);
}

TEST_F(IserRig, OutOfRangeIoFailsCleanly) {
  bring_up();
  auto buf = make_buffer(*rig.a, 1 << 20, 0);
  const auto blocks = static_cast<std::uint32_t>((8 << 20) / 512);
  EXPECT_EQ(exp::run_task(rig.eng, initiator->submit_read(
                                       *ith, 0, blocks, 8, buf)),
            scsi::Status::kCheckCondition);
}

TEST_F(IserRig, SmallBufferIsRejectedLocally) {
  bring_up();
  auto buf = make_buffer(*rig.a, 512, 0);
  EXPECT_THROW(
      exp::run_task(rig.eng, initiator->submit_read(*ith, 0, 0, 8, buf)),
      std::length_error);
}

sim::Task<> submit_many(Initiator& init, numa::Thread& th, mem::Buffer* buf,
                        int n, int* good) {
  for (int i = 0; i < n; ++i) {
    const auto s = co_await init.submit_read(
        th, 0, static_cast<std::uint64_t>(i) * 8, 8, *buf);
    if (s == scsi::Status::kGood) ++*good;
  }
}

TEST_F(IserRig, ConcurrentTasksAllComplete) {
  bring_up(/*workers=*/3);
  auto buf1 = make_buffer(*rig.a, 4096, 0);
  auto buf2 = make_buffer(*rig.a, 4096, 0);
  auto buf3 = make_buffer(*rig.a, 4096, 0);
  int good = 0;
  sim::co_spawn(submit_many(*initiator, *ith, &buf1, 10, &good));
  sim::co_spawn(submit_many(*initiator, *ith, &buf2, 10, &good));
  sim::co_spawn(submit_many(*initiator, *ith, &buf3, 10, &good));
  rig.eng.run();
  EXPECT_EQ(good, 30);
  EXPECT_EQ(initiator->tasks_completed(), 30u);
  EXPECT_EQ(target->tasks_served(), 30u);
}

TEST_F(IserRig, TargetCountsControlPdus) {
  bring_up();
  auto buf = make_buffer(*rig.a, 4096, 0);
  const auto before = session->initiator_ep().pdus_sent();
  exp::run_task(rig.eng, initiator->submit_read(*ith, 0, 0, 8, buf));
  EXPECT_EQ(session->initiator_ep().pdus_sent(), before + 1);  // the command
  EXPECT_GE(session->target_ep().pdus_sent(), 1u);             // the response
}

TEST_F(IserRig, DataOpsUseRdmaNotCpuOnInitiator) {
  bring_up();
  auto buf = make_buffer(*rig.a, 4 << 20, 0);
  const auto copy_before =
      rig.proc_a->usage().get(metrics::CpuCategory::kCopy);
  exp::run_task(rig.eng, initiator->submit_read(*ith, 0, 0, 8192, buf));
  // Zero-copy: the initiator never memcpys payload.
  EXPECT_EQ(rig.proc_a->usage().get(metrics::CpuCategory::kCopy),
            copy_before);
}

struct RetryRig : IserRig {
  // Rebuild the initiator with a command timeout so lost control PDUs are
  // retransmitted.
  void SetUp() override {
    IserRig::SetUp();
    initiator = std::make_unique<Initiator>(
        *rig.proc_a, session->initiator_ep(), 5 * sim::kMillisecond);
  }
};

TEST_F(RetryRig, LostCommandIsRetransmitted) {
  bring_up();
  // The next message on the initiator->target direction (the command PDU)
  // is corrupted in flight.
  const auto loss =
      test::lose_next(rig.eng, *rig.link, net::Direction::kAtoB, 1);
  auto buf = make_buffer(*rig.a, 1 << 20, 0);
  const auto status = exp::run_task(
      rig.eng, initiator->submit_read(*ith, 0, 0, 2048, buf));
  EXPECT_EQ(status, scsi::Status::kGood);
  EXPECT_EQ(initiator->command_retries(), 1u);
  EXPECT_EQ(target->tasks_served(), 1u);  // executed exactly once
}

TEST_F(RetryRig, LostResponseIsReplayedNotReexecuted) {
  bring_up();
  auto buf = make_buffer(*rig.a, 1 << 20, 0);
  // Lose the target->initiator response: the WRITE executes, the response
  // vanishes, the retry gets a replay from the completed-task history.
  // Direction 1 carries the target's sends; the first message there after
  // injection is this task's response.
  const auto loss =
      test::lose_next(rig.eng, *rig.link, net::Direction::kBtoA, 1);
  const auto status = exp::run_task(
      rig.eng, initiator->submit_write(*ith, 0, 0, 2048, buf));
  EXPECT_EQ(status, scsi::Status::kGood);
  EXPECT_GE(initiator->command_retries(), 1u);
  EXPECT_EQ(target->tasks_served(), 1u);  // duplicate suppressed
  EXPECT_EQ(luns[0]->backing().bytes_written, 2048u * 512);  // once!
}

TEST_F(RetryRig, NoTimeoutMeansNoRetries) {
  bring_up();
  auto buf = make_buffer(*rig.a, 1 << 20, 0);
  exp::run_task(rig.eng, initiator->submit_read(*ith, 0, 0, 512, buf));
  EXPECT_EQ(initiator->command_retries(), 0u);
}

struct RoutedTargetRig : IserRig {
  // Rebuild the target with the libnuma-style per-request scheduler.
  void SetUp() override {
    IserRig::SetUp();
    std::vector<scsi::Lun*> lun_ptrs;
    for (auto& l : luns) lun_ptrs.push_back(l.get());
    target = std::make_unique<Target>(*rig.proc_b, session->target_ep(),
                                      lun_ptrs, *staging,
                                      TargetSched::kNumaRouted);
  }
};

TEST_F(RoutedTargetRig, NumaRoutedTargetServesIo) {
  bring_up(/*workers=*/4);  // two per node
  auto buf = make_buffer(*rig.a, 1 << 20, 0);
  EXPECT_EQ(exp::run_task(rig.eng,
                          initiator->submit_read(*ith, 0, 0, 2048, buf)),
            scsi::Status::kGood);
  EXPECT_EQ(exp::run_task(rig.eng,
                          initiator->submit_write(*ith, 1, 0, 2048, buf)),
            scsi::Status::kGood);
  EXPECT_EQ(target->tasks_served(), 2u);
}

TEST_F(RoutedTargetRig, TasksRunOnTheLunsHomeNode) {
  bring_up(/*workers=*/4);
  // Both LUNs are bound to node 0 in this rig: after serving traffic,
  // node-1 cores must have done no load/offload work.
  auto buf = make_buffer(*rig.a, 1 << 20, 0);
  exp::run_task(rig.eng, initiator->submit_write(*ith, 0, 0, 2048, buf));
  metrics::CpuUsage node1;
  for (int c = 0; c < rig.b->core_count(); ++c)
    if (rig.b->core(c).node == 1) node1.merge(rig.b->core(c).usage);
  EXPECT_EQ(node1.get(metrics::CpuCategory::kOffload), 0u);
}

TEST_F(IserRig, DoubleStartDispatcherThrows) {
  bring_up();
  EXPECT_THROW(initiator->start_dispatcher(*ith), std::logic_error);
}

TEST_F(IserRig, TargetDoubleStartThrows) {
  bring_up();
  EXPECT_THROW(target->start(1), std::logic_error);
}

}  // namespace
}  // namespace e2e::iscsi
