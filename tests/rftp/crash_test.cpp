// Crash-stop fault domains: host crash/restart mid-transfer, the durable
// acked-block ledger, resume-offset negotiation, rollback of drained-but-
// unledgered blocks, and the watchdog's terminal degradation path. Every
// run rides under the full invariant auditor — the cross-epoch conservation
// rules (no double-counted goodput, exactly-once delivery across resume)
// are the point of these tests.
#include "rftp/rftp.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <sstream>
#include <vector>

#include "check/audit.hpp"
#include "exp/runner.hpp"
#include "testutil.hpp"

namespace e2e::rftp {
namespace {

using e2e::test::TinyRig;

std::string audit_report(const check::Auditor& au) {
  std::ostringstream os;
  au.report(os);
  return os.str();
}

struct RftpCrashTest : ::testing::Test {
  TinyRig rig;
  std::unique_ptr<check::Auditor> audit;

  void SetUp() override {
    audit = std::make_unique<check::Auditor>(rig.eng);
  }

  std::unique_ptr<RftpSession> make_session(RftpConfig cfg) {
    EndpointConfig s{rig.proc_a.get(), {rig.dev_a.get()}};
    EndpointConfig r{rig.proc_b.get(), {rig.dev_b.get()}};
    return std::make_unique<RftpSession>(
        s, r, std::vector<net::Link*>{rig.link.get()}, cfg);
  }

  void expect_audit_ok() {
    audit->finalize();
    EXPECT_TRUE(audit->ok()) << audit_report(*audit);
  }
};

TEST_F(RftpCrashTest, SenderCrashRestartsAndCompletesExactly) {
  RftpConfig cfg;
  cfg.streams = 2;
  cfg.block_bytes = 1 << 20;
  auto sess = make_session(cfg);
  const std::uint64_t total = 64ull << 20;
  rig.eng.schedule_after(5 * sim::kMillisecond, [&] {
    sess->crash_host(0, 10 * sim::kMillisecond);
  });
  ZeroSource src(total);
  NullSink dst;
  const auto r = exp::run_task(rig.eng, sess->run(src, dst, total));
  EXPECT_TRUE(r.complete);
  EXPECT_TRUE(r.integrity_ok);
  EXPECT_EQ(r.bytes, total);
  EXPECT_EQ(r.crashes, 1u);
  EXPECT_EQ(r.resumes, 1u);
  // Goodput equals the file size exactly once: every block delivered,
  // none double-counted across the crash epoch.
  EXPECT_EQ(sess->blocks_delivered(), total / (1u << 20));
  expect_audit_ok();
}

TEST_F(RftpCrashTest, ReceiverCrashWithPerAckLedgerNeverRollsBack) {
  RftpConfig cfg;
  cfg.streams = 2;
  cfg.block_bytes = 1 << 20;
  cfg.checkpoint_blocks = 1;  // every ack durable
  auto sess = make_session(cfg);
  const std::uint64_t total = 64ull << 20;
  rig.eng.schedule_after(5 * sim::kMillisecond, [&] {
    sess->crash_host(1, 10 * sim::kMillisecond);
  });
  ZeroSource src(total);
  NullSink dst;
  const auto r = exp::run_task(rig.eng, sess->run(src, dst, total));
  EXPECT_TRUE(r.complete);
  EXPECT_TRUE(r.integrity_ok);
  EXPECT_EQ(r.bytes, total);
  EXPECT_EQ(r.crashes, 1u);
  EXPECT_EQ(r.resumes, 1u);
  // With checkpoint interval 1 nothing drained can be unledgered.
  EXPECT_EQ(sess->rolled_back_blocks, 0u);
  EXPECT_GT(sess->checkpoints, 0u);
  expect_audit_ok();
}

TEST_F(RftpCrashTest, ReceiverCrashRollsBackUnledgeredBlocksAndResends) {
  RftpConfig cfg;
  cfg.streams = 2;
  cfg.block_bytes = 1 << 20;
  cfg.checkpoint_blocks = 16;  // coarse ledger: drains sit exposed
  auto sess = make_session(cfg);
  const std::uint64_t total = 64ull << 20;
  rig.eng.schedule_after(5 * sim::kMillisecond, [&] {
    sess->crash_host(1, 10 * sim::kMillisecond);
  });
  ZeroSource src(total);
  NullSink dst;
  const auto r = exp::run_task(rig.eng, sess->run(src, dst, total));
  EXPECT_TRUE(r.complete);
  EXPECT_TRUE(r.integrity_ok);
  EXPECT_EQ(r.bytes, total);
  // Blocks drained after the last checkpoint were lost with the host and
  // re-sent after the restart; the audit's rollback accounting proves the
  // re-delivery was not double-counted.
  EXPECT_GT(sess->rolled_back_blocks, 0u);
  EXPECT_EQ(sess->blocks_delivered(), total / (1u << 20));
  expect_audit_ok();
}

// Zero source / null sink that log the offset of every call, in order.
struct RecordingSource final : DataSource {
  explicit RecordingSource(std::uint64_t total) : inner(total) {}
  sim::Task<std::uint64_t> fill(numa::Thread& th, mem::Buffer& buf,
                                std::uint64_t offset,
                                std::uint64_t len) override {
    fills.push_back(offset);
    co_return co_await inner.fill(th, buf, offset, len);
  }
  ZeroSource inner;
  std::vector<std::uint64_t> fills;
};
struct RecordingSink final : DataSink {
  sim::Task<> drain(numa::Thread& th, mem::Buffer& buf, std::uint64_t offset,
                    std::uint64_t len) override {
    drains.push_back(offset);
    co_await inner.drain(th, buf, offset, len);
  }
  NullSink inner;
  std::vector<std::uint64_t> drains;
};

TEST_F(RftpCrashTest, RolledBackBlocksAreResentInAscendingOrder) {
  // The rollback requeues drained-but-unledgered blocks in ascending block
  // order; with one stream the re-sends are filled in that order.
  RftpConfig cfg;
  cfg.streams = 1;
  cfg.block_bytes = 1 << 20;
  cfg.checkpoint_blocks = 16;
  auto sess = make_session(cfg);
  const std::uint64_t total = 64ull << 20;
  rig.eng.schedule_after(5 * sim::kMillisecond, [&] {
    sess->crash_host(1, 10 * sim::kMillisecond);
  });
  RecordingSource src(total);
  RecordingSink dst;
  const auto r = exp::run_task(rig.eng, sess->run(src, dst, total));
  EXPECT_TRUE(r.complete);
  ASSERT_GT(sess->rolled_back_blocks, 1u);
  // A block drained twice was rolled back; its second fill is the re-send.
  std::map<std::uint64_t, int> drained, filled;
  for (const std::uint64_t off : dst.drains) ++drained[off];
  std::vector<std::uint64_t> resent;
  for (const std::uint64_t off : src.fills)
    if (++filled[off] == 2 && drained[off] == 2) resent.push_back(off);
  EXPECT_EQ(resent.size(), sess->rolled_back_blocks);
  EXPECT_TRUE(std::is_sorted(resent.begin(), resent.end()));
  expect_audit_ok();
}

// A ledger interval that does not divide the claim period R = streams x
// credits_per_stream (2 x 8 = 16), so checkpoints fall mid-period and the
// crash rolls back a partial interval. The ledger outcome is pinned to
// values recorded before checkpoints became incremental, with
// fast-forward off (param false) and on (true). On this rig the restarted
// pipeline never settles into an R-periodic steady state, so the
// fast-forward leg checks that an armed, idle detector changes nothing.
struct RftpCrashLedgerTest : RftpCrashTest,
                             ::testing::WithParamInterface<bool> {};

TEST_P(RftpCrashLedgerTest, NonDividingIntervalKeepsRecordedLedger) {
  RftpConfig cfg;
  cfg.streams = 2;
  cfg.credits_per_stream = 8;
  cfg.block_bytes = 256 * 1024;
  cfg.checkpoint_blocks = 5;
  cfg.fast_forward = GetParam();
  cfg.ff_quiet_after = 20 * sim::kMillisecond;  // after the restart
  auto sess = make_session(cfg);
  const std::uint64_t total = 192ull << 20;
  rig.eng.schedule_after(6 * sim::kMillisecond, [&] {
    sess->crash_host(1, 2 * sim::kMillisecond);
  });
  ZeroSource src(total);
  NullSink dst;
  const auto r = exp::run_task(rig.eng, sess->run(src, dst, total));
  EXPECT_TRUE(r.complete);
  EXPECT_TRUE(r.integrity_ok);
  EXPECT_EQ(r.bytes, total);
  EXPECT_EQ(r.resumes, 1u);
  EXPECT_EQ(sess->checkpoints, 154u);
  EXPECT_EQ(sess->rolled_back_blocks, 3u);
  EXPECT_EQ(sess->sink_digest(), 14109405482504720321ull);
  expect_audit_ok();
}

INSTANTIATE_TEST_SUITE_P(FastForward, RftpCrashLedgerTest, ::testing::Bool());

TEST_F(RftpCrashTest, DisabledLedgerRestartsReceiverFromScratch) {
  RftpConfig cfg;
  cfg.streams = 1;
  cfg.block_bytes = 1 << 20;
  cfg.checkpoint_blocks = 0;  // no durability at all
  auto sess = make_session(cfg);
  const std::uint64_t total = 32ull << 20;
  rig.eng.schedule_after(5 * sim::kMillisecond, [&] {
    sess->crash_host(1, 5 * sim::kMillisecond);
  });
  ZeroSource src(total);
  NullSink dst;
  const auto r = exp::run_task(rig.eng, sess->run(src, dst, total));
  EXPECT_TRUE(r.complete);
  EXPECT_EQ(r.bytes, total);
  EXPECT_EQ(sess->checkpoints, 0u);
  // Everything drained before the crash rolled back: the ledger never
  // covered it.
  EXPECT_GT(sess->rolled_back_blocks, 0u);
  expect_audit_ok();
}

TEST_F(RftpCrashTest, PermanentCrashDegradesGracefullyViaWatchdog) {
  RftpConfig cfg;
  cfg.streams = 2;
  cfg.block_bytes = 1 << 20;
  cfg.watchdog.quiet = 5 * sim::kMillisecond;
  cfg.watchdog.max_quiet = 2;
  auto sess = make_session(cfg);
  const std::uint64_t total = 64ull << 20;
  rig.eng.schedule_after(5 * sim::kMillisecond, [&] {
    sess->crash_host(1, 0);  // the receiver never comes back
  });
  ZeroSource src(total);
  NullSink dst;
  const auto r = exp::run_task(rig.eng, sess->run(src, dst, total));
  // Terminal degradation, not a hang: the watchdog declared the peer dead
  // and the transfer reports its partial progress.
  EXPECT_FALSE(r.complete);
  EXPECT_GT(r.bytes, 0u);
  EXPECT_LT(r.bytes, total);
  EXPECT_EQ(r.crashes, 1u);
  EXPECT_EQ(r.resumes, 0u);
  EXPECT_TRUE(sess->watchdog().declared_dead());
  expect_audit_ok();
}

TEST_F(RftpCrashTest, PermanentCrashWithoutWatchdogFailsFast) {
  RftpConfig cfg;
  cfg.streams = 1;
  cfg.block_bytes = 1 << 20;
  cfg.watchdog.quiet = 0;  // no watchdog: crash_host fails the transfer
  auto sess = make_session(cfg);
  const std::uint64_t total = 32ull << 20;
  rig.eng.schedule_after(3 * sim::kMillisecond, [&] {
    sess->crash_host(0, 0);
  });
  ZeroSource src(total);
  NullSink dst;
  const auto r = exp::run_task(rig.eng, sess->run(src, dst, total));
  EXPECT_FALSE(r.complete);
  EXPECT_LT(r.bytes, total);
  expect_audit_ok();
}

TEST_F(RftpCrashTest, OverlappingCrashIsAbsorbedWhileDown) {
  RftpConfig cfg;
  cfg.streams = 2;
  cfg.block_bytes = 1 << 20;
  auto sess = make_session(cfg);
  const std::uint64_t total = 64ull << 20;
  // A second crash while the host is already down must be a no-op, not a
  // nested teardown of already-dead streams.
  rig.eng.schedule_after(5 * sim::kMillisecond, [&] {
    sess->crash_host(1, 10 * sim::kMillisecond);
  });
  rig.eng.schedule_after(7 * sim::kMillisecond, [&] {
    sess->crash_host(1, 10 * sim::kMillisecond);
  });
  ZeroSource src(total);
  NullSink dst;
  const auto r = exp::run_task(rig.eng, sess->run(src, dst, total));
  EXPECT_TRUE(r.complete);
  EXPECT_EQ(r.bytes, total);
  EXPECT_EQ(r.crashes, 1u);
  EXPECT_EQ(r.resumes, 1u);
  expect_audit_ok();
}

TEST_F(RftpCrashTest, CrashOnInvalidHostThrows) {
  RftpConfig cfg;
  auto sess = make_session(cfg);
  EXPECT_THROW(sess->crash_host(2, 0), std::out_of_range);
  EXPECT_THROW(sess->crash_host(-1, 0), std::out_of_range);
}

}  // namespace
}  // namespace e2e::rftp
