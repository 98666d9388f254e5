// Chaos suite: every transfer mode (rftp, iSER, TCP/iSCSI) completes a
// multi-GB simulated transfer under a seeded random FaultPlan — loss
// bursts, a link flap, a latency spike, a blackhole and a QP kill — with
// end-to-end integrity verified at the sink and no hang. The seed comes
// from E2E_CHAOS_SEED (CI sweeps a matrix of seeds); the same seed must
// reproduce byte-identical traces.
#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "check/audit.hpp"
#include "exp/runner.hpp"
#include "fault/injector.hpp"
#include "fault/integrity.hpp"
#include "fault/plan.hpp"
#include "iscsi/initiator.hpp"
#include "iscsi/target.hpp"
#include "iscsi/tcp_datamover.hpp"
#include "iser/session.hpp"
#include "rftp/rftp.hpp"
#include "testutil.hpp"
#include "trace/tracer.hpp"

namespace e2e::fault {
namespace {

using e2e::test::TinyRig;
using e2e::test::make_buffer;

std::string audit_report(const check::Auditor& au) {
  std::ostringstream os;
  au.report(os);
  return os.str();
}

std::uint64_t chaos_seed() {
  const char* s = std::getenv("E2E_CHAOS_SEED");
  if (s == nullptr || *s == '\0') return 1;
  return std::strtoull(s, nullptr, 10);
}

/// A plan with the acceptance mix — loss bursts, one flap, one spike, one
/// blackhole, one QP kill — spread over the first `horizon` of the run.
FaultPlan chaos_plan(std::uint64_t seed, sim::SimDuration horizon, int qps) {
  FaultPlan::RandomParams p;
  p.horizon = horizon;
  p.links = 1;
  p.qps = qps;
  p.loss_bursts = 4;
  p.max_burst = 6;
  p.flaps = 1;
  p.max_flap = 10 * sim::kMillisecond;
  p.spikes = 1;
  p.max_spike = 20 * sim::kMillisecond;
  p.max_extra_latency = sim::kMillisecond;
  p.holes = 1;
  p.max_hole = 5 * sim::kMillisecond;
  p.qp_kills = 1;
  return FaultPlan::random(seed, p);
}

// ---------------------------------------------------------------------------
// rftp

struct RftpChaosOutcome {
  rftp::TransferResult result;
  std::uint64_t failovers = 0;
  std::uint64_t retransmissions = 0;
  std::uint64_t faults_injected = 0;
  std::string chrome_trace;
};

RftpChaosOutcome run_rftp_chaos(std::uint64_t seed, std::uint64_t total,
                                bool with_trace) {
  TinyRig rig;
  // Full invariant audit rides along on every chaos run: faulted paths are
  // exactly where conservation bugs hide.
  check::Auditor audit(rig.eng);
  trace::Tracer tracer(rig.eng);
  if (with_trace) tracer.install();

  rftp::RftpConfig cfg;
  cfg.streams = 3;
  cfg.block_bytes = 4 << 20;
  rftp::EndpointConfig snd{rig.proc_a.get(), {rig.dev_a.get()}};
  rftp::EndpointConfig rcv{rig.proc_b.get(), {rig.dev_b.get()}};
  rftp::RftpSession sess(snd, rcv, {rig.link.get()}, cfg);

  // ~80% of the transfer's expected duration at line rate, so every event
  // lands while data is still moving.
  const auto horizon = static_cast<sim::SimDuration>(total / 6);
  FaultInjector inj(rig.eng, chaos_plan(seed, horizon, cfg.streams));
  inj.attach(*rig.link);
  sess.attach(inj);
  inj.arm();

  rftp::ZeroSource src(total);
  rftp::NullSink dst;
  RftpChaosOutcome out;
  out.result = exp::run_task(rig.eng, sess.run(src, dst, total));
  rig.eng.run();  // drain any fault events scheduled past the transfer
  out.failovers = sess.failovers;
  out.retransmissions = sess.retransmissions;
  out.faults_injected = inj.faults_injected();
  audit.finalize();
  EXPECT_TRUE(audit.ok()) << audit_report(audit);
  if (with_trace) {
    std::ostringstream os;
    tracer.write_chrome_trace(os);
    out.chrome_trace = os.str();
  }
  return out;
}

TEST(ChaosRftp, MultiGbTransferSurvivesSeededPlan) {
  const std::uint64_t total = 2ull << 30;  // 2 GiB
  const auto out = run_rftp_chaos(chaos_seed(), total, false);
  EXPECT_TRUE(out.result.complete);
  EXPECT_TRUE(out.result.integrity_ok);
  EXPECT_EQ(out.result.bytes, total);
  EXPECT_EQ(out.result.blocks, total / (4u << 20));
  // The plan's QP kill fired and was survived by failover.
  EXPECT_GE(out.failovers, 1u);
  EXPECT_GE(out.faults_injected, 5u);  // 4 loss + flap + spike + hole + kill
}

TEST(ChaosRftp, SameSeedReproducesByteIdenticalTrace) {
  const std::uint64_t total = 256ull << 20;
  const auto a = run_rftp_chaos(chaos_seed(), total, true);
  const auto b = run_rftp_chaos(chaos_seed(), total, true);
  ASSERT_FALSE(a.chrome_trace.empty());
  EXPECT_EQ(a.chrome_trace, b.chrome_trace);
  EXPECT_EQ(a.failovers, b.failovers);
  EXPECT_EQ(a.retransmissions, b.retransmissions);
  // And the trace records the injected faults on the fault layer.
  EXPECT_NE(a.chrome_trace.find("\"fault\""), std::string::npos);
}

// ---------------------------------------------------------------------------
// iSCSI write workload shared by the iSER and TCP modes: n_cmds sequential
// WRITEs at distinct LBAs. Returns the count of non-GOOD statuses and
// accumulates the analytically expected integrity digest.

sim::Task<int> drive_writes(iscsi::Initiator& init, numa::Thread& th,
                            int n_cmds, std::uint32_t blocks_per_cmd,
                            mem::Buffer& buf, std::uint64_t& expected) {
  int bad = 0;
  for (int i = 0; i < n_cmds; ++i) {
    const std::uint64_t lba = std::uint64_t{static_cast<unsigned>(i)} *
                              blocks_per_cmd;
    const auto st = co_await init.submit_write(th, 0, lba, blocks_per_cmd,
                                               buf);
    if (st != scsi::Status::kGood) ++bad;
    else expected ^= block_range_tag(lba, blocks_per_cmd);
  }
  co_return bad;
}

/// The iSER chaos rig shared by the WRITE and verified-READ workloads: a
/// 2 GiB LUN behind one iSER session with a recovery supervisor, under the
/// seeded plan.
struct IserChaos {
  explicit IserChaos(iscsi::RetryPolicy policy)
      : initiator(*rig.proc_a, session.initiator_ep(), 2 * sim::kMillisecond,
                  policy) {
    staging.mark_registered();
  }

  /// Session up, login, dispatcher, recovery supervisor, then the plan is
  /// armed. False when the login fails.
  bool start() {
    exp::run_task(rig.eng, session.start(ith, tth));
    target.start(2);
    iscsi::LoginParams params;
    if (!exp::run_task(rig.eng, initiator.login(ith, params))) return false;
    initiator.start_dispatcher(ith);
    iser::SessionRecoveryPolicy rp;
    rp.mr_bytes_initiator = 4 << 20;
    rp.mr_bytes_target = 4 << 20;
    session.enable_recovery(ith, tth, rp);
    inj.attach(*rig.link);
    inj.set_qp_kill_handler([this](int) { session.kill(); });
    inj.arm();
    return true;
  }

  TinyRig rig;
  check::Auditor audit{rig.eng};
  mem::Tmpfs tgt_fs{*rig.b};
  scsi::Lun lun{0, tgt_fs,
                tgt_fs.create("lun0", 2ull << 30, numa::MemPolicy::kBind, 0)};
  iser::IserSession session{*rig.dev_a, *rig.dev_b, *rig.link, *rig.proc_a,
                            *rig.proc_b};
  mem::BufferPool staging{*rig.b, "staging", 4, 1 << 20,
                          numa::MemPolicy::kBind, 0};
  iscsi::Target target{*rig.proc_b, session.target_ep(),
                       std::vector<scsi::Lun*>{&lun}, staging};
  iscsi::Initiator initiator;
  numa::Thread& ith = rig.proc_a->spawn_thread();
  numa::Thread& tth = rig.proc_b->spawn_thread();
  FaultInjector inj{rig.eng,
                    chaos_plan(chaos_seed(), 400 * sim::kMillisecond, 1)};
};

TEST(ChaosIser, MultiGbWriteWorkloadSurvivesSeededPlan) {
  IserChaos c(iscsi::RetryPolicy{});  // capped retries absorb the losses
  ASSERT_TRUE(c.start());

  // 2 GiB: 512 x 4 MiB WRITEs at distinct LBAs.
  const int n_cmds = 512;
  const std::uint32_t blocks_per_cmd = (4u << 20) / 512;
  auto buf = make_buffer(*c.rig.a, 4 << 20, 0);
  std::uint64_t expected = 0;
  const int bad = exp::run_task(
      c.rig.eng,
      drive_writes(c.initiator, c.ith, n_cmds, blocks_per_cmd, buf, expected));
  c.rig.eng.run();

  EXPECT_EQ(bad, 0);
  EXPECT_GE(c.inj.faults_injected(), 5u);
  EXPECT_GE(c.session.recoveries(), 1u);  // the QP kill was recovered
  EXPECT_FALSE(c.session.abandoned());
  // Every logical block executed exactly once despite retransmissions:
  // each 4 MiB command lands as four 1 MiB staging segments, and the
  // XOR ledger composes segment tags back to the per-command range tag.
  EXPECT_EQ(c.lun.writes_executed(), 4u * static_cast<std::uint64_t>(n_cmds));
  EXPECT_EQ(c.lun.written_digest(), expected);
  c.audit.finalize();
  EXPECT_TRUE(c.audit.ok()) << audit_report(c.audit);
}

// READ workload for the verified-READ path: n_cmds sequential READs at
// distinct LBAs into one buffer, its tag reset before each. Returns the
// count of non-GOOD statuses and of landed tags that do not match the
// analytic block-range tag.
sim::Task<int> drive_reads(iscsi::Initiator& init, numa::Thread& th,
                           int n_cmds, std::uint32_t blocks_per_cmd,
                           mem::Buffer& buf) {
  int bad = 0;
  for (int i = 0; i < n_cmds; ++i) {
    const std::uint64_t lba = std::uint64_t{static_cast<unsigned>(i)} *
                              blocks_per_cmd;
    buf.content_tag = 0;
    const auto st = co_await init.submit_read(th, 0, lba, blocks_per_cmd,
                                              buf);
    if (st != scsi::Status::kGood ||
        buf.content_tag != block_range_tag(lba, blocks_per_cmd))
      ++bad;
  }
  co_return bad;
}

TEST(ChaosIser, VerifiedReadWorkloadSurvivesSeededPlan) {
  // Lost Data-In deliveries leave the landed tag short even when the
  // control path replays a GOOD response: the digest check re-drives them.
  iscsi::RetryPolicy policy;
  policy.verify_read_digest = true;
  IserChaos c(policy);
  ASSERT_TRUE(c.start());

  // 2 GiB: 512 x 4 MiB READs at distinct LBAs.
  const int n_cmds = 512;
  const std::uint32_t blocks_per_cmd = (4u << 20) / 512;
  auto buf = make_buffer(*c.rig.a, 4 << 20, 0);
  const int bad = exp::run_task(
      c.rig.eng, drive_reads(c.initiator, c.ith, n_cmds, blocks_per_cmd, buf));
  c.rig.eng.run();

  EXPECT_EQ(bad, 0);
  EXPECT_GE(c.inj.faults_injected(), 5u);
  EXPECT_FALSE(c.session.abandoned());
  EXPECT_EQ(c.initiator.command_failures(), 0u);
  // The plan's losses reach Data-In on every CI seed (1..48): the digest
  // check, not luck, is what kept the landed tags whole.
  EXPECT_GE(c.initiator.digest_errors(), 1u);
  c.audit.finalize();
  EXPECT_TRUE(c.audit.ok()) << audit_report(c.audit);
}

TEST(ChaosTcp, MultiGbWriteWorkloadSurvivesSeededPlan) {
  TinyRig rig;
  check::Auditor audit(rig.eng);
  auto tgt_fs = std::make_unique<mem::Tmpfs>(*rig.b);
  auto& f = tgt_fs->create("lun0", 2ull << 30, numa::MemPolicy::kBind, 0);
  scsi::Lun lun(0, *tgt_fs, f);
  iscsi::TcpSession session(*rig.a, 0, *rig.b, 0, *rig.link, *rig.proc_a,
                            *rig.proc_b);
  mem::BufferPool staging(*rig.b, "staging", 4, 1 << 20,
                          numa::MemPolicy::kBind, 0);
  iscsi::Target target(*rig.proc_b, session.target_ep(),
                       std::vector<scsi::Lun*>{&lun}, staging);
  iscsi::RetryPolicy policy;
  iscsi::Initiator initiator(*rig.proc_a, session.initiator_ep(),
                             5 * sim::kMillisecond, policy);
  numa::Thread& ith = rig.proc_a->spawn_thread();
  numa::Thread& tth = rig.proc_b->spawn_thread();
  numa::Thread& itx = rig.proc_a->spawn_thread();
  numa::Thread& ttx = rig.proc_b->spawn_thread();
  exp::run_task(rig.eng, session.start(ith, itx, tth, ttx));
  target.start(2);
  iscsi::LoginParams params;
  ASSERT_TRUE(exp::run_task(rig.eng, initiator.login(ith, params)));
  initiator.start_dispatcher(ith);

  // Same plan shape; the qpkill event has no QP to hit on the TCP path and
  // is counted as skipped — the wire faults are all absorbed inside TCP.
  FaultInjector inj(rig.eng,
                    chaos_plan(chaos_seed(), 400 * sim::kMillisecond, 1));
  inj.attach(*rig.link);
  inj.arm();

  const int n_cmds = 512;
  const std::uint32_t blocks_per_cmd = (4u << 20) / 512;
  auto buf = make_buffer(*rig.a, 4 << 20, 0);
  std::uint64_t expected = 0;
  const int bad = exp::run_task(
      rig.eng,
      drive_writes(initiator, ith, n_cmds, blocks_per_cmd, buf, expected));
  rig.eng.run();

  EXPECT_EQ(bad, 0);
  EXPECT_GE(inj.faults_injected(), 4u);
  EXPECT_EQ(inj.skipped_events(), 1u);  // the qpkill, by design
  EXPECT_EQ(lun.writes_executed(), 4u * static_cast<std::uint64_t>(n_cmds));
  EXPECT_EQ(lun.written_digest(), expected);
  audit.finalize();
  EXPECT_TRUE(audit.ok()) << audit_report(audit);
}

}  // namespace
}  // namespace e2e::fault
