// Crash chaos suite (ctest -L crash): host crash-stops composed with the
// existing wire-fault chaos — a crash landing inside a link flap, a QP
// kill racing a restart, and seeded random plans mixing crashes with loss
// bursts, flaps, spikes, blackholes and QP kills. Every run is audited;
// the cross-epoch conservation rules (acked bytes never double-counted,
// exactly-once block delivery across resume) must hold on every seed, and
// the same seed must reproduce byte-identical trace and stats output.
// The seed comes from E2E_CHAOS_SEED (CI sweeps a 16-seed matrix).
#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <sstream>
#include <string>

#include "check/audit.hpp"
#include "exp/runner.hpp"
#include "fault/injector.hpp"
#include "fault/plan.hpp"
#include "rftp/rftp.hpp"
#include "stats/registry.hpp"
#include "testutil.hpp"
#include "trace/tracer.hpp"

namespace e2e::fault {
namespace {

using e2e::test::TinyRig;

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

struct CrashChaosOutcome {
  rftp::TransferResult result;
  std::uint64_t failovers = 0;
  std::uint64_t rolled_back = 0;
  std::uint64_t faults_injected = 0;
  std::string chrome_trace;
  std::string stats_json;
};

/// One audited rftp run under `plan`, with the crash handler wired. The
/// auditor's finalize() gates the whole suite: any conservation violation
/// across a crash epoch fails the test.
CrashChaosOutcome run_crash_chaos(const FaultPlan& plan, std::uint64_t total,
                                  int checkpoint_blocks, bool with_trace) {
  TinyRig rig;
  check::Auditor audit(rig.eng);
  trace::Tracer tracer(rig.eng);
  stats::Registry stats(rig.eng);
  if (with_trace) {
    tracer.install();
    stats.install();
  }

  rftp::RftpConfig cfg;
  cfg.streams = 3;
  cfg.block_bytes = 4 << 20;
  cfg.checkpoint_blocks = checkpoint_blocks;
  rftp::EndpointConfig snd{rig.proc_a.get(), {rig.dev_a.get()}};
  rftp::EndpointConfig rcv{rig.proc_b.get(), {rig.dev_b.get()}};
  rftp::RftpSession sess(snd, rcv, {rig.link.get()}, cfg);

  FaultInjector inj(rig.eng, plan);
  inj.attach(*rig.link);
  sess.attach(inj);
  inj.arm();

  rftp::ZeroSource src(total);
  rftp::NullSink dst;
  CrashChaosOutcome out;
  out.result = exp::run_task(rig.eng, sess.run(src, dst, total));
  rig.eng.run();  // drain fault/restart events scheduled past the transfer
  out.failovers = sess.failovers;
  out.rolled_back = sess.rolled_back_blocks;
  out.faults_injected = inj.faults_injected();
  audit.finalize();
  EXPECT_TRUE(audit.ok()) << audit_report(audit);
  if (with_trace) {
    std::ostringstream ts, ss;
    tracer.write_chrome_trace(ts);
    out.chrome_trace = ts.str();
    stats.write_json(ss);
    out.stats_json = ss.str();
  }
  return out;
}

/// The composed seeded mix: wire chaos plus two host crashes.
FaultPlan crash_chaos_plan(std::uint64_t seed, sim::SimDuration horizon) {
  FaultPlan::RandomParams p;
  p.horizon = horizon;
  p.links = 1;
  p.qps = 3;
  p.loss_bursts = 3;
  p.max_burst = 5;
  p.flaps = 1;
  p.max_flap = 10 * sim::kMillisecond;
  p.spikes = 1;
  p.max_spike = 20 * sim::kMillisecond;
  p.max_extra_latency = sim::kMillisecond;
  p.holes = 1;
  p.max_hole = 5 * sim::kMillisecond;
  p.qp_kills = 1;
  p.hosts = 2;
  p.crashes = 2;
  p.max_down = 30 * sim::kMillisecond;
  return FaultPlan::random(seed, p);
}

TEST(CrashChaos, CrashLandingInsideLinkFlapResumes) {
  // The receiver crashes 5 ms into a 20 ms link flap: restart and resume
  // negotiation begin while the wire is still down.
  const auto plan = FaultPlan::parse(
      "flap@10ms:dur=20ms; crash@15ms:host=1,down=10ms");
  const std::uint64_t total = 256ull << 20;
  const auto out = run_crash_chaos(plan, total, 1, false);
  EXPECT_TRUE(out.result.complete);
  EXPECT_TRUE(out.result.integrity_ok);
  EXPECT_EQ(out.result.bytes, total);
  EXPECT_EQ(out.result.crashes, 1u);
  EXPECT_EQ(out.result.resumes, 1u);
}

TEST(CrashChaos, QpKillRacingARestart) {
  // The sender crashes and restarts; a QP kill lands after the streams
  // revive (restart at 18 ms plus re-establish and MR re-pin), so the
  // failover machinery runs against a fresh epoch.
  const auto plan = FaultPlan::parse(
      "crash@10ms:host=0,down=8ms; qpkill@30ms:qp=1");
  const std::uint64_t total = 256ull << 20;
  const auto out = run_crash_chaos(plan, total, 1, false);
  EXPECT_TRUE(out.result.complete);
  EXPECT_TRUE(out.result.integrity_ok);
  EXPECT_EQ(out.result.bytes, total);
  EXPECT_EQ(out.result.crashes, 1u);
  EXPECT_EQ(out.result.resumes, 1u);
  EXPECT_GE(out.failovers, 1u);
}

TEST(CrashChaos, QpKillDuringDowntimeIsAbsorbed) {
  // The kill fires while every stream is already crash-dead: it must be
  // swallowed, and the restart must still revive the full stream set.
  const auto plan = FaultPlan::parse(
      "crash@10ms:host=1,down=10ms; qpkill@15ms:qp=0");
  const std::uint64_t total = 128ull << 20;
  const auto out = run_crash_chaos(plan, total, 1, false);
  EXPECT_TRUE(out.result.complete);
  EXPECT_EQ(out.result.bytes, total);
  EXPECT_EQ(out.result.resumes, 1u);
}

TEST(CrashChaos, SeededCompositionSurvivesWithCoarseLedger) {
  const std::uint64_t total = 1ull << 30;
  const auto horizon = static_cast<sim::SimDuration>(total / 6);
  const auto plan = crash_chaos_plan(chaos_seed(), horizon);
  const auto out = run_crash_chaos(plan, total, 8, false);
  EXPECT_TRUE(out.result.complete);
  EXPECT_TRUE(out.result.integrity_ok);
  EXPECT_EQ(out.result.bytes, total);
  EXPECT_EQ(out.result.blocks, total / (4u << 20));
  EXPECT_GE(out.result.crashes, 1u);
  EXPECT_EQ(out.result.resumes, out.result.crashes);
  EXPECT_GE(out.faults_injected, 7u);
}

TEST(CrashChaos, SameSeedReproducesByteIdenticalTraceAndStats) {
  const std::uint64_t total = 256ull << 20;
  const auto horizon = static_cast<sim::SimDuration>(total / 6);
  const auto plan = crash_chaos_plan(chaos_seed(), horizon);
  const auto a = run_crash_chaos(plan, total, 4, true);
  const auto b = run_crash_chaos(plan, total, 4, true);
  ASSERT_FALSE(a.chrome_trace.empty());
  EXPECT_EQ(a.chrome_trace, b.chrome_trace);
  EXPECT_EQ(a.stats_json, b.stats_json);
  EXPECT_EQ(a.failovers, b.failovers);
  EXPECT_EQ(a.rolled_back, b.rolled_back);
  EXPECT_EQ(a.result.crashes, b.result.crashes);
  // The crash epoch is visible in the trace.
  EXPECT_NE(a.chrome_trace.find("crash"), std::string::npos);
}

}  // namespace
}  // namespace e2e::fault
