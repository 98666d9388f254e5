// Fault-path observability goldens with every sink on.
//
// The determinism and fleet goldens pin clean traces and seeded-chaos
// digests, but not the fault paths as all three outputs see them: the
// Chrome trace, the stats JSON and the flight-recorder dump. These legs run
// each fault path with a tracer (1 ms sampler) and a stats registry
// installed and pin FNV-1a of all three files:
//
//   * an RFTP transfer shaped like the CLI's `quick --streams 2` under a
//     scripted plan that exercises wire loss, a link flap, a receiver crash
//     with checkpoint resume, and a QP kill with stream failover;
//   * the lossy TCP connection and the faulted iSER write workload of the
//     determinism and flat-pending goldens.
//
// The hashes were recorded before trace and stats reporting were fused
// behind one probe call per incident; any byte a refactor moves fails here.
// The RFTP leg's trace and stats hashes were re-recorded once, when a
// disarmed watchdog stopped leaving its check queued: the run, its sampler
// and its sim_time_ns now end with the transfer. Every leg's trace and
// stats hashes were re-recorded once more when the sampler stopped being an
// event: no final tick moves sim_time_ns, and in the iSER leg no tick holds
// a set-up phase's run_task open to 1 ms, so the faults meet the workload
// 0.4 ms further along (its flight hash moved too).
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "exp/pair_fleet.hpp"
#include "exp/runner.hpp"
#include "fault/injector.hpp"
#include "fault/plan.hpp"
#include "iscsi/initiator.hpp"
#include "iscsi/target.hpp"
#include "iser/session.hpp"
#include "mem/tmpfs.hpp"
#include "rftp/session.hpp"
#include "rftp/source_sink.hpp"
#include "stats/registry.hpp"
#include "tcp/connection.hpp"
#include "testutil.hpp"
#include "trace/tracer.hpp"

namespace e2e {
namespace {

std::uint64_t fnv1a(std::string_view s) {
  std::uint64_t h = 1469598103934665603ull;
  for (const unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

struct Hashes {
  std::uint64_t trace = 0;
  std::uint64_t stats = 0;
  std::uint64_t flight = 0;
};

/// Installs a tracer (1 ms sampler) and a stats registry on one engine and
/// hashes their three outputs after the run.
struct Sinks {
  trace::Tracer tracer;
  stats::Registry registry;

  explicit Sinks(sim::Engine& eng) : tracer(eng), registry(eng) {
    registry.install();
    tracer.install();
    tracer.enable_resource_sampler(sim::kMillisecond);
  }

  Hashes hash() {
    tracer.sample_now();
    std::ostringstream t, s, f;
    tracer.write_chrome_trace(t);
    registry.write_json(s);
    registry.dump_flight(f);
    return {fnv1a(t.str()), fnv1a(s.str()), fnv1a(f.str())};
  }
};

constexpr const char* kRftpPlan =
    "loss@500ms:n=5;flap@1s:dur=20ms;qpkill@1500ms:qp=0;"
    "crash@1s:host=1,down=50ms";

Hashes run_rftp_chaos() {
  sim::Engine eng;
  exp::HostPair hp(eng, {"a", "b", "wire", "client", "server"},
                   &net::make_roce_lan);
  rftp::RftpConfig cfg;
  cfg.streams = 2;
  rftp::RftpSession sess({&hp.pa, {&hp.da}}, {&hp.pb, {&hp.db}},
                         {hp.link.get()}, cfg);
  const std::uint64_t bytes = 8ull << 30;
  rftp::MemorySource src(bytes, numa::Placement::on(0));
  rftp::MemorySink dst;
  Sinks sinks(eng);
  fault::FaultInjector inj(eng, fault::FaultPlan::parse(kRftpPlan));
  inj.attach(*hp.link);
  sess.attach(inj);
  inj.arm();
  const auto r = exp::run_task(eng, sess.run(src, dst, bytes));
  EXPECT_TRUE(r.complete);
  EXPECT_TRUE(r.integrity_ok);
  EXPECT_EQ(sess.failovers, 1u);
  EXPECT_EQ(r.resumes, 1u);
  return sinks.hash();
}

// Two loss bursts on the wire while 8 MiB crosses it: each dropped chunk
// costs an RTO and a retransmit.
constexpr const char* kTcpPlan = "loss@100us:n=2;loss@800us:n=1";

Hashes run_tcp_lossy() {
  test::TinyRig rig;
  Sinks sinks(rig.eng);
  tcp::Connection conn(*rig.a, 0, *rig.b, 0, *rig.link);
  fault::FaultInjector inj(rig.eng, fault::FaultPlan::parse(kTcpPlan));
  inj.attach(*rig.link);
  inj.arm();
  numa::Thread& tx = rig.proc_a->spawn_thread();
  numa::Thread& rx = rig.proc_b->spawn_thread();
  auto sender = [](tcp::Connection& c, numa::Thread& th) -> sim::Task<> {
    for (int i = 0; i < 32; ++i)
      co_await c.send(th, numa::Placement::on(0), 256 * 1024);
    c.shutdown(th);
  };
  auto receiver = [](tcp::Connection& c,
                     numa::Thread& th) -> sim::Task<std::uint64_t> {
    std::uint64_t total = 0;
    for (;;) {
      const std::uint64_t n = co_await c.recv(th, numa::Placement::on(0));
      if (n == 0) co_return total;
      total += n;
    }
  };
  sim::co_spawn(sender(conn, tx));
  EXPECT_EQ(exp::run_task(rig.eng, receiver(conn, rx)), 32u * 256 * 1024);
  EXPECT_GT(conn.retransmits(), 0u);
  return sinks.hash();
}

Hashes run_iser_faulted() {
  test::TinyRig rig;
  Sinks sinks(rig.eng);
  mem::Tmpfs fs(*rig.b);
  auto& f = fs.create("lun0", 256 << 20, numa::MemPolicy::kBind, 0);
  scsi::Lun lun(0, fs, f);
  iser::IserSession session(*rig.dev_a, *rig.dev_b, *rig.link, *rig.proc_a,
                            *rig.proc_b);
  mem::BufferPool staging(*rig.b, "staging", 4, 1 << 20,
                          numa::MemPolicy::kBind, 0);
  staging.mark_registered();
  iscsi::Target target(*rig.proc_b, session.target_ep(),
                       std::vector<scsi::Lun*>{&lun}, staging);
  iscsi::Initiator initiator(*rig.proc_a, session.initiator_ep(),
                             2 * sim::kMillisecond, iscsi::RetryPolicy{});
  numa::Thread& ith = rig.proc_a->spawn_thread();
  numa::Thread& tth = rig.proc_b->spawn_thread();
  exp::run_task(rig.eng, session.start(ith, tth));
  target.start(2);
  iscsi::LoginParams params;
  EXPECT_TRUE(exp::run_task(rig.eng, initiator.login(ith, params)));
  initiator.start_dispatcher(ith);
  iser::SessionRecoveryPolicy rp;
  rp.mr_bytes_initiator = 4 << 20;
  rp.mr_bytes_target = 4 << 20;
  session.enable_recovery(ith, tth, rp);

  fault::FaultPlan::RandomParams p;
  p.horizon = 100 * sim::kMillisecond;
  p.links = 1;
  p.qps = 1;
  p.loss_bursts = 3;
  p.max_burst = 4;
  p.flaps = 1;
  p.max_flap = 5 * sim::kMillisecond;
  p.spikes = 1;
  p.max_spike = 10 * sim::kMillisecond;
  p.max_extra_latency = sim::kMillisecond;
  p.holes = 1;
  p.max_hole = 3 * sim::kMillisecond;
  p.qp_kills = 1;
  fault::FaultInjector inj(rig.eng, fault::FaultPlan::random(11, p));
  inj.attach(*rig.link);
  inj.set_qp_kill_handler([&session](int) { session.kill(); });
  inj.arm();

  auto buf = test::make_buffer(*rig.a, 1 << 20, 0);
  auto drive = [](iscsi::Initiator& init, numa::Thread& th,
                  mem::Buffer& b) -> sim::Task<int> {
    constexpr std::uint32_t kBlocks = (1u << 20) / 512;
    int bad = 0;
    for (int i = 0; i < 48; ++i) {
      const auto st = co_await init.submit_write(
          th, 0, std::uint64_t{static_cast<unsigned>(i)} * kBlocks, kBlocks,
          b);
      if (st != scsi::Status::kGood) ++bad;
    }
    co_return bad;
  };
  EXPECT_EQ(exp::run_task(rig.eng, drive(initiator, ith, buf)), 0);
  rig.eng.run();
  EXPECT_GE(session.recoveries(), 1u);
  return sinks.hash();
}

void expect_hashes(const Hashes& got, const Hashes& want) {
  EXPECT_EQ(got.trace, want.trace)
      << "trace bytes changed; new hash=0x" << std::hex << got.trace;
  EXPECT_EQ(got.stats, want.stats)
      << "stats JSON changed; new hash=0x" << std::hex << got.stats;
  EXPECT_EQ(got.flight, want.flight)
      << "flight dump changed; new hash=0x" << std::hex << got.flight;
}

TEST(FaultPathGolden, RftpCrashResumeFailover) {
  expect_hashes(run_rftp_chaos(), {0x53e4ffb9944210ffull, 0x25d7686899be3065ull,
                                  0x974f4b550e9d7c3dull});
}

TEST(FaultPathGolden, LossyTcp) {
  expect_hashes(run_tcp_lossy(), {0x884acf1775286a83ull, 0xf18e34f401df8066ull,
                                 0x4109e38b2ca401bdull});
}

TEST(FaultPathGolden, FaultedIser) {
  expect_hashes(run_iser_faulted(), {0xeb6e3a4d981848ebull, 0x28929546a853f4adull,
                                    0x0b7a054c885b3690ull});
}

}  // namespace
}  // namespace e2e
