// Golden equivalence suite for --fast-forward (rftp::FastForward).
//
// The fast-forward contract is exactness on final metrics: a collapsed run
// must end with bit-identical transfer results, byte ledgers, XOR content
// digest, credit/claim counters, and exit-determining flags to the
// event-exact run — not merely close. Each case here runs the same
// transfer twice on fresh rigs (event-exact, then --fast-forward) across
// multiple sizes and fault seeds, on a tiny LAN rig and on the 95 ms WAN
// loop, clean and under scripted mid-run faults, with the cross-layer
// auditor and a stats registry installed on both runs, and compares every
// observable end-state field and the registry's JSON report. Clean bulk
// cases additionally assert the detector actually engaged (spans > 0) so
// this suite cannot rot into vacuously comparing two event-exact runs.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "check/audit.hpp"
#include "exp/runner.hpp"
#include "exp/testbeds.hpp"
#include "fault/injector.hpp"
#include "fault/plan.hpp"
#include "metrics/throughput.hpp"
#include "rftp/rftp.hpp"
#include "stats/registry.hpp"
#include "trace/tracer.hpp"
#include "testutil.hpp"

namespace e2e::rftp {
namespace {

/// Every end-of-run observable the equivalence contract covers.
struct Outcome {
  std::uint64_t bytes = 0;
  std::uint64_t blocks = 0;
  double elapsed_s = 0.0;
  double goodput_gbps = 0.0;
  bool complete = false;
  bool integrity_ok = false;
  std::uint64_t crashes = 0;
  std::uint64_t resumes = 0;
  std::uint64_t digest = 0;
  std::uint64_t delivered = 0;
  std::uint64_t control_msgs = 0;
  std::uint64_t stolen_claims = 0;
  std::uint64_t local_claims = 0;
  std::uint64_t retransmissions = 0;
  std::uint64_t grant_retransmissions = 0;
  std::uint64_t failovers = 0;
  std::uint64_t checksum_failures = 0;
  std::uint64_t duplicate_blocks = 0;
  std::uint64_t host_crashes = 0;
  std::uint64_t checkpoints = 0;
  std::uint64_t rolled_back_blocks = 0;
  // Both hosts' whole-host CPU time, per metrics::CpuCategory.
  std::vector<sim::SimDuration> cpu_ns;
  bool audit_ok = false;
  // Engagement accounting: excluded from operator== (the one legitimate
  // difference between the two runs), asserted separately.
  std::uint64_t ff_spans = 0;
  std::uint64_t ff_blocks = 0;
  // The stats registry's write_json() without its flight_records line (the
  // flight ring is a trace, deliberately not advanced), and each stream's
  // credit_wait_ns sum. Compared separately: see expect_equivalent.
  std::vector<std::string> stats;
  std::vector<std::uint64_t> credit_wait_sums;
  // The attached ThroughputMeter, if any (empty/zero otherwise).
  std::vector<double> meter_series;
  std::uint64_t meter_bytes = 0;
  double meter_active_gbps = 0.0;

  bool operator==(const Outcome& o) const {
    return bytes == o.bytes && blocks == o.blocks &&
           elapsed_s == o.elapsed_s && goodput_gbps == o.goodput_gbps &&
           complete == o.complete && integrity_ok == o.integrity_ok &&
           crashes == o.crashes && resumes == o.resumes &&
           digest == o.digest && delivered == o.delivered &&
           control_msgs == o.control_msgs &&
           stolen_claims == o.stolen_claims &&
           local_claims == o.local_claims &&
           retransmissions == o.retransmissions &&
           grant_retransmissions == o.grant_retransmissions &&
           failovers == o.failovers &&
           checksum_failures == o.checksum_failures &&
           duplicate_blocks == o.duplicate_blocks &&
           host_crashes == o.host_crashes &&
           checkpoints == o.checkpoints &&
           rolled_back_blocks == o.rolled_back_blocks &&
           cpu_ns == o.cpu_ns && audit_ok == o.audit_ok &&
           meter_series == o.meter_series && meter_bytes == o.meter_bytes &&
           meter_active_gbps == o.meter_active_gbps;
  }
};

std::ostream& operator<<(std::ostream& os, const Outcome& o) {
  os << "bytes=" << o.bytes << " blocks=" << o.blocks
     << " elapsed=" << o.elapsed_s << " goodput=" << o.goodput_gbps
     << " complete=" << o.complete << " integrity=" << o.integrity_ok
     << " crashes=" << o.crashes << " resumes=" << o.resumes
     << " digest=" << o.digest << " delivered=" << o.delivered
     << " ctl=" << o.control_msgs << " stolen=" << o.stolen_claims
     << " local=" << o.local_claims
     << " retrans=" << o.retransmissions
     << " grant_retrans=" << o.grant_retransmissions
     << " failovers=" << o.failovers
     << " cksum_fail=" << o.checksum_failures
     << " dups=" << o.duplicate_blocks
     << " host_crashes=" << o.host_crashes
     << " ckpts=" << o.checkpoints
     << " rolled_back=" << o.rolled_back_blocks
     << " audit_ok=" << o.audit_ok << " ff_spans=" << o.ff_spans
     << " ff_blocks=" << o.ff_blocks << " meter_bytes=" << o.meter_bytes
     << " meter_bins=" << o.meter_series.size()
     << " meter_active=" << o.meter_active_gbps << " cpu_ns=";
  for (const sim::SimDuration ns : o.cpu_ns) os << ns << ' ';
  return os;
}

struct Case {
  std::uint64_t total_bytes = 0;
  std::string plan_spec;       // scripted plan, "" = none
  std::uint64_t fault_seed = 0;  // != 0: seeded random plan instead
  int checkpoint_blocks = 1;
  // false: test::TinyRig, 2 streams x 8 credits x 256 KiB blocks.
  // true: exp::WanTestbed (95 ms loop), the CLI `wan` defaults of
  // 4 streams x 16 credits x 4 MiB blocks.
  bool wan = false;
  // Installs a trace::Tracer on both runs.
  bool tracer = false;
  // Block homes: none (every block in the shared queue), all on node 0
  // (the fillers' node: local claims), or the first half on node 0 and
  // the rest on node 1 (local claims plus steady stealing).
  enum class Homes : std::uint8_t { kNone, kNode0, kSplit };
  Homes homes = Homes::kNone;
  // != 0: a ThroughputMeter with this bin width records both runs.
  sim::SimDuration meter_bin = 0;
};

/// MemorySource's data path with per-node homes: bytes below `split` are
/// homed on node 0, the rest on node 1.
class HomedSource final : public DataSource {
 public:
  HomedSource(std::uint64_t total, std::uint64_t split)
      : mem_(total, numa::Placement::on(0)), split_(split) {}
  sim::Task<std::uint64_t> fill(numa::Thread& th, mem::Buffer& buf,
                                std::uint64_t offset,
                                std::uint64_t len) override {
    return mem_.fill(th, buf, offset, len);
  }
  Home home(std::uint64_t offset, std::uint64_t len) const override {
    (void)len;
    if (offset < split_) return Home{0, split_};
    return Home{1, UINT64_MAX};
  }

 private:
  MemorySource mem_;
  std::uint64_t split_;
};

std::optional<fault::FaultPlan> make_plan(const Case& c, int streams) {
  if (!c.plan_spec.empty())
    return fault::FaultPlan::parse(c.plan_spec);
  if (c.fault_seed != 0) {
    fault::FaultPlan::RandomParams p;
    p.horizon = 30 * sim::kMillisecond;
    p.links = 1;
    p.qps = streams;
    p.loss_bursts = 3;
    p.max_burst = 4;
    p.max_extra_latency = sim::kMillisecond;
    p.holes = 1;
    p.max_hole = 2 * sim::kMillisecond;
    p.qp_kills = 1;
    return fault::FaultPlan::random(c.fault_seed, p);
  }
  return std::nullopt;
}

Outcome run_once(const Case& c, bool fast_forward) {
  std::optional<test::TinyRig> tiny;
  std::optional<exp::WanTestbed> wan;
  sim::Engine* eng = nullptr;
  net::Link* link = nullptr;
  EndpointConfig send{}, recv{};
  RftpConfig cfg;
  if (c.wan) {
    wan.emplace();
    eng = &wan->eng;
    link = wan->link.get();
    send = {wan->a_proc.get(), {wan->a_dev.get()}};
    recv = {wan->b_proc.get(), {wan->b_dev.get()}};
    cfg.streams = 4;
    cfg.credits_per_stream = 16;
    cfg.block_bytes = 4ull << 20;
  } else {
    tiny.emplace();
    eng = &tiny->eng;
    link = tiny->link.get();
    send = {tiny->proc_a.get(), {tiny->dev_a.get()}};
    recv = {tiny->proc_b.get(), {tiny->dev_b.get()}};
    cfg.streams = 2;
    cfg.credits_per_stream = 8;
    cfg.block_bytes = 256 * 1024;
  }
  check::Auditor aud(*eng);
  stats::Registry reg(*eng);
  reg.install();
  std::optional<trace::Tracer> tracer;
  if (c.tracer) tracer.emplace(*eng).install();

  cfg.checkpoint_blocks = c.checkpoint_blocks;
  auto plan = make_plan(c, cfg.streams);
  cfg.fast_forward = fast_forward;
  RftpSession sess(send, recv, {link}, cfg);
  std::unique_ptr<fault::FaultInjector> inj;
  if (plan) {
    inj = std::make_unique<fault::FaultInjector>(*eng, std::move(*plan));
    inj->attach(*link);
    sess.attach(*inj);
    inj->arm();
  }
  std::unique_ptr<DataSource> src;
  switch (c.homes) {
    case Case::Homes::kNone:
      src = std::make_unique<MemorySource>(c.total_bytes,
                                           numa::Placement::on(0));
      break;
    case Case::Homes::kNode0:
      src = std::make_unique<HomedSource>(c.total_bytes, c.total_bytes);
      break;
    case Case::Homes::kSplit:
      src = std::make_unique<HomedSource>(c.total_bytes, c.total_bytes / 2);
      break;
  }
  MemorySink dst;
  std::optional<metrics::ThroughputMeter> meter;
  if (c.meter_bin != 0) meter.emplace(*eng, c.meter_bin);
  const auto r = exp::run_task(
      *eng, sess.run(*src, dst, c.total_bytes, meter ? &*meter : nullptr));

  Outcome o;
  o.bytes = r.bytes;
  o.blocks = r.blocks;
  o.elapsed_s = r.elapsed_s;
  o.goodput_gbps = r.goodput_gbps;
  o.complete = r.complete;
  o.integrity_ok = r.integrity_ok;
  o.crashes = r.crashes;
  o.resumes = r.resumes;
  o.ff_spans = r.ff_spans;
  o.ff_blocks = r.ff_blocks;
  o.digest = sess.sink_digest();
  o.delivered = sess.blocks_delivered();
  o.control_msgs = sess.control_messages();
  o.stolen_claims = sess.stolen_claims;
  o.local_claims = sess.local_claims;
  o.retransmissions = sess.retransmissions;
  o.grant_retransmissions = sess.grant_retransmissions;
  o.failovers = sess.failovers;
  o.checksum_failures = sess.checksum_failures;
  o.duplicate_blocks = sess.duplicate_blocks;
  o.host_crashes = sess.host_crashes;
  o.checkpoints = sess.checkpoints;
  o.rolled_back_blocks = sess.rolled_back_blocks;
  for (numa::Process* p : {send.proc, recv.proc})
    for (std::size_t cat = 0; cat < metrics::kCpuCategoryCount; ++cat)
      o.cpu_ns.push_back(p->host().total_usage().get(
          static_cast<metrics::CpuCategory>(cat)));
  std::ostringstream js;
  reg.write_json(js);
  std::istringstream lines(js.str());
  for (std::string line; std::getline(lines, line);)
    if (line.find("\"flight_records\"") == std::string::npos)
      o.stats.push_back(line);
  for (int i = 0; i < cfg.streams; ++i) {
    const stats::Histogram* h = reg.find_histogram(
        reg.entity(obs::Layer::kRftp, "stream" + std::to_string(i)),
        "credit_wait_ns");
    o.credit_wait_sums.push_back(h != nullptr ? h->sum() : 0);
  }
  if (meter) {
    o.meter_series = meter->series_gbps();
    o.meter_bytes = meter->total_bytes();
    o.meter_active_gbps = meter->active_gbps();
  }
  aud.finalize();
  o.audit_ok = aud.ok();
  if (!o.audit_ok) {
    std::ostringstream os;
    aud.report(os);
    ADD_FAILURE() << "auditor violations (fast_forward=" << fast_forward
                  << "):\n"
                  << os.str();
  }
  return o;
}

/// A stats divergence pinned rather than hidden: stream `stream`'s
/// credit_wait_ns sum in the event-exact and the fast-forwarded run.
struct KnownWait {
  int stream = 0;
  std::uint64_t exact_sum = 0;
  std::uint64_t ff_sum = 0;
};

/// Returns the fast-forwarded outcome (equal to the event-exact one when
/// the expectations hold).
Outcome expect_equivalent(const Case& c, bool require_engagement,
                          const std::vector<KnownWait>& known = {}) {
  SCOPED_TRACE(::testing::Message()
               << "total=" << c.total_bytes << " plan='" << c.plan_spec
               << "' seed=" << c.fault_seed
               << " checkpoint=" << c.checkpoint_blocks << " wan=" << c.wan);
  const Outcome exact = run_once(c, false);
  const Outcome ff = run_once(c, true);
  EXPECT_TRUE(exact == ff) << "exact: " << exact << "\n   ff: " << ff;
  // The stats registries match line for line, except the credit_wait_ns
  // histograms `known` names, whose sums must read exactly as recorded.
  EXPECT_EQ(exact.stats.size(), ff.stats.size());
  std::vector<std::string> diverged;
  for (std::size_t i = 0; i < std::min(exact.stats.size(), ff.stats.size());
       ++i)
    if (exact.stats[i] != ff.stats[i]) diverged.push_back(ff.stats[i]);
  EXPECT_EQ(diverged.size(), known.size());
  for (const std::string& line : diverged) {
    const auto names = [&line](const KnownWait& k) {
      return line.find("\"entity\": \"stream" + std::to_string(k.stream) +
                       "\", \"name\": \"credit_wait_ns\"") !=
             std::string::npos;
    };
    EXPECT_TRUE(std::any_of(known.begin(), known.end(), names))
        << "unexpected stats divergence: " << line.substr(0, 160);
  }
  for (std::size_t i = 0; i < exact.credit_wait_sums.size(); ++i) {
    const auto k = std::find_if(
        known.begin(), known.end(),
        [i](const KnownWait& w) { return w.stream == static_cast<int>(i); });
    SCOPED_TRACE(::testing::Message() << "stream" << i << " credit_wait_ns");
    if (k == known.end()) {
      EXPECT_EQ(exact.credit_wait_sums[i], ff.credit_wait_sums[i]);
    } else {
      EXPECT_EQ(exact.credit_wait_sums[i], k->exact_sum);
      EXPECT_EQ(ff.credit_wait_sums[i], k->ff_sum);
    }
  }
  EXPECT_TRUE(exact.audit_ok);
  EXPECT_TRUE(ff.audit_ok);
  EXPECT_EQ(exact.ff_spans, 0u);
  if (require_engagement) {
    EXPECT_GT(ff.ff_spans, 0u);
    EXPECT_GT(ff.ff_blocks, 0u);
  }
  return ff;
}

// Block counts chosen to be deep into bulk territory on the tiny rig:
// 256 KiB blocks -> 512 / 768 / 1792 blocks per run. (A 256-block run is
// honestly too short to engage: detector warmup plus the queue safety
// margin covers most of the transfer, and the detector correctly stays
// event-exact rather than collapse a span it cannot prove.)
constexpr std::uint64_t kSmall = 128ull << 20;
constexpr std::uint64_t kMedium = 192ull << 20;
constexpr std::uint64_t kLarge = 448ull << 20;

TEST(FastForwardGolden, CleanBulkEngagesAndMatchesAcrossSizes) {
  for (const std::uint64_t total : {kSmall, kMedium, kLarge})
    expect_equivalent({total, "", 0}, /*require_engagement=*/true);
}

TEST(FastForwardGolden, PartialFinalBlockMatches) {
  // An odd tail byte count: the last block is short, which the collapse
  // replay must refuse to fold (it truncates to completed periods).
  expect_equivalent({kSmall + 12345, "", 0}, /*require_engagement=*/true);
}

TEST(FastForwardGolden, ScriptedMidRunFaultsMatch) {
  // Loss burst + a qp kill early in the run: the detector must hold off
  // until the plan's quiet horizon, absorb the failover event-exactly,
  // then still collapse the remaining bulk.
  const std::string spec = "loss@5ms:n=3;qpkill@8ms:qp=1";
  for (const std::uint64_t total : {kMedium, kLarge})
    expect_equivalent({total, spec, 0}, /*require_engagement=*/false);
}

TEST(FastForwardGolden, ScriptedCrashResumeMatches) {
  // Receiver crash-stop with a scripted restart mid-bulk: rollback and
  // resume negotiation are perturbations the detector must ride out
  // event-exactly; final ledgers still must match bit-for-bit.
  const std::string spec = "crash@6ms:host=1,down=2ms";
  expect_equivalent({kMedium, spec, 0}, /*require_engagement=*/false);
}

// checkpoint_blocks = 5 does not divide the period R = 2 x 8: checkpoints
// fall mid-period, and a collapse's full ledger publication leaves a
// partial interval counting toward the next one. Beyond ff == exact, the
// ledger outcome is pinned to values recorded before checkpoints became
// incremental.
TEST(FastForwardGolden, NonDividingLedgerIntervalMatches) {
  const Outcome o = expect_equivalent({kMedium, "", 0, 5},
                                      /*require_engagement=*/true);
  EXPECT_EQ(o.checkpoints, 153u);
  EXPECT_EQ(o.rolled_back_blocks, 0u);
  EXPECT_EQ(o.bytes, kMedium);
  EXPECT_EQ(o.digest, 14109405482504720321ull);
}

TEST(FastForwardGolden, CrashResumeWithNonDividingLedgerIntervalMatches) {
  const Outcome o =
      expect_equivalent({kMedium, "crash@6ms:host=1,down=2ms", 0, 5},
                        /*require_engagement=*/false);
  EXPECT_EQ(o.checkpoints, 154u);
  EXPECT_EQ(o.rolled_back_blocks, 4u);
  EXPECT_EQ(o.bytes, kMedium);
  EXPECT_EQ(o.digest, 14109405482504720321ull);
}

TEST(FastForwardGolden, SeededChaosMatchesAcrossSeeds) {
  for (const std::uint64_t seed : {11ull, 22ull, 33ull, 44ull})
    expect_equivalent({kMedium, "", seed}, /*require_engagement=*/false);
}

TEST(FastForwardGolden, NodeHomedBlocksCollapseLocalClaims) {
  // Every block homed on the fillers' node: the span is all local claims
  // from queue 0, not the shared queue every other case collapses.
  Case c{kMedium, "", 0};
  c.homes = Case::Homes::kNode0;
  const Outcome o = expect_equivalent(c, /*require_engagement=*/true);
  EXPECT_EQ(o.local_claims, kMedium / (256 * 1024));
  EXPECT_EQ(o.stolen_claims, 0u);
}

TEST(FastForwardGolden, SteadyStealingCollapses) {
  // Half the blocks homed on node 1, where no filler runs: the fillers
  // alternate local claims with steals from the back of queue 1, so the
  // span holds both verdicts on two queues, and the endgame ends in
  // fallback claims.
  Case c{kLarge, "", 0};
  c.homes = Case::Homes::kSplit;
  const Outcome o = expect_equivalent(c, /*require_engagement=*/true);
  EXPECT_GT(o.local_claims, 0u);
  EXPECT_GT(o.stolen_claims, 0u);
}

TEST(FastForwardGolden, ThroughputMeterPinsTheRunToEventExact) {
  // A meter records every drain, so an attached one refuses every
  // collapse, as a tracer does, and reads what the exact run's reads.
  Case c{kMedium + 12345, "", 0};
  c.meter_bin = 333 * sim::kMicrosecond;
  const Outcome o = expect_equivalent(c, /*require_engagement=*/false);
  EXPECT_EQ(o.ff_spans, 0u);
  EXPECT_EQ(o.meter_bytes, kMedium + 12345);
  EXPECT_GT(o.meter_series.size(), 1u);
}

// The WAN rig: 64 GiB over the 95 ms loop, ~16k blocks of 4 MiB.
constexpr std::uint64_t kWan = 64ull << 30;

TEST(FastForwardGolden, WanCleanBulkEngagesAndMatches) {
  // The one known divergence: streams 0-2 wait about 100 us longer for
  // credit in total with fast-forward (stream 0's mean 5,979,355.84 ns
  // against 5,979,331.26 ns); counts and buckets match. The exact run's
  // per-stream waits inside the skipped span differ from the two verified
  // windows — a detector gap, not a fold error. Any change to these sums
  // fails here.
  expect_equivalent({kWan, "", 0, 1, /*wan=*/true},
                    /*require_engagement=*/true,
                    {{0, 24509278830ull, 24509379602ull},
                     {1, 24508709395ull, 24508810167ull},
                     {2, 24503055583ull, 24503156355ull}});
}

TEST(FastForwardGolden, WanScriptedChaosMatches) {
  // Loss, link flaps and a qp kill spread over the first 11 s. The
  // detector never engages on this plan (0 spans), so the case pins that
  // arming it leaves a faulted WAN run exactly as the event-exact one.
  const std::string spec =
      "loss@500ms:n=5;flap@2s:dur=20ms;qpkill@4s:qp=1;loss@8s:n=4;"
      "flap@11s:dur=10ms";
  expect_equivalent({kWan, spec, 0, 1, /*wan=*/true},
                    /*require_engagement=*/false);
}

TEST(FastForwardGolden, TracerPinsTheRunToEventExact) {
  // Traces are exempt from equivalence: an installed tracer refuses every
  // collapse (its ff_repeats() is false), so the run stays event-exact.
  Case c{kSmall, "", 0};
  c.tracer = true;
  const Outcome ff = expect_equivalent(c, /*require_engagement=*/false);
  EXPECT_EQ(ff.ff_spans, 0u);
  EXPECT_EQ(ff.ff_blocks, 0u);
}

TEST(FastForwardGolden, EngagedRunSkipsMostOfTheRun) {
  // The perf contract behind the golden suite: on a clean bulk run the
  // collapsed spans must cover the overwhelming majority of blocks.
  const Outcome ff = run_once({kLarge, "", 0}, true);
  EXPECT_GT(ff.ff_blocks, (ff.blocks * 8) / 10);
}

}  // namespace
}  // namespace e2e::rftp
