// e2e_transfer_sim — command-line front end to the simulation library.
//
//   e2e_transfer_sim quick                         # 40G link, mem-to-mem
//   e2e_transfer_sim e2e --gib 32 --numa 1         # full Fig. 5 path
//   e2e_transfer_sim wan --streams 4 --block 8m    # ANI 95 ms loop
//   e2e_transfer_sim san --write --numa 0          # iSER fio back-end
//   e2e_transfer_sim motivating                    # Sec 2.3 iperf study
//   e2e_transfer_sim fleet --pairs 8 --shards 4    # sharded RFTP pairs
//   e2e_transfer_sim kv --get-mode read            # small-message tier
//
// Options: see usage() (run with no arguments).
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "apps/apps.hpp"
#include "check/audit.hpp"
#include "exp/exp.hpp"
#include "exp/fleet.hpp"
#include "exp/kv_scenario.hpp"
#include "exp/pair_fleet.hpp"
#include "fault/injector.hpp"
#include "fault/plan.hpp"
#include "metrics/metrics.hpp"
#include "rftp/rftp.hpp"
#include "stats/stats.hpp"
#include "trace/trace.hpp"

#include "cli_flags.hpp"

using namespace e2e;

namespace {

struct Options {
  std::string scenario;
  std::uint64_t gib = 16;
  std::uint64_t block = 4ull << 20;
  int streams = 0;  // 0 = scenario default
  int credits = 16;
  bool numa = true;
  bool write = false;
  double duration_s = 2.0;
  int files = 1;
  std::string trace_file;
  std::string fault_plan;       // scripted FaultPlan (see fault/plan.hpp)
  std::uint64_t fault_seed = 0; // != 0: seeded random plan instead
  int checkpoint = 1;           // rftp ledger checkpoint interval (blocks)
  int pairs = 4;                // fleet/kv: host pairs (one shard each)
  int shards = 1;               // fleet/kv: parallel worker threads
  std::uint64_t keys = 16384;     // kv: keys per server
  std::uint64_t ops = 0;          // kv: ops per pair (0 = derive from --gib)
  std::uint64_t value_size = 4096;  // kv: value bytes
  int kv_shards = 2;              // kv: per-server NUMA store shards
  int depth = 8;                  // kv: closed-loop workers per client
  std::string get_mode = "rpc";   // kv: rpc | read
  double zipf = 0.99;             // kv: key-popularity skew
  double put_frac = 0.1;          // kv: fraction of ops that are PUTs
  int remote_every = 16;          // kv: every Nth op to the next pair
  std::uint64_t seed = 1;         // kv: workload rng seed
  bool stats = true;            // always-on metrics + flight recorder
  std::string stats_out;        // --stats-out FILE (.csv -> CSV, else JSON)
  bool fast_forward = false;    // steady-state analytic collapse (rftp)
#ifdef NDEBUG
  bool audit = false;  // Release: opt in with --audit 1
#else
  bool audit = true;   // Debug: invariant audits on by default
#endif
};

[[noreturn]] void usage() {
  std::fputs(
      "usage: e2e_transfer_sim <quick|e2e|wan|san|motivating|fleet|kv> "
      "[options]\n"
      "  --gib N          dataset size in GiB (transfer scenarios)\n"
      "  --block N[k|m|g] RFTP block / fio I/O size (KiB/MiB/GiB suffix)\n"
      "  --streams N      parallel RFTP streams\n"
      "  --credits N      credit tokens per stream\n"
      "  --numa 0|1       NUMA tuning on/off\n"
      "  --write          fio writes instead of reads (san)\n"
      "  --duration S     measurement window in simulated seconds (san)\n"
      "  --files N        split the dataset into N files (e2e)\n"
      "  --trace FILE     write a Chrome/Perfetto trace-event JSON file\n"
      "  --fault-plan S   inject scripted faults, e.g.\n"
      "                   'loss@500ms:n=5;flap@1s:dur=20ms;qpkill@1500ms:qp=0;"
      "crash@1s:host=1,down=50ms'\n"
      "  --fault-seed N   inject a seeded random fault plan (rftp scenarios;\n"
      "                   fleet/kv draw one plan per pair); san and\n"
      "                   motivating inject no faults and reject both flags\n"
      "  --checkpoint N   rftp acked-block ledger checkpoint interval in\n"
      "                   blocks (default 1 = every ack durable; 0 disables,\n"
      "                   so a receiver crash restarts from byte zero)\n"
      "  --pairs N        fleet/kv: host pairs, one engine shard each\n"
      "                   (default 4)\n"
      "  --shards N       fleet/kv: worker threads driving the shards, in\n"
      "                   [1, pairs]; results are bit-identical for any\n"
      "                   value (default 1)\n"
      "  --keys N         kv: keys per server (default 16384)\n"
      "  --ops N          kv: operations per pair (default: --gib x 1GiB\n"
      "                   divided by --value-size)\n"
      "  --value-size N[k|m]  kv: value bytes (default 4096)\n"
      "  --kv-shards N    kv: per-server NUMA store shards (default 2)\n"
      "  --depth N        kv: closed-loop client workers per pair\n"
      "                   (default 8)\n"
      "  --get-mode M     kv: GET path, 'rpc' (two-sided SEND/RECV) or\n"
      "                   'read' (two chained one-sided READs; default rpc)\n"
      "  --zipf X         kv: Zipf key-popularity skew, 0 = uniform\n"
      "                   (default 0.99)\n"
      "  --put-frac X     kv: PUT fraction of the op mix (default 0.1)\n"
      "  --remote-every N kv: every Nth op targets the next pair's server\n"
      "                   over the cross-shard connection (0 disables;\n"
      "                   default 16)\n"
      "  --seed N         kv: workload rng seed (default 1)\n"
      "  --audit 0|1      cross-layer invariant audits (default: on in\n"
      "                   Debug builds, off in Release)\n"
      "  --stats 0|1      per-entity metrics + flight recorder (default: on)\n"
      "  --stats-out FILE write the stats dump (.csv -> CSV, else JSON)\n"
      "  --fast-forward 0|1  collapse proven steady-state bulk phases into\n"
      "                   closed-form spans (default 0 = event-exact; final\n"
      "                   metrics are identical either way; rftp transfer\n"
      "                   scenarios only — rejected by san/motivating and\n"
      "                   by the sharded fleet/kv)\n",
      stderr);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  if (argc < 2) usage();
  Options o;
  o.scenario = argv[1];
  // Range ceilings are sanity bounds (catch pasted garbage), not tuning
  // limits: 1 EiB datasets, 4 Ki streams, a day of fio.
  constexpr std::uint64_t kMaxGib = 1ull << 30;
  for (int i = 2; i < argc; ++i) {
    auto need = [&](const char* flag) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", flag);
        usage();
      }
      return argv[++i];
    };
    if (!std::strcmp(argv[i], "--gib"))
      o.gib = cli::parse_u64(usage, "--gib", need("--gib"), 1, kMaxGib);
    else if (!std::strcmp(argv[i], "--block"))
      o.block = cli::parse_size(usage, "--block", need("--block"), 512,
                                1ull << 30);
    else if (!std::strcmp(argv[i], "--streams"))
      o.streams = cli::parse_int(usage, "--streams", need("--streams"), 1,
                                 4096);
    else if (!std::strcmp(argv[i], "--credits"))
      o.credits = cli::parse_int(usage, "--credits", need("--credits"), 1,
                                 65536);
    else if (!std::strcmp(argv[i], "--numa"))
      o.numa = cli::parse_bool01(usage, "--numa", need("--numa"));
    else if (!std::strcmp(argv[i], "--write"))
      o.write = true;
    else if (!std::strcmp(argv[i], "--duration"))
      o.duration_s = cli::parse_double(usage, "--duration",
                                       need("--duration"), 1e-3, 86400.0);
    else if (!std::strcmp(argv[i], "--files"))
      o.files = cli::parse_int(usage, "--files", need("--files"), 1, 1 << 20);
    else if (!std::strcmp(argv[i], "--trace"))
      o.trace_file = need("--trace");
    else if (!std::strcmp(argv[i], "--fault-plan"))
      o.fault_plan = need("--fault-plan");
    else if (!std::strcmp(argv[i], "--fault-seed"))
      o.fault_seed = cli::parse_u64(usage, "--fault-seed",
                                    need("--fault-seed"), 0,
                                    ~std::uint64_t{0});
    else if (!std::strcmp(argv[i], "--checkpoint"))
      o.checkpoint = cli::parse_int(usage, "--checkpoint",
                                    need("--checkpoint"), 0, 1 << 30);
    else if (!std::strcmp(argv[i], "--pairs"))
      o.pairs = cli::parse_int(usage, "--pairs", need("--pairs"), 1, 65536);
    else if (!std::strcmp(argv[i], "--shards"))
      o.shards = cli::parse_int(usage, "--shards", need("--shards"), 1,
                                65536);
    else if (!std::strcmp(argv[i], "--keys"))
      o.keys = cli::parse_u64(usage, "--keys", need("--keys"), 1, 1ull << 30);
    else if (!std::strcmp(argv[i], "--ops"))
      o.ops = cli::parse_u64(usage, "--ops", need("--ops"), 1, 1ull << 40);
    else if (!std::strcmp(argv[i], "--value-size"))
      o.value_size = cli::parse_size(usage, "--value-size",
                                     need("--value-size"), 1, 16ull << 20);
    else if (!std::strcmp(argv[i], "--kv-shards"))
      o.kv_shards = cli::parse_int(usage, "--kv-shards", need("--kv-shards"),
                                   1, 64);
    else if (!std::strcmp(argv[i], "--depth"))
      o.depth = cli::parse_int(usage, "--depth", need("--depth"), 1, 1024);
    else if (!std::strcmp(argv[i], "--get-mode")) {
      o.get_mode = need("--get-mode");
      if (o.get_mode != "rpc" && o.get_mode != "read") {
        std::fprintf(stderr, "bad --get-mode %s: must be rpc or read\n",
                     o.get_mode.c_str());
        usage();
      }
    } else if (!std::strcmp(argv[i], "--zipf"))
      o.zipf = cli::parse_double(usage, "--zipf", need("--zipf"), 0.0, 16.0);
    else if (!std::strcmp(argv[i], "--put-frac"))
      o.put_frac = cli::parse_double(usage, "--put-frac", need("--put-frac"),
                                     0.0, 1.0);
    else if (!std::strcmp(argv[i], "--remote-every"))
      o.remote_every = cli::parse_int(usage, "--remote-every",
                                      need("--remote-every"), 0, 1 << 20);
    else if (!std::strcmp(argv[i], "--seed"))
      o.seed = cli::parse_u64(usage, "--seed", need("--seed"), 0,
                              ~std::uint64_t{0});
    else if (!std::strcmp(argv[i], "--audit"))
      o.audit = cli::parse_bool01(usage, "--audit", need("--audit"));
    else if (!std::strcmp(argv[i], "--stats"))
      o.stats = cli::parse_bool01(usage, "--stats", need("--stats"));
    else if (!std::strcmp(argv[i], "--stats-out"))
      o.stats_out = need("--stats-out");
    else if (!std::strcmp(argv[i], "--fast-forward"))
      o.fast_forward =
          cli::parse_bool01(usage, "--fast-forward", need("--fast-forward"));
    else {
      std::fprintf(stderr, "unknown option: %s\n", argv[i]);
      usage();
    }
  }
  return o;
}

/// Writes `path` with `fill` (nothing when `path` is empty), or exits 1
/// with "cannot write <path>".
void write_file(const std::string& path,
                const std::function<void(std::ostream&)>& fill) {
  if (path.empty()) return;
  std::ofstream os(path);
  if (!os) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    std::exit(1);
  }
  fill(os);
}

/// Optional tracing for one scenario run. Construct right before the
/// measured engine run — after any setup-phase runs, so the sampler tick
/// arms for the transfer itself — and call finish() after it to write the
/// trace file. Without --trace the scope is inert and no tracer is
/// installed (the zero-cost disabled path).
class TraceScope {
 public:
  TraceScope(sim::Engine& eng, const Options& o) : o_(o) {
    if (o_.trace_file.empty()) return;
    tracer_ = std::make_unique<trace::Tracer>(eng);
    tracer_->install();
    tracer_->enable_resource_sampler(kSamplePeriod);
  }

  void finish() {
    if (!tracer_) return;
    tracer_->sample_now();  // closing snapshot at end-of-run time
    write_file(o_.trace_file,
               [&](std::ostream& os) { tracer_->write_chrome_trace(os); });
    tracer_.reset();
  }

 private:
  // 10 ms of simulated time per utilization sample: fine enough to see
  // per-second throughput structure, coarse enough to keep traces small.
  static constexpr sim::SimDuration kSamplePeriod = 10 * sim::kMillisecond;
  const Options& o_;
  std::unique_ptr<trace::Tracer> tracer_;
};

/// Always-on (unless --stats 0) metric registry + flight recorder for one
/// scenario run. Construct alongside the other scopes; call finish() with
/// the scenario's exit code after it — a nonzero exit dumps the flight
/// window to stderr (if nothing dumped it earlier) and --stats-out writes
/// the aggregated metrics.
class StatsScope {
 public:
  StatsScope(sim::Engine& eng, const Options& o) : o_(o) {
    if (!o_.stats) return;
    stats_ = std::make_unique<stats::Registry>(eng);
    stats_->install();
  }

  [[nodiscard]] stats::Registry* get() noexcept { return stats_.get(); }

  void finish(int exit_code) {
    if (!stats_) return;
    if (exit_code != 0 && !stats_->flight_dump_triggered())
      stats_->trigger_flight_dump("cli:nonzero-exit");
    write_file(o_.stats_out, [&](std::ostream& os) {
      if (o_.stats_out.ends_with(".csv"))
        stats_->write_csv(os);
      else
        stats_->write_json(os);
    });
    stats_.reset();
  }

 private:
  const Options& o_;
  std::unique_ptr<stats::Registry> stats_;
};

/// Optional cross-layer invariant auditing (e2e::check) for one scenario
/// run. On by default in Debug builds; Release opts in with --audit 1.
/// Construct once the engine exists; call failed() after the run — it
/// reconciles end-of-run conservation, prints the report, and returns
/// whether any invariant broke (which flips the process exit code).
class AuditScope {
 public:
  AuditScope(sim::Engine& eng, const Options& o) {
    if (o.audit) auditor_ = std::make_unique<check::Auditor>(eng);
  }

  [[nodiscard]] bool failed() {
    if (!auditor_) return false;
    auditor_->finalize();
    std::ostringstream os;
    auditor_->report(os);
    std::fputs(os.str().c_str(), stderr);
    const bool bad = !auditor_->ok();
    auditor_.reset();
    return bad;
  }

 private:
  std::unique_ptr<check::Auditor> auditor_;
};

/// Builds and validates the scripted/random fault plan, or nullopt when
/// neither --fault-plan nor --fault-seed was given. A malformed plan exits
/// with usage before the session is built.
std::optional<fault::FaultPlan> make_fault_plan(const Options& o, int links,
                                                int streams) {
  if (o.fault_plan.empty() && o.fault_seed == 0) return std::nullopt;
  fault::FaultPlan plan;
  if (!o.fault_plan.empty()) {
    // A malformed plan is an operator typo, not a crash: report it the
    // same way an unknown flag is reported (usage + exit 2).
    try {
      plan = fault::FaultPlan::parse(o.fault_plan);
    } catch (const std::invalid_argument& ex) {
      std::fprintf(stderr, "bad --fault-plan: %s\n", ex.what());
      usage();
    }
    for (const auto& ev : plan.events) {
      if (ev.type == fault::FaultType::kQpKill && ev.qp >= streams) {
        std::fprintf(stderr,
                     "bad --fault-plan: qp=%d out of range (streams=%d)\n",
                     ev.qp, streams);
        usage();
      }
      if (ev.type == fault::FaultType::kCrash && ev.host > 1) {
        std::fprintf(stderr,
                     "bad --fault-plan: host=%d out of range (hosts are "
                     "0=sender, 1=receiver)\n",
                     ev.host);
        usage();
      }
    }
  } else {
    fault::FaultPlan::RandomParams rp;
    rp.links = links;
    rp.qps = streams;
    plan = fault::FaultPlan::random(o.fault_seed, rp);
  }
  return plan;
}

/// Prints the fast-forward engagement summary after a transfer run.
void ff_summary(const Options& o, const rftp::TransferResult& r) {
  if (!o.fast_forward) return;
  std::printf("fast-forward: %llu span%s, %llu blocks collapsed, %.3f s "
              "skipped\n",
              static_cast<unsigned long long>(r.ff_spans),
              r.ff_spans == 1 ? "" : "s",
              static_cast<unsigned long long>(r.ff_blocks),
              sim::to_seconds(r.ff_skipped_ns));
}

/// Optional fault injection for one rftp scenario run. Construct after the
/// session (RftpSession::attach routes the plan's qpkill and crash events
/// to it and holds fast-forward back until the plan is quiet) and before
/// the measured engine run, with the plan make_fault_plan() built earlier;
/// call summary() afterwards. With no plan the scope is inert.
class FaultScope {
 public:
  FaultScope(sim::Engine& eng, std::optional<fault::FaultPlan> plan,
             const std::vector<net::Link*>& links, rftp::RftpSession& sess) {
    if (!plan) return;
    std::printf("fault plan: %s\n", plan->to_string().c_str());
    inj_ = std::make_unique<fault::FaultInjector>(eng, std::move(*plan));
    for (auto* l : links) inj_->attach(*l);
    sess.attach(*inj_);
    inj_->arm();
  }

  void summary(const rftp::RftpSession& sess,
               const rftp::TransferResult& r) const {
    if (!inj_) return;
    std::printf(
        "faults: %llu injected, %llu messages dropped; "
        "%llu retransmits, %llu failovers; complete=%s integrity=%s\n",
        static_cast<unsigned long long>(inj_->faults_injected()),
        static_cast<unsigned long long>(inj_->messages_failed()),
        static_cast<unsigned long long>(sess.retransmissions),
        static_cast<unsigned long long>(sess.failovers),
        r.complete ? "yes" : "NO", r.integrity_ok ? "ok" : "FAILED");
    if (r.crashes > 0)
      std::printf(
          "crashes: %llu crashed, %llu resumed; %llu checkpoints, "
          "%llu blocks rolled back, %llu false suspicions\n",
          static_cast<unsigned long long>(r.crashes),
          static_cast<unsigned long long>(r.resumes),
          static_cast<unsigned long long>(sess.checkpoints),
          static_cast<unsigned long long>(sess.rolled_back_blocks),
          static_cast<unsigned long long>(sess.watchdog().false_suspicions()));
  }

 private:
  std::unique_ptr<fault::FaultInjector> inj_;
};

int run_quick(const Options& o) {
  sim::Engine eng;
  exp::HostPair hp(eng, {"a", "b", "wire", "client", "server"},
                   &net::make_roce_lan);
  rftp::RftpConfig cfg;
  cfg.streams = o.streams > 0 ? o.streams : 1;
  cfg.block_bytes = o.block;
  cfg.credits_per_stream = o.credits;
  cfg.numa_aware = o.numa;
  cfg.checkpoint_blocks = o.checkpoint;
  cfg.fast_forward = o.fast_forward;
  auto plan = make_fault_plan(o, 1, cfg.streams);
  rftp::RftpSession sess({&hp.pa, {&hp.da}}, {&hp.pb, {&hp.db}},
                         {hp.link.get()}, cfg);
  rftp::MemorySource src(o.gib << 30, numa::Placement::on(0));
  rftp::MemorySink dst;
  StatsScope ss(eng, o);
  AuditScope as(eng, o);
  TraceScope ts(eng, o);
  FaultScope fs(eng, std::move(plan), {hp.link.get()}, sess);
  const auto r = exp::run_task(eng, sess.run(src, dst, o.gib << 30));
  ts.finish();
  std::printf("quick: %llu GiB in %.2f s -> %.1f Gbps\n",
              static_cast<unsigned long long>(o.gib), r.elapsed_s,
              r.goodput_gbps);
  std::printf("digest: %016llx\n",
              static_cast<unsigned long long>(sess.sink_digest()));
  ff_summary(o, r);
  fs.summary(sess, r);
  const int rc = r.complete && r.integrity_ok && !as.failed() ? 0 : 1;
  ss.finish(rc);
  return rc;
}

int run_e2e(const Options& o) {
  exp::EndToEndTestbed tb(o.numa, o.gib << 30);
  tb.start();
  numa::Process sp(*tb.src_fe, "client", numa::NumaBinding::os_default());
  numa::Process rp(*tb.dst_fe, "server", numa::NumaBinding::os_default());
  rftp::RftpConfig cfg;
  cfg.numa_aware = o.numa;
  cfg.block_bytes = o.block;
  cfg.credits_per_stream = o.credits;
  cfg.checkpoint_blocks = o.checkpoint;
  cfg.fast_forward = o.fast_forward;
  if (o.streams > 0) cfg.streams = o.streams;
  auto plan =
      make_fault_plan(o, static_cast<int>(tb.links().size()), cfg.streams);
  rftp::RftpSession sess({&sp, tb.src_roce()}, {&rp, tb.dst_roce()},
                         tb.links(), cfg);
  exp::SanSection* san = tb.src_san.get();
  auto locality = [san](std::uint64_t off, std::uint64_t) {
    return san->fe_node_of(off);
  };
  metrics::ThroughputMeter meter(tb.eng, sim::kSecond);
  // After tb.start(): the testbed's setup run has drained, so the sampler
  // armed here stays alive exactly for the measured transfer.
  StatsScope ss(tb.eng, o);
  AuditScope as(tb.eng, o);
  TraceScope ts(tb.eng, o);
  FaultScope fs(tb.eng, std::move(plan), tb.links(), sess);
  rftp::TransferResult r;
  if (o.files > 1) {
    rftp::FileSet sset(*tb.src_fs);
    sset.create_filled("part", o.files, (o.gib << 30) / o.files / 512 * 512);
    rftp::FileSet dset(*tb.dst_fs);
    dset.create_empty("part-copy", o.files,
                      (o.gib << 30) / o.files / 512 * 512);
    rftp::FileSetSource src(sset, locality);
    rftp::FileSetSink dst(dset);
    r = exp::run_task(tb.eng, sess.run(src, dst, sset.total_bytes(), &meter));
  } else {
    rftp::FileSource src(*tb.src_fs, *tb.src_file, true, locality);
    rftp::FileSink dst(*tb.dst_fs, *tb.dst_file);
    r = exp::run_task(tb.eng, sess.run(src, dst, tb.dataset_bytes, &meter));
  }
  ts.finish();
  std::printf("e2e (%s): %.1f Gbps over the full SAN->RoCE->SAN path\n",
              o.numa ? "numa-tuned" : "untuned", r.goodput_gbps);
  std::printf("per-second series: ");
  for (double g : meter.series_gbps()) std::printf("%.0f ", g);
  std::printf("Gbps\n");
  ff_summary(o, r);
  fs.summary(sess, r);
  const int rc = r.complete && r.integrity_ok && !as.failed() ? 0 : 1;
  ss.finish(rc);
  return rc;
}

int run_wan(const Options& o) {
  exp::WanTestbed tb;
  rftp::RftpConfig cfg;
  cfg.streams = o.streams > 0 ? o.streams : 4;
  cfg.block_bytes = o.block;
  cfg.credits_per_stream = o.credits;
  cfg.checkpoint_blocks = o.checkpoint;
  cfg.fast_forward = o.fast_forward;
  auto plan = make_fault_plan(o, 1, cfg.streams);
  rftp::RftpSession sess({tb.a_proc.get(), {tb.a_dev.get()}},
                         {tb.b_proc.get(), {tb.b_dev.get()}},
                         {tb.link.get()}, cfg);
  rftp::MemorySource src(o.gib << 30, numa::Placement::on(0));
  rftp::MemorySink dst;
  StatsScope ss(tb.eng, o);
  AuditScope as(tb.eng, o);
  TraceScope ts(tb.eng, o);
  FaultScope fs(tb.eng, std::move(plan), {tb.link.get()}, sess);
  const auto r = exp::run_task(tb.eng, sess.run(src, dst, o.gib << 30));
  ts.finish();
  std::printf(
      "wan (rtt 95 ms): %.1f Gbps (%.0f%% of 40G); in-flight window %.0f MB "
      "vs BDP 475 MB\n",
      r.goodput_gbps, 100.0 * r.goodput_gbps / 40.0,
      static_cast<double>(cfg.streams) * cfg.credits_per_stream *
          static_cast<double>(cfg.block_bytes) / 1e6);
  ff_summary(o, r);
  fs.summary(sess, r);
  const int rc = r.complete && r.integrity_ok && !as.failed() ? 0 : 1;
  ss.finish(rc);
  return rc;
}

int run_san(const Options& o) {
  exp::SanConfig scfg;
  scfg.numa_tuned = o.numa;
  scfg.lun_bytes = 4ull << 30;
  exp::SanTestbed tb(scfg);
  tb.start();
  apps::FioOptions opts;
  opts.block_bytes = o.block;
  opts.write = o.write;
  opts.duration = sim::from_seconds(o.duration_s);
  StatsScope ss(tb.eng, o);
  AuditScope as(tb.eng, o);
  TraceScope ts(tb.eng, o);
  const auto r = tb.run_fio(opts, 4);
  ts.finish();
  std::printf("san %s (%s): %.1f Gbps, target CPU %.0f%%\n",
              o.write ? "write" : "read", o.numa ? "numa-tuned" : "untuned",
              r.gbps, r.target_cpu_pct);
  const int rc = as.failed() ? 1 : 0;
  ss.finish(rc);
  return rc;
}

/// Shared tail of the sharded scenarios: the simulator-cost line, the
/// digest (the golden-determinism handle: byte-identical for any --shards
/// value, so tests diff this line across worker counts), any audit
/// violations, and the merged stats dump (JSON-only: one write_json
/// document per shard).
template <class Result>
void fleet_tail(const Options& o, const Result& r, std::uint64_t n,
                const char* what) {
  const char* name = o.scenario.c_str();
  std::printf(
      "%s: %llu events in %.2f s wall (%.0f ev/s), %llu windows, "
      "%llu cross-shard posts, %llu %s\n",
      name, static_cast<unsigned long long>(r.sim_events), r.wall_seconds,
      r.wall_seconds > 0 ? static_cast<double>(r.sim_events) / r.wall_seconds
                         : 0.0,
      static_cast<unsigned long long>(r.windows),
      static_cast<unsigned long long>(r.cross_posts),
      static_cast<unsigned long long>(n), what);
  std::printf("digest: %s\n", r.digest.c_str());
  if (!r.audit_ok)
    std::printf("%s: %llu audit violation(s)\n", name,
                static_cast<unsigned long long>(r.audit_violations));
  write_file(o.stats_out, [&](std::ostream& os) { os << r.stats_json; });
  write_file(o.trace_file, [&](std::ostream& os) { os << r.trace_json; });
}

int run_fleet(const Options& o) {
  exp::FleetParams fp;
  fp.pairs = o.pairs;
  fp.shards = o.shards;
  fp.bytes_per_pair = o.gib << 30;
  fp.block_bytes = o.block;
  fp.streams = o.streams > 0 ? o.streams : 3;
  fp.credits = o.credits;
  fp.checkpoint_blocks = o.checkpoint;
  fp.fault_seed = o.fault_seed;
  fp.audit = o.audit;
  fp.stats = o.stats;
  fp.trace = !o.trace_file.empty();
  const auto r = exp::run_fleet(fp);
  std::printf(
      "fleet: %d pairs x %llu GiB on %d shard worker%s -> %.1f Gbps "
      "aggregate\n",
      fp.pairs, static_cast<unsigned long long>(o.gib), fp.shards,
      fp.shards == 1 ? "" : "s",
      r.aggregate_gbps);
  fleet_tail(o, r, r.ring_completed, "ring writes");
  return r.complete && r.integrity_ok && r.audit_ok ? 0 : 1;
}

int run_kv(const Options& o) {
  exp::KvParams kp;
  kp.pairs = o.pairs;
  kp.shards = o.shards;
  kp.keys = o.keys;
  kp.value_bytes = o.value_size;
  kp.ops_per_pair =
      o.ops > 0 ? o.ops
                : std::max<std::uint64_t>(1, (o.gib << 30) / o.value_size);
  kp.store_shards = o.kv_shards;
  kp.depth = o.depth;
  kp.get_via_read = o.get_mode == "read";
  kp.zipf_theta = o.zipf;
  kp.put_frac = o.put_frac;
  kp.remote_every = o.remote_every;
  kp.seed = o.seed;
  kp.fault_seed = o.fault_seed;
  kp.audit = o.audit;
  kp.stats = o.stats;
  kp.trace = !o.trace_file.empty();
  const auto r = exp::run_kv(kp);
  std::printf(
      "kv: %d pairs x %llu ops (%llu B values, %s GETs) on %d shard "
      "worker%s -> %.3f Mops/s aggregate\n",
      kp.pairs, static_cast<unsigned long long>(kp.ops_per_pair),
      static_cast<unsigned long long>(kp.value_bytes), o.get_mode.c_str(),
      kp.shards, kp.shards == 1 ? "" : "s", r.aggregate_mops);
  std::printf(
      "kv: get p50/p99/p999 = %.1f/%.1f/%.1f us, put = %.1f/%.1f/%.1f us, "
      "%llu retries, %llu failed\n",
      static_cast<double>(r.get_p50_ns) / 1e3,
      static_cast<double>(r.get_p99_ns) / 1e3,
      static_cast<double>(r.get_p999_ns) / 1e3,
      static_cast<double>(r.put_p50_ns) / 1e3,
      static_cast<double>(r.put_p99_ns) / 1e3,
      static_cast<double>(r.put_p999_ns) / 1e3,
      static_cast<unsigned long long>(r.rpc_retries),
      static_cast<unsigned long long>(r.failed_ops));
  fleet_tail(o, r, r.remote_ops, "remote ops");
  return r.complete && r.audit_ok ? 0 : 1;
}

int run_motivating(const Options& o) {
  bool audit_bad = false;
  for (const bool tuned : {false, true}) {
    exp::FrontEndPair pair;
    // Each iteration has its own engine and registry; --stats-out keeps
    // the tuned run's dump (the second write overwrites the first).
    StatsScope ss(pair.eng, o);
    AuditScope as(pair.eng, o);
    apps::IperfConfig cfg;
    cfg.bidirectional = true;
    cfg.numa_tuned = tuned;
    cfg.sender_buffer_bytes = 256ull << 20;
    cfg.duration = 3 * sim::kSecond;
    // Each iteration has its own engine; trace the tuned run.
    std::unique_ptr<TraceScope> ts;
    if (tuned) ts = std::make_unique<TraceScope>(pair.eng, o);
    const auto r =
        run_iperf(pair.eng, *pair.a, *pair.b, pair.iperf_links(), cfg);
    if (ts) {
      ts->finish();
    }
    std::printf("iperf bidirectional, %s: %.1f Gbps aggregate\n",
                tuned ? "numa-tuned" : "default scheduler",
                r.aggregate_gbps);
    const bool bad = as.failed();
    audit_bad |= bad;
    ss.finish(bad ? 1 : 0);
  }
  return audit_bad ? 1 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Options o = parse(argc, argv);
  if (o.scenario == "fleet" || o.scenario == "kv") {
    if (o.shards > o.pairs) {  // both parse as >= 1
      std::fprintf(stderr,
                   "bad --shards %d: must be in [1, --pairs=%d] (one engine "
                   "shard per host pair)\n",
                   o.shards, o.pairs);
      usage();
    }
    if (!o.fault_plan.empty()) {
      std::fprintf(stderr,
                   "%s uses --fault-seed; a scripted --fault-plan targets "
                   "a single session\n",
                   o.scenario.c_str());
      usage();
    }
    if (o.fast_forward) {
      std::fprintf(stderr,
                   "bad --fast-forward 1: %s runs its pairs as shards of one "
                   "cluster, which cannot skip time\n",
                   o.scenario.c_str());
      usage();
    }
    return o.scenario == "kv" ? run_kv(o) : run_fleet(o);
  }
  if (o.shards != 1) {
    std::fprintf(stderr,
                 "bad --shards %d: only the fleet and kv scenarios are "
                 "sharded (%s runs one engine)\n",
                 o.shards, o.scenario.c_str());
    usage();
  }
  if (o.scenario == "san" || o.scenario == "motivating") {
    // Neither runs an rftp transfer: a fault or fast-forward flag would be
    // silently ignored, and a sweep over it would report fault-free runs.
    const char* flag = !o.fault_plan.empty() ? "--fault-plan"
                       : o.fault_seed != 0   ? "--fault-seed"
                       : o.fast_forward      ? "--fast-forward 1"
                                             : nullptr;
    if (flag != nullptr) {
      std::fprintf(stderr, "bad %s: %s injects no faults and runs no rftp "
                   "transfer\n", flag, o.scenario.c_str());
      usage();
    }
  }
  if (o.scenario == "quick") return run_quick(o);
  if (o.scenario == "e2e") return run_e2e(o);
  if (o.scenario == "wan") return run_wan(o);
  if (o.scenario == "san") return run_san(o);
  if (o.scenario == "motivating") return run_motivating(o);
  usage();
}
