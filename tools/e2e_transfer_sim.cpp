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
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "exp/fleet.hpp"
#include "exp/kv_scenario.hpp"
#include "exp/scenarios.hpp"
#include "fault/plan.hpp"

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
  std::vector<std::string> given;  // flags on the command line, in order
};

/// The flags each scenario reads besides kEveryScenario's; main() refuses
/// any other given flag.
struct Reads {
  const char* scenario;
  std::string_view flags;
};
constexpr std::string_view kEveryScenario =
    "--trace --audit --stats --stats-out";
constexpr Reads kReads[] = {
    {"quick", "--gib --block --streams --credits --numa --checkpoint "
              "--fault-plan --fault-seed --fast-forward"},
    {"e2e", "--gib --block --streams --credits --numa --checkpoint "
            "--fault-plan --fault-seed --fast-forward --files"},
    {"wan", "--gib --block --streams --credits --checkpoint --fault-plan "
            "--fault-seed --fast-forward"},
    {"san", "--block --numa --write --duration"},
    {"motivating", ""},
    {"fleet", "--gib --block --streams --credits --checkpoint --fault-seed "
              "--pairs --shards"},
    {"kv", "--gib --fault-seed --pairs --shards --keys --ops --value-size "
           "--kv-shards --depth --get-mode --zipf --put-frac --remote-every "
           "--seed"},
};

/// Whether the space-separated `flags` names `flag`.
bool lists(std::string_view flags, std::string_view flag) {
  for (std::size_t at = 0; at <= flags.size();) {
    const std::size_t end = std::min(flags.find(' ', at), flags.size());
    if (flags.substr(at, end - at) == flag) return true;
    at = end + 1;
  }
  return false;
}

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
      "                   fleet/kv draw one plan per pair)\n"
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
      "  --stats-out FILE write the stats dump (.csv -> CSV, else JSON;\n"
      "                   fleet/kv write JSON only); needs --stats 1\n"
      "  --fast-forward 0|1  collapse proven steady-state bulk phases into\n"
      "                   closed-form spans (default 0 = event-exact; final\n"
      "                   metrics are identical either way)\n"
      "Each scenario refuses any flag it does not read; besides --trace,\n"
      "--audit, --stats and --stats-out, they read:\n",
      stderr);
  for (const Reads& r : kReads)
    std::fprintf(stderr, "  %-11s%.*s\n", r.scenario,
                 static_cast<int>(r.flags.size()), r.flags.data());
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
    const std::string arg = argv[i];
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
    if (std::find(o.given.begin(), o.given.end(), arg) == o.given.end())
      o.given.push_back(arg);
  }
  return o;
}

/// Opens `path` for writing (null when `path` is empty), or exits 1 with
/// "cannot write <path>".
std::unique_ptr<std::ofstream> open_out(const std::string& path) {
  if (path.empty()) return nullptr;
  auto os = std::make_unique<std::ofstream>(path);
  if (!*os) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    std::exit(1);
  }
  return os;
}

void write_file(const std::string& path, const std::string& text) {
  if (auto os = open_out(path)) *os << text;
}

/// What --audit, --stats, --stats-out and --trace ask a single-engine
/// runner for; the trace streams into `trace`.
exp::Observers observers(const Options& o, std::ostream* trace) {
  return {.audit = o.audit, .stats = o.stats,
          .stats_csv = o.stats_out.ends_with(".csv"), .trace = trace};
}

/// The tail every single-engine scenario shares: its diagnostics (audit
/// report, flight dump) on stderr and the stats dump to --stats-out.
void finish(const Options& o, const exp::Observed& r) {
  std::fputs(r.report.c_str(), stderr);
  write_file(o.stats_out, r.stats_dump);
}

/// The scripted --fault-plan, or nullopt without one. A malformed plan, or
/// one naming a stream or host the run does not have, exits with usage
/// before anything is built.
std::optional<fault::FaultPlan> scripted_plan(const Options& o, int streams) {
  if (o.fault_plan.empty()) return std::nullopt;
  fault::FaultPlan plan;
  // A malformed plan is an operator typo, not a crash: report it the same
  // way an unknown flag is reported (usage + exit 2).
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
  return plan;
}

/// quick, e2e and wan: one rftp transfer on the scenario's rig.
int run_transfer(const Options& o, exp::Rig rig) {
  exp::TransferParams p{
      .rig = rig, .bytes = o.gib << 30, .streams = o.streams,
      .block_bytes = o.block, .credits = o.credits, .numa = o.numa,
      .checkpoint_blocks = o.checkpoint, .fast_forward = o.fast_forward,
      .files = o.files, .fault_seed = o.fault_seed};
  p.fault_plan = scripted_plan(o, p.streams_or_default());
  const auto trace = open_out(o.trace_file);
  p.obs = observers(o, trace.get());
  const exp::TransferRun r = exp::run_transfer(p);
  const rftp::TransferResult& t = r.transfer;
  if (!r.fault_plan.empty())
    std::printf("fault plan: %s\n", r.fault_plan.c_str());
  switch (rig) {
    case exp::Rig::kQuick:
      std::printf("quick: %llu GiB in %.2f s -> %.1f Gbps\n",
                  static_cast<unsigned long long>(o.gib), t.elapsed_s,
                  t.goodput_gbps);
      std::printf("digest: %016llx\n",
                  static_cast<unsigned long long>(r.sink_digest));
      break;
    case exp::Rig::kE2e:
      std::printf("e2e (%s): %.1f Gbps over the full SAN->RoCE->SAN path\n",
                  o.numa ? "numa-tuned" : "untuned", t.goodput_gbps);
      std::printf("per-second series: ");
      for (double g : r.series_gbps) std::printf("%.0f ", g);
      std::printf("Gbps\n");
      break;
    case exp::Rig::kWan:
      std::printf(
          "wan (rtt 95 ms): %.1f Gbps (%.0f%% of 40G); in-flight window %.0f "
          "MB vs BDP 475 MB\n",
          t.goodput_gbps, 100.0 * t.goodput_gbps / 40.0,
          static_cast<double>(p.streams_or_default()) * o.credits *
              static_cast<double>(o.block) / 1e6);
      break;
  }
  if (o.fast_forward)
    std::printf("fast-forward: %llu span%s, %llu blocks collapsed, %.3f s "
                "skipped\n",
                static_cast<unsigned long long>(t.ff_spans),
                t.ff_spans == 1 ? "" : "s",
                static_cast<unsigned long long>(t.ff_blocks),
                sim::to_seconds(t.ff_skipped_ns));
  if (!r.fault_plan.empty()) {
    std::printf(
        "faults: %llu injected, %llu messages dropped; "
        "%llu retransmits, %llu failovers; complete=%s integrity=%s\n",
        static_cast<unsigned long long>(r.faults_injected),
        static_cast<unsigned long long>(r.messages_failed),
        static_cast<unsigned long long>(r.retransmissions),
        static_cast<unsigned long long>(r.failovers),
        t.complete ? "yes" : "NO", t.integrity_ok ? "ok" : "FAILED");
    if (t.crashes > 0)
      std::printf(
          "crashes: %llu crashed, %llu resumed; %llu checkpoints, "
          "%llu blocks rolled back, %llu false suspicions\n",
          static_cast<unsigned long long>(t.crashes),
          static_cast<unsigned long long>(t.resumes),
          static_cast<unsigned long long>(r.checkpoints),
          static_cast<unsigned long long>(r.rolled_back_blocks),
          static_cast<unsigned long long>(r.false_suspicions));
  }
  finish(o, r);
  return t.complete && t.integrity_ok && r.audit_ok ? 0 : 1;
}

int run_san(const Options& o) {
  exp::SanParams p;
  p.san.numa_tuned = o.numa;
  p.fio.block_bytes = o.block;
  p.fio.write = o.write;
  p.fio.duration = sim::from_seconds(o.duration_s);
  const auto trace = open_out(o.trace_file);
  p.obs = observers(o, trace.get());
  const exp::SanRun r = exp::run_san(p);
  std::printf("san %s (%s): %.1f Gbps, target CPU %.0f%%\n",
              o.write ? "write" : "read", o.numa ? "numa-tuned" : "untuned",
              r.fio.gbps, r.fio.target_cpu_pct);
  finish(o, r);
  return r.audit_ok ? 0 : 1;
}

int run_motivating(const Options& o) {
  const auto trace = open_out(o.trace_file);
  const exp::MotivatingRun r = exp::run_motivating(observers(o, trace.get()));
  std::printf("iperf bidirectional, default scheduler: %.1f Gbps aggregate\n",
              r.stock.aggregate_gbps);
  std::printf("iperf bidirectional, numa-tuned: %.1f Gbps aggregate\n",
              r.tuned.aggregate_gbps);
  finish(o, r);
  return r.audit_ok ? 0 : 1;
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
  write_file(o.stats_out, r.stats_json);
  write_file(o.trace_file, r.trace_json);
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

}  // namespace

int main(int argc, char** argv) {
  const Options o = parse(argc, argv);
  const auto* sc = std::find_if(
      std::begin(kReads), std::end(kReads),
      [&](const Reads& r) { return o.scenario == r.scenario; });
  if (sc == std::end(kReads)) usage();
  const bool sharded = o.scenario == "fleet" || o.scenario == "kv";
  // Refuse every given flag the scenario would ignore, not just the first:
  // a sweep over an ignored flag reports one configuration many times.
  bool bad = false;
  for (const std::string& flag : o.given)
    if (!lists(sc->flags, flag) && !lists(kEveryScenario, flag)) {
      std::fprintf(stderr, "bad %s: %s does not read it\n", flag.c_str(),
                   sc->scenario);
      bad = true;
    }
  if (!o.stats_out.empty() && !o.stats) {
    std::fprintf(stderr, "bad --stats-out: --stats 0 records no stats\n");
    bad = true;
  } else if (sharded && o.stats_out.ends_with(".csv")) {
    std::fprintf(stderr, "bad --stats-out %s: %s writes JSON only\n",
                 o.stats_out.c_str(), sc->scenario);
    bad = true;
  }
  if (bad) usage();
  if (sharded && o.shards > o.pairs) {  // both parse as >= 1
    std::fprintf(stderr,
                 "bad --shards %d: must be in [1, --pairs=%d] (one engine "
                 "shard per host pair)\n",
                 o.shards, o.pairs);
    usage();
  }
  if (o.scenario == "quick") return run_transfer(o, exp::Rig::kQuick);
  if (o.scenario == "e2e") return run_transfer(o, exp::Rig::kE2e);
  if (o.scenario == "wan") return run_transfer(o, exp::Rig::kWan);
  if (o.scenario == "san") return run_san(o);
  if (o.scenario == "motivating") return run_motivating(o);
  if (o.scenario == "kv") return run_kv(o);
  return run_fleet(o);
}
