// kv workloads: `e2e_transfer_sim kv --pairs 4 --ops 65536 --seed N`
// (kv-rpc) and the same with `--get-mode read` (kv-read), through
// exp::run_kv. Every other parameter is the CLI default: one shard worker,
// 16384 keys, 4 KiB values, depth 8, Zipf 0.99, 10 % PUTs, every 16th op
// cross-pair.
//
// run_kv builds, establishes, runs, merges and tears down inside one call;
// its KvResult::wall_seconds is the parallel phase (wall_s), which is
// sim::Cluster::run. That call starts the shard workers on entry and joins
// them on exit, and no other thread runs during run_kv. So the CPU of the
// parallel phase (cpu_s, sys_s) is read without an estimate: the workers'
// share is the process's CPU over the call minus the calling thread's, and
// the coordinator's share is the calling thread's CPU between the first
// pthread_create and the last pthread_join, which this file interposes.
#include <dlfcn.h>
#include <pthread.h>

#include <cstdio>
#include <stdexcept>
#include <string>

#include "common.hpp"
#include "exp/kv_scenario.hpp"

namespace {

// The calling thread's CPU clocks at the parallel phase's edges. Written by
// the interposed functions only while armed, and only the thread that runs
// run_kv starts or joins threads.
struct PhaseEdges {
  bool armed = false;
  double cpu0 = -1, sys0 = 0, cpu1 = -1, sys1 = 0;
} g_edges;

template <typename Fn>
Fn next_symbol(const char* name) {
  return reinterpret_cast<Fn>(dlsym(RTLD_NEXT, name));
}

}  // namespace

extern "C" int pthread_create(pthread_t* t, const pthread_attr_t* attr,
                              void* (*fn)(void*), void* arg) noexcept {
  using Real = int (*)(pthread_t*, const pthread_attr_t*, void* (*)(void*),
                       void*);
  static const Real real = next_symbol<Real>("pthread_create");
  if (g_edges.armed && g_edges.cpu0 < 0) {
    g_edges.cpu0 = perfbench::thread_cpu_s();
    g_edges.sys0 = perfbench::thread_sys_s();
  }
  return real(t, attr, fn, arg);
}

extern "C" int pthread_join(pthread_t t, void** ret) {
  using Real = int (*)(pthread_t, void**);
  static const Real real = next_symbol<Real>("pthread_join");
  const int rc = real(t, ret);
  if (g_edges.armed) {
    g_edges.cpu1 = perfbench::thread_cpu_s();
    g_edges.sys1 = perfbench::thread_sys_s();
  }
  return rc;
}

namespace perfbench {

int run_kv(const Options& o) {
  e2e::exp::KvParams kp;
  kp.pairs = o.tiny ? 2 : 4;
  kp.ops_per_pair = (o.tiny ? 2048 : 65536) /
                    static_cast<std::uint64_t>(o.size_div);
  kp.get_via_read = o.workload == "kv-read";
  kp.seed = o.seed;
  kp.audit = o.audit;
  kp.stats = o.stats;

  SpanLog log;
  const int rep = log.open("rep");
  set_alloc_counting(o.count_allocs);
  const std::uint64_t a0 = allocs();
  const double c0 = cpu_s() - thread_cpu_s(), s0 = sys_s() - thread_sys_s();
  g_edges.armed = true;
  const int call = log.open("run_kv");
  const e2e::exp::KvResult r = e2e::exp::run_kv(kp);
  log.close(call);
  g_edges.armed = false;
  const std::uint64_t n_allocs = allocs() - a0;
  set_alloc_counting(false);
  if (g_edges.cpu0 < 0 || g_edges.cpu1 < 0)
    throw std::runtime_error("no shard worker was started and joined");
  const double cpu = cpu_s() - thread_cpu_s() - c0 + g_edges.cpu1 -
                     g_edges.cpu0;
  const double sys = sys_s() - thread_sys_s() - s0 + g_edges.sys1 -
                     g_edges.sys0;
  log.add_measured(call, "parallel", r.wall_seconds);
  log.close(rep);

  char cli[128];
  std::snprintf(cli, sizeof cli, "kv --pairs %d --ops %llu%s --seed %llu",
                kp.pairs, static_cast<unsigned long long>(kp.ops_per_pair),
                kp.get_via_read ? " --get-mode read" : "",
                static_cast<unsigned long long>(kp.seed));
  JsonLine j;
  j.str("workload", o.workload)
      .u64("seed", o.seed)
      .str("cli", cli)
      .u64("shard_workers", static_cast<std::uint64_t>(kp.shards))
      .u64("pairs", static_cast<std::uint64_t>(kp.pairs))
      .u64("ops_per_pair", kp.ops_per_pair)
      .u64("value_bytes", kp.value_bytes)
      .str("fingerprint", r.digest)
      .boolean("complete", r.complete)
      .boolean("audit_ok", r.audit_ok)
      .u64("audit_violations", r.audit_violations)
      .u64("failed_ops", r.failed_ops)
      .u64("ops", r.ops_done)
      .u64("gets", r.gets)
      .u64("puts", r.puts)
      .u64("remote_ops", r.remote_ops)
      .u64("rpc_retries", r.rpc_retries)
      .u64("stale_responses", r.stale_responses)
      .u64("calls_served", r.calls_served)
      .u64("doorbells", r.doorbells)
      .u64("doorbell_wrs", r.doorbell_wrs)
      .u64("poll_batches", r.poll_batches)
      .u64("poll_cqes", r.poll_cqes)
      .u64("events", r.sim_events)
      .u64("windows", r.windows)
      .u64("cross_posts", r.cross_posts)
      .num("mops", r.aggregate_mops)
      .u64("get_p50_ns", r.get_p50_ns)
      .u64("get_p999_ns", r.get_p999_ns)
      .u64("put_p50_ns", r.put_p50_ns)
      .u64("put_p999_ns", r.put_p999_ns)
      .u64("allocs", n_allocs);
  std::string pair_mops = "[";
  char buf[48];
  for (double m : r.pair_mops) {
    std::snprintf(buf, sizeof buf, "%s%.17g", pair_mops.size() > 1 ? "," : "",
                  m);
    pair_mops += buf;
  }
  pair_mops += "]";
  j.raw("pair_mops", pair_mops)
      .num("wall_s", r.wall_seconds)
      .num("cpu_s", cpu)
      .num("sys_s", sys)
      .num("setup_s", log.seconds(rep) - r.wall_seconds)
      .raw("spans", log.json())
      .raw("stats", o.stats ? r.stats_json : std::string("null"));
  add_build_info(j);
  j.print();
  return 0;
}

}  // namespace perfbench
