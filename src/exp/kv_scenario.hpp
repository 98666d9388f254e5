// KV scenario: the small-message tier's driving workload.
//
// `pairs` client/server host pairs each run a closed-loop Zipfian GET/PUT
// workload over the rpc tier on their own sim::Engine shard, connected by
// a short rack-scale RoCE link (net::make_roce_rack) — the regime where
// the two-sided-RPC vs one-sided-READ crossover lands inside a practical
// value-size sweep. Every `remote_every`-th operation is carried by a
// cross-shard rpc connection to the next pair's server (client i into
// server (i+1)%pairs), so the conservative-lookahead merge path sees real
// small-message traffic; `shards` selects only the worker-thread count
// and, as everywhere else in this tree, every output is bit-identical for
// any value.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace e2e::exp {

struct KvParams {
  int pairs = 1;   // client/server pairs; one engine shard per pair
  int shards = 1;  // worker threads driving the shards
  std::uint64_t keys = 16384;
  std::uint64_t ops_per_pair = 4096;
  std::uint64_t value_bytes = 4096;
  int store_shards = 2;  // per-server NUMA shards (striped across nodes)
  int depth = 8;         // concurrent closed-loop workers per client
  // GET path: false = two-sided rpc (server CPU per call), true = two
  // chained one-sided READs (index entry then value, zero server CPU).
  bool get_via_read = false;
  double zipf_theta = 0.99;  // 0 = uniform key popularity
  double put_frac = 0.1;     // fraction of ops that are PUTs (always rpc)
  // Every Nth op goes to the next pair's server over the cross-shard rpc
  // connection (needs pairs >= 2; 0 disables).
  int remote_every = 16;
  std::uint64_t seed = 1;        // workload rng (keys, op mix)
  std::uint64_t fault_seed = 0;  // != 0: seeded per-pair chaos plans
  bool audit = true;
  bool stats = false;
  bool trace = false;  // capture merged Chrome trace JSON
};

struct KvResult {
  bool complete = true;  // every op finished (and succeeded, fault-free)
  bool audit_ok = true;
  std::size_t audit_violations = 0;
  std::uint64_t ops_done = 0;
  std::uint64_t gets = 0;
  std::uint64_t puts = 0;
  std::uint64_t remote_ops = 0;
  std::uint64_t failed_ops = 0;  // rpc gave up / READ retries exhausted
  std::uint64_t rpc_retries = 0;
  std::uint64_t stale_responses = 0;
  std::uint64_t calls_served = 0;  // all servers, ring included
  std::uint64_t doorbells = 0;     // all endpoints
  std::uint64_t doorbell_wrs = 0;
  std::uint64_t poll_batches = 0;
  std::uint64_t poll_cqes = 0;
  std::uint64_t sim_events = 0;
  std::uint64_t windows = 0;
  std::uint64_t cross_posts = 0;
  // Past-time schedules clamped to now, every shard, whole run (not in
  // the digest: a clean run books none).
  std::uint64_t clamped_schedules = 0;
  // Dispatches that ran an EventFn closure rather than resuming a
  // coroutine directly, every shard (not in the digest, like the above).
  std::uint64_t closure_events = 0;
  double wall_seconds = 0.0;  // parallel phase only
  double aggregate_mops = 0.0;
  std::vector<double> pair_mops;
  // Merged op-latency percentiles (ns), GETs and PUTs separately.
  std::uint64_t get_p50_ns = 0, get_p99_ns = 0, get_p999_ns = 0;
  std::uint64_t put_p50_ns = 0, put_p99_ns = 0, put_p999_ns = 0;
  std::string stats_json;  // merged registry dump (params.stats)
  std::string trace_json;  // merged Chrome trace (params.trace)
  /// One-line fingerprint of every deterministic output above;
  /// bit-identical across shard counts.
  std::string digest;
};

/// Throws std::invalid_argument on out-of-range params
/// (1 <= shards <= pairs, store_shards/keys/values/depth >= 1, ...).
KvResult run_kv(const KvParams& p);

}  // namespace e2e::exp
