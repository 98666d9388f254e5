// Fleet scenario: the sharded parallel engine's driving workload.
//
// `pairs` independent host pairs each run one RFTP transfer on their own
// sim::Engine shard, plus a ring of cross-shard background RDMA Writes
// (pair i's sender host into pair (i+1)%pairs' receiver host) so the
// cluster's conservative-lookahead merge path carries real traffic every
// window. `shards` selects only the worker-thread count; the executed
// event schedule — and therefore every output — is bit-identical for any
// value (see sim/cluster.hpp for the argument). Built on exp::PairFleet
// (exp/pair_fleet.hpp). Fast-forward never applies here: skipping time on
// one shard would break the cluster's conservative lookahead.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace e2e::exp {

struct FleetParams {
  int pairs = 8;        // transfer pairs; one engine shard per pair
  int shards = 1;       // worker threads driving the shards
  std::uint64_t bytes_per_pair = 64ull << 20;
  std::uint64_t block_bytes = 1ull << 20;
  int streams = 3;  // >= 2 so chaos qp-kills have a failover target
  int credits = 8;
  int checkpoint_blocks = 1;
  std::uint64_t ring_messages = 32;  // cross-shard writes per pair
  std::uint64_t ring_msg_bytes = 1ull << 20;
  std::uint64_t fault_seed = 0;  // != 0: seeded per-pair chaos plans
  bool audit = true;            // per-shard auditors + merged QP ledgers
  bool stats = false;            // capture merged stats JSON in the result
  bool trace = false;            // capture merged Chrome trace JSON
};

struct FleetResult {
  double aggregate_gbps = 0.0;  // sum over pairs
  std::vector<double> pair_gbps;
  bool complete = true;
  bool integrity_ok = true;
  bool audit_ok = true;
  std::size_t audit_violations = 0;
  std::uint64_t ring_completed = 0;  // cross-shard writes acknowledged
  std::uint64_t sim_events = 0;      // parallel-phase events, all shards
  std::uint64_t windows = 0;         // conservative lookahead windows
  std::uint64_t cross_posts = 0;     // messages through the shard merge
  double wall_seconds = 0.0;         // parallel phase only
  std::string stats_json;  // merged e2e-stats-cluster-v1 (params.stats)
  std::string trace_json;  // merged Chrome trace (params.trace)
  /// One-line fingerprint of every deterministic output above (plus FNV
  /// hashes of the JSON dumps); bit-identical across shard counts.
  std::string digest;
};

/// Throws std::invalid_argument unless 1 <= shards <= pairs.
FleetResult run_fleet(const FleetParams& p);

}  // namespace e2e::exp
