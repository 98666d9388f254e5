// Golden determinism tests for the sharded parallel engine.
//
// The contract under test (sim/cluster.hpp): the worker-thread count is
// pure mechanism — for the same fleet configuration and seed, every output
// (trace JSON, merged stats JSON, audit verdicts, final metrics, the
// one-line digest) is bit-identical at --shards 1, 2, 4, or 8. These tests
// run the same fleet at several worker counts and diff the full artifacts,
// not just summaries.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "exp/fleet.hpp"

namespace e2e {
namespace {

// Digests recorded from the hand-rolled run_fleet that predates
// exp::PairFleet. Every other test here compares runs of one build with each
// other, which a change that shifts every run equally would pass; these pin
// the outputs across commits.
constexpr const char* kTinyFleet4Digest =
    "fleet-v1 pairs=4 bytes=8388608 seed=0 complete=1 integrity=1"
    " audit_viol=0 ring=32 events=1920 windows=38 cross=32"
    " t=[502187343,502187343,502187343,502187343]"
    " gbps=[29.4171071,29.4171071,29.4171071,29.4171071]"
    " stats_fnv=2173652279729502726 trace_fnv=18256530538551028774";
constexpr const char* kTinyFleet4ChaosDigest =
    "fleet-v1 pairs=4 bytes=33554432 seed=20260809 complete=1"
    " integrity=1 audit_viol=0 ring=32 events=4584 windows=366"
    " cross=32 t=[2256226967,2281068313,2432627113,2173214803]"
    " gbps=[34.1969674,30.8761214,34.1969674,27.5338749]"
    " stats_fnv=9974140575125026399 trace_fnv=9111714202280270616";

exp::FleetParams tiny_fleet(int pairs, int shards) {
  exp::FleetParams p;
  p.pairs = pairs;
  p.shards = shards;
  p.bytes_per_pair = 8ull << 20;
  p.block_bytes = 1ull << 20;
  p.streams = 3;
  p.credits = 4;
  p.ring_messages = 8;
  p.ring_msg_bytes = 256 * 1024;
  p.audit = true;
  p.stats = true;
  p.trace = true;
  return p;
}

TEST(ParallelDeterminismTest, WorkerCountIsInvisibleInEveryArtifact) {
  std::vector<exp::FleetResult> runs;
  for (const int shards : {1, 2, 4, 8})
    runs.push_back(exp::run_fleet(tiny_fleet(8, shards)));
  for (std::size_t i = 1; i < runs.size(); ++i) {
    SCOPED_TRACE("shards run #" + std::to_string(i));
    EXPECT_EQ(runs[0].digest, runs[i].digest);
    EXPECT_EQ(runs[0].stats_json, runs[i].stats_json);
    EXPECT_EQ(runs[0].trace_json, runs[i].trace_json);
    EXPECT_EQ(runs[0].audit_violations, runs[i].audit_violations);
    EXPECT_EQ(runs[0].pair_gbps, runs[i].pair_gbps);
    EXPECT_EQ(runs[0].sim_events, runs[i].sim_events);
    EXPECT_EQ(runs[0].windows, runs[i].windows);
    EXPECT_EQ(runs[0].cross_posts, runs[i].cross_posts);
  }
  EXPECT_TRUE(runs[0].complete);
  EXPECT_TRUE(runs[0].integrity_ok);
  EXPECT_TRUE(runs[0].audit_ok);
  EXPECT_EQ(runs[0].ring_completed, 8u * 8u);
  EXPECT_GT(runs[0].cross_posts, 0u);
}

TEST(ParallelDeterminismTest, ChaosScheduleSurvivesWorkerCountChanges) {
  // Fault injection (qp kills, crashes, loss bursts) rides the same event
  // schedule, so a chaos run must also be bit-identical across worker
  // counts — fault timing cannot leak wall-clock nondeterminism.
  std::vector<exp::FleetResult> runs;
  for (const int shards : {1, 4}) {
    auto p = tiny_fleet(4, shards);
    p.bytes_per_pair = 32ull << 20;  // long enough to straddle the faults
    p.fault_seed = 20260809;
    runs.push_back(exp::run_fleet(p));
  }
  EXPECT_EQ(runs[0].digest, runs[1].digest);
  EXPECT_EQ(runs[0].digest, kTinyFleet4ChaosDigest);
  EXPECT_EQ(runs[0].stats_json, runs[1].stats_json);
  EXPECT_EQ(runs[0].trace_json, runs[1].trace_json);
  EXPECT_TRUE(runs[0].integrity_ok);
}

TEST(ParallelDeterminismTest, RepeatedRunsAreBitIdentical) {
  // Same seed, same worker count, fresh topology: nothing (ASLR, pool
  // reuse from the previous runs in this process) may leak into results.
  const auto a = exp::run_fleet(tiny_fleet(4, 2));
  const auto b = exp::run_fleet(tiny_fleet(4, 2));
  EXPECT_EQ(a.digest, b.digest);
  EXPECT_EQ(a.digest, kTinyFleet4Digest);  // shard-invariant, so = (4, 1)
  EXPECT_EQ(a.stats_json, b.stats_json);
  EXPECT_EQ(a.trace_json, b.trace_json);
}

TEST(ParallelDeterminismTest, SinglePairFleetHasNoSeamAndStillRuns) {
  // One pair => no cross-shard link, infinite lookahead, a single window.
  auto p = tiny_fleet(1, 1);
  const auto r = exp::run_fleet(p);
  EXPECT_TRUE(r.complete);
  EXPECT_TRUE(r.audit_ok);
  EXPECT_EQ(r.cross_posts, 0u);
  EXPECT_EQ(r.ring_completed, 0u);
}

TEST(ParallelDeterminismTest, RejectsBadShardCounts) {
  auto p = tiny_fleet(4, 0);
  EXPECT_THROW(exp::run_fleet(p), std::invalid_argument);
  p.shards = 5;
  EXPECT_THROW(exp::run_fleet(p), std::invalid_argument);
  p.shards = -2;
  EXPECT_THROW(exp::run_fleet(p), std::invalid_argument);
}

}  // namespace
}  // namespace e2e
