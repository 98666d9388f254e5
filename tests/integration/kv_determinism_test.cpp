// kv scenario determinism: the sharded parallel engine must produce
// byte-identical results (digest, audited ledgers, merged stats JSON) at
// any shard count, in both GET modes, and runs must be reproducible
// seed-for-seed. This is the same guarantee parallel_determinism_test
// pins for the bulk fleet, applied to the small-message tier.
#include <gtest/gtest.h>

#include <stdexcept>

#include "exp/kv_scenario.hpp"

namespace e2e::exp {
namespace {

// Digests recorded from the hand-rolled run_kv that predates
// exp::PairFleet, so a change that shifts every run equally (which the
// run-vs-run comparisons below would pass) still fails.
constexpr const char* kTinyKvRpcDigest =
    "kv-v1 pairs=4 keys=1024 ops=512 value=1024 depth=4 mode=rpc"
    " store_shards=2 seed=42 fseed=0 complete=1 audit_viol=0"
    " gets=1835 puts=213 remote=128 failed=0 retries=0 stale=0"
    " served=2048 doorbells=4081/4096 polls=4073/4096 events=58810"
    " windows=849 cross=256 t=[6268821,6268129,6267944,6266437]"
    " mops=[0.548716839,0.548972178,0.549233647,0.550122972]"
    " get_ns=[7423,8191,9215] put_ns=[7423,8191,8907]"
    " stats_fnv=14517833092078859544";
constexpr const char* kTinyKvReadDigest =
    "kv-v1 pairs=4 keys=1024 ops=512 value=1024 depth=4 mode=read"
    " store_shards=2 seed=42 fseed=0 complete=1 audit_viol=0"
    " gets=1835 puts=213 remote=128 failed=0 retries=0 stale=0"
    " served=326 doorbells=652/652 polls=651/652 events=40461"
    " windows=829 cross=256 t=[7864188,7842705,7850031,7866761]"
    " mops=[0.407550834,0.406537956,0.407159648,0.407380591]"
    " get_ns=[10751,10751,10751] put_ns=[7167,8703,8709]"
    " stats_fnv=16179756820889858341";

KvParams tiny_kv(int shards) {
  KvParams p;
  p.pairs = 4;
  p.shards = shards;
  p.keys = 1024;
  p.ops_per_pair = 512;
  p.value_bytes = 1024;
  p.store_shards = 2;
  p.depth = 4;
  p.remote_every = 16;
  p.seed = 42;
  p.audit = true;
  p.stats = true;
  return p;
}

TEST(KvDeterminismTest, DigestInvariantAcrossShardCounts) {
  const auto seq = run_kv(tiny_kv(1));   // one shard: plain sequential DES
  const auto par = run_kv(tiny_kv(4));   // four shards: conservative PDES
  ASSERT_TRUE(seq.complete);
  ASSERT_TRUE(seq.audit_ok) << seq.audit_violations;
  ASSERT_TRUE(par.complete);
  ASSERT_TRUE(par.audit_ok) << par.audit_violations;
  EXPECT_EQ(seq.digest, par.digest);
  EXPECT_EQ(seq.digest, kTinyKvRpcDigest);
  EXPECT_EQ(seq.stats_json, par.stats_json);
  EXPECT_FALSE(seq.stats_json.empty());
}

TEST(KvDeterminismTest, SameSeedReproducesByteIdentically) {
  const auto a = run_kv(tiny_kv(2));
  const auto b = run_kv(tiny_kv(2));
  ASSERT_TRUE(a.complete);
  EXPECT_EQ(a.digest, b.digest);
  EXPECT_EQ(a.stats_json, b.stats_json);
  EXPECT_EQ(a.sim_events, b.sim_events);
}

TEST(KvDeterminismTest, ReadModeIsDeterministicToo) {
  auto p = tiny_kv(2);
  p.get_via_read = true;
  const auto a = run_kv(p);
  const auto b = run_kv(p);
  ASSERT_TRUE(a.complete);
  ASSERT_TRUE(a.audit_ok) << a.audit_violations;
  EXPECT_GT(a.gets, 0u);
  EXPECT_EQ(a.digest, b.digest);
  EXPECT_EQ(a.digest, kTinyKvReadDigest);  // shard-invariant, so = tiny_kv(1)
}

TEST(KvDeterminismTest, DifferentSeedsDiverge) {
  auto p = tiny_kv(2);
  const auto a = run_kv(p);
  p.seed = 43;
  const auto b = run_kv(p);
  EXPECT_NE(a.digest, b.digest);
}

TEST(KvDeterminismTest, RejectsBadParams) {
  auto p = tiny_kv(1);
  p.keys = 0;
  EXPECT_THROW(run_kv(p), std::invalid_argument);
  p = tiny_kv(1);
  p.depth = 0;
  EXPECT_THROW(run_kv(p), std::invalid_argument);
  p = tiny_kv(8);  // more shards than pairs
  EXPECT_THROW(run_kv(p), std::invalid_argument);
}

}  // namespace
}  // namespace e2e::exp
