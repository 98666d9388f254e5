// kv scenario determinism: the sharded parallel engine must produce
// byte-identical results (digest, audited ledgers, merged stats JSON) at
// any shard count, in both GET modes, and runs must be reproducible
// seed-for-seed. This is the same guarantee parallel_determinism_test
// pins for the bulk fleet, applied to the small-message tier. The tiny
// rig's absolute digests, in both GET modes, are CLI cases of the golden
// ledger (tests/golden/cli/kv_*.txt).
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "exp/kv_scenario.hpp"

namespace e2e::exp {
namespace {

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
  p.shards = 1;
  const auto b = run_kv(p);
  ASSERT_TRUE(a.complete);
  ASSERT_TRUE(a.audit_ok) << a.audit_violations;
  EXPECT_GT(a.gets, 0u);
  EXPECT_EQ(a.digest, b.digest);  // shard-invariant
}

// A clean run never schedules into an engine's past: no same-engine
// caller, and no cross-shard delivery, needs Engine::schedule_at's clamp.
// Its closure count is pinned too: coroutine wakeups resume their frames
// directly, so only link deliveries, rpc retry timers and cross-shard
// merges run EventFn closures — 3.0 per op at any shard count.
TEST(KvDeterminismTest, CleanRunClampsNoPastSchedule) {
  for (int shards : {1, 4}) {
    KvParams p;  // 4 pairs, 4096 ops per pair, the CLI's defaults otherwise
    p.pairs = 4;
    p.shards = shards;
    p.ops_per_pair = 4096;
    const auto r = run_kv(p);
    ASSERT_TRUE(r.complete) << "shards " << shards;
    EXPECT_EQ(r.clamped_schedules, 0u) << "shards " << shards;
    EXPECT_EQ(r.closure_events, 49'152u) << "shards " << shards;
  }
}

TEST(KvDeterminismTest, DifferentSeedsDiverge) {
  auto p = tiny_kv(2);
  const auto a = run_kv(p);
  p.seed = 43;
  const auto b = run_kv(p);
  EXPECT_NE(a.digest, b.digest);
}

// True when `s` is one balanced JSON value: brackets nest and close
// outside string literals (enough to catch a truncated or unterminated
// trace file).
bool json_balanced(const std::string& s) {
  int depth = 0;
  bool in_str = false;
  for (std::size_t i = 0; i < s.size(); ++i) {
    const char c = s[i];
    if (in_str) {
      if (c == '\\') ++i;
      else if (c == '"') in_str = false;
    } else if (c == '"') {
      in_str = true;
    } else if (c == '{' || c == '[') {
      ++depth;
    } else if (c == '}' || c == ']') {
      if (--depth < 0) return false;
    }
  }
  return depth == 0 && !in_str;
}

TEST(KvDeterminismTest, TraceOnlyAppendsItsHashToTheDigest) {
  KvParams p = tiny_kv(2);
  const auto plain = run_kv(p);
  p.trace = true;
  const auto traced = run_kv(p);
  ASSERT_TRUE(traced.complete);
  EXPECT_TRUE(plain.trace_json.empty());
  const std::string suffix = " trace_fnv=";
  ASSERT_GT(traced.digest.size(), plain.digest.size() + suffix.size());
  EXPECT_EQ(traced.digest.substr(0, plain.digest.size() + suffix.size()),
            plain.digest + suffix)
      << "tracing must not move any modeled output";
}

TEST(KvDeterminismTest, TraceIsWellFormedChromeJson) {
  KvParams p = tiny_kv(2);
  p.trace = true;
  const auto r = run_kv(p);
  ASSERT_TRUE(r.complete);
  EXPECT_EQ(r.trace_json.rfind("{\"traceEvents\":[\n{", 0), 0u)
      << "traceEvents must be present and non-empty";
  EXPECT_TRUE(json_balanced(r.trace_json));
  EXPECT_NE(r.trace_json.find("\"ph\":\"X\""), std::string::npos);
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
