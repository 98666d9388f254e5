// kv-under-faults chaos leg: the small-message tier completes its closed
// loop under a seeded random fault plan (loss bursts plus QP kills, with a
// supervisor re-establishing the connection while client retry timers ride
// the outage), the QP ledgers audit clean, and the same seed reproduces a
// byte-identical digest. The seed comes from E2E_CHAOS_SEED; CI sweeps a
// matrix of seeds over everything labelled `chaos`.
#include <gtest/gtest.h>

#include <cstdlib>

#include "exp/kv_scenario.hpp"

namespace e2e::exp {
namespace {

std::uint64_t chaos_seed() {
  const char* s = std::getenv("E2E_CHAOS_SEED");
  if (s == nullptr || *s == '\0') return 1;
  return std::strtoull(s, nullptr, 10);
}

KvParams chaos_kv() {
  KvParams p;
  p.pairs = 2;
  p.shards = 2;
  p.keys = 2048;
  p.ops_per_pair = 1024;
  p.value_bytes = 1024;
  p.store_shards = 2;
  p.depth = 4;
  p.remote_every = 16;
  p.seed = chaos_seed();
  p.fault_seed = chaos_seed();
  p.audit = true;
  return p;
}

TEST(KvChaosTest, CompletesAndAuditsCleanUnderSeededFaults) {
  const auto r = run_kv(chaos_kv());
  EXPECT_TRUE(r.complete) << "seed " << chaos_seed();
  EXPECT_TRUE(r.audit_ok) << "seed " << chaos_seed() << ": "
                          << r.audit_violations << " violations";
  EXPECT_EQ(r.ops_done, 2u * 1024u);
  // Every op resolves: served normally, retried to completion across the
  // outage, or (rarely) failed out after the rpc retry budget — never hung.
  EXPECT_EQ(r.gets + r.puts, r.ops_done);
}

TEST(KvChaosTest, SameSeedSameFaultsSameDigest) {
  const auto a = run_kv(chaos_kv());
  const auto b = run_kv(chaos_kv());
  EXPECT_EQ(a.digest, b.digest);
  EXPECT_EQ(a.rpc_retries, b.rpc_retries);
  EXPECT_EQ(a.sim_events, b.sim_events);
}

}  // namespace
}  // namespace e2e::exp
