// rftp::matching_periods, the fast-forward's closed-form span check,
// against a claim-by-claim replay of the same pattern through
// rftp::decide_claim.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <vector>

#include "rftp/claim_policy.hpp"
#include "rftp/fast_forward.hpp"
#include "sim/rng.hpp"

namespace e2e::rftp {
namespace {

/// Periods the replay completes: it re-decides every claim over the live
/// sizes and stops at the first verdict that differs from the pattern or
/// the first pop that takes the guarded block.
std::uint64_t replay(const std::vector<std::uint64_t>& sizes,
                     const std::vector<PatternClaim>& pattern,
                     std::uint64_t k, const std::optional<GuardBlock>& guard) {
  const std::size_t nq = sizes.size();
  std::vector<std::int64_t> s(sizes.begin(), sizes.end());
  std::vector<std::uint64_t> popped_front(nq, 0), popped_back(nq, 0);
  const auto size = [&s](std::size_t q) { return s[q]; };
  for (std::uint64_t c = 1; c <= k; ++c) {
    for (const PatternClaim& pc : pattern) {
      const auto d =
          decide_claim(nq, static_cast<std::size_t>(pc.node), size);
      if (d != pc.d) return c - 1;
      const std::size_t q = d->queue;
      if (guard && guard->queue == q &&
          (d->from_back ? popped_back[q] == sizes[q] - 1 - guard->pos
                        : popped_front[q] == guard->pos))
        return c - 1;
      --s[q];
      ++(d->from_back ? popped_back : popped_front)[q];
    }
  }
  return k;
}

/// A random queue size: empty, small (near the steal threshold) or large.
std::uint64_t draw_size(sim::Rng& rng) {
  switch (rng.uniform_u64(0, 3)) {
    case 0:
      return 0;
    case 1:
      return rng.uniform_u64(1, 12);
    case 2:
      return rng.uniform_u64(13, 2000);
    default:
      return rng.uniform_u64(100'000, 4'000'000);
  }
}

TEST(MatchingPeriods, MatchesPerClaimReplay) {
  // How often each verdict kind appears in a pattern that holds for at
  // least one period, and how spans end.
  std::uint64_t kinds[4] = {};
  std::uint64_t truncated = 0, full = 0, guarded = 0;
  for (std::uint64_t seed = 1; seed <= 3000; ++seed) {
    SCOPED_TRACE(::testing::Message() << "seed=" << seed);
    sim::Rng rng(seed);
    // 2-4 queues: one per NUMA node, then the shared queue.
    const std::size_t nq = rng.uniform_u64(2, 4);
    std::vector<std::uint64_t> start(nq);
    for (std::uint64_t& v : start) v = draw_size(rng);
    if (seed % 5 == 0) {
      // The endgame: the shared queue empty and every node's backlog
      // under the steal threshold, where fallback claims begin.
      for (std::uint64_t& v : start) v = rng.uniform_u64(0, 12);
      start.back() = 0;
    }
    // The pattern is one period of the real policy from `start`, as the
    // detector records it; the span begins where that period ended.
    const std::size_t period = rng.uniform_u64(1, 8);
    std::vector<PatternClaim> pattern;
    std::vector<std::int64_t> s(start.begin(), start.end());
    for (std::size_t j = 0; j < period; ++j) {
      const auto node =
          static_cast<numa::NodeId>(rng.uniform_u64(0, nq - 2));
      const auto d = decide_claim(nq, static_cast<std::size_t>(node),
                                  [&s](std::size_t q) { return s[q]; });
      if (!d) break;
      pattern.push_back(PatternClaim{node, *d});
      --s[d->queue];
    }
    if (pattern.empty()) continue;
    if (rng.uniform_u64(0, 9) == 0) {  // a verdict the policy never gives
      PatternClaim& pc = pattern[rng.uniform_u64(0, pattern.size() - 1)];
      pc.d.from_back = !pc.d.from_back;
    }
    std::vector<std::uint64_t> sizes(s.begin(), s.end());
    const std::uint64_t k =
        seed % 50 == 0 ? 1'000'000 : rng.uniform_u64(1, 3000);
    // A partial final block at the front, in the middle or at the back of
    // a non-empty queue, or none.
    std::optional<GuardBlock> guard;
    const std::size_t gq = rng.uniform_u64(0, nq - 1);
    if (sizes[gq] > 0) {
      const std::uint64_t n = sizes[gq];
      const std::uint64_t near_end = std::min<std::uint64_t>(
          rng.uniform_u64(0, 3), n - 1);
      switch (rng.uniform_u64(0, 3)) {
        case 0:
          guard = GuardBlock{gq, near_end};
          break;
        case 1:
          guard = GuardBlock{gq, rng.uniform_u64(0, n - 1)};
          break;
        case 2:
          guard = GuardBlock{gq, n - 1 - near_end};
          break;
        default:
          break;
      }
    }
    const std::uint64_t want = replay(sizes, pattern, k, guard);
    ASSERT_EQ(matching_periods(sizes, pattern, k, guard), want)
        << "queues=" << nq << " period=" << pattern.size() << " k=" << k;
    if (want == 0) continue;
    for (const PatternClaim& pc : pattern)
      ++kinds[static_cast<std::size_t>(pc.d.kind)];
    if (want == k)
      ++full;
    else if (guard && want + 1 < k &&
             replay(sizes, pattern, k, std::nullopt) > want)
      ++guarded;
    else
      ++truncated;
  }
  // Not vacuous: every verdict kind holds in some span, and spans run to
  // k, end on a deviating verdict, and end on the guarded block.
  for (const std::uint64_t n : kinds) EXPECT_GT(n, 0u);
  EXPECT_GT(full, 0u);
  EXPECT_GT(truncated, 0u);
  EXPECT_GT(guarded, 0u);
}

TEST(MatchingPeriods, GuardStopsBeforeThePeriodThatReachesIt) {
  // Two local claims per period from the front of queue 0.
  const std::vector<PatternClaim> pattern = {
      {0, {0, ClaimDecision::Kind::kLocal, false}},
      {0, {0, ClaimDecision::Kind::kLocal, false}}};
  const std::vector<std::uint64_t> sizes = {100, 0};
  // Two front pops per period: position 7 is popped in period 4.
  EXPECT_EQ(matching_periods(sizes, pattern, 1000, GuardBlock{0, 7}), 3u);
  EXPECT_EQ(matching_periods(sizes, pattern, 1000, GuardBlock{0, 0}), 0u);
  // No guard: queue 0 runs dry after 50 periods.
  EXPECT_EQ(matching_periods(sizes, pattern, 1000, std::nullopt), 50u);
  EXPECT_EQ(matching_periods(sizes, pattern, 20, std::nullopt), 20u);
}

}  // namespace
}  // namespace e2e::rftp
