#include "stats/histogram.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "sim/period_marks.hpp"

namespace e2e::stats {
namespace {

// Field-by-field equality (Histogram has no operator==; tests compare the
// full observable state, buckets included).
void expect_same(const Histogram& a, const Histogram& b) {
  EXPECT_EQ(a.count(), b.count());
  EXPECT_EQ(a.min(), b.min());
  EXPECT_EQ(a.max(), b.max());
  EXPECT_DOUBLE_EQ(a.mean(), b.mean());
  EXPECT_EQ(a.sum(), b.sum());
  for (std::size_t i = 0; i < Histogram::kSlots; ++i)
    ASSERT_EQ(a.bucket_count(i), b.bucket_count(i)) << "slot " << i;
  for (double q : {0.0, 0.5, 0.9, 0.99, 0.999, 1.0})
    EXPECT_EQ(a.value_at_quantile(q), b.value_at_quantile(q)) << "q=" << q;
}

// The fast-forward view of `h` (Histogram::ff_fields) through `m`.
void mark(sim::PeriodMarks& m, Histogram& h) {
  m.mark([&h](auto&& word, auto&& pin) { h.ff_fields(word, pin); });
}
void advance(const sim::PeriodMarks& m, Histogram& h, std::uint64_t k) {
  m.advance(k, [&h](auto&& word, auto&& pin) { h.ff_fields(word, pin); });
}

// Deterministic value stream (splitmix64): the goldens must not depend on
// library RNG implementations.
std::uint64_t mix(std::uint64_t& s) {
  s += 0x9E3779B97F4A7C15ull;
  std::uint64_t z = s;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

TEST(Histogram, PowersOfTwoLandOnTheirOwnBucketBoundary) {
  // The headline exactness contract: every power of two up to the
  // trackable limit is itself a bucket lower bound, so percentiles never
  // smear a 2^k spike into the neighbouring bucket.
  for (int k = 0; k <= 42; ++k) {
    const std::uint64_t v = 1ull << k;
    EXPECT_EQ(Histogram::bucket_lower(Histogram::index_of(v)), v) << "k=" << k;
  }
}

TEST(Histogram, BucketBoundsBracketEveryValue) {
  std::uint64_t s = 42;
  std::vector<std::uint64_t> probe = {0, 1, 15, 16, 17, 31, 32, 1000,
                                      Histogram::kMaxTrackable};
  for (int i = 0; i < 10000; ++i)
    probe.push_back(mix(s) & Histogram::kMaxTrackable);
  for (const std::uint64_t v : probe) {
    const std::size_t idx = Histogram::index_of(v);
    ASSERT_LT(idx, Histogram::kSlots);
    EXPECT_LE(Histogram::bucket_lower(idx), v);
    EXPECT_LT(v, Histogram::bucket_upper(idx));
    // Log-linear contract: <= 1/16 relative bucket width everywhere.
    if (v >= Histogram::kSubBuckets) {
      EXPECT_LE(Histogram::bucket_upper(idx) - Histogram::bucket_lower(idx),
                Histogram::bucket_lower(idx) / 16);
    }
  }
}

TEST(Histogram, IndexIsMonotoneAcrossBoundaries) {
  for (std::size_t i = 0; i + 1 < Histogram::kSlots; ++i) {
    EXPECT_LT(Histogram::bucket_lower(i), Histogram::bucket_lower(i + 1));
    EXPECT_EQ(Histogram::index_of(Histogram::bucket_lower(i)), i);
    EXPECT_EQ(Histogram::index_of(Histogram::bucket_upper(i) - 1), i);
  }
}

TEST(Histogram, ValuesAboveTrackableClampButMaxStaysExact) {
  Histogram h;
  h.record(Histogram::kMaxTrackable + 12345);
  EXPECT_EQ(Histogram::index_of(Histogram::kMaxTrackable + 12345),
            Histogram::kSlots - 1);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(h.max(), Histogram::kMaxTrackable + 12345);
}

TEST(Histogram, EmptyHistogramReportsZeros) {
  const Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 0u);
  EXPECT_DOUBLE_EQ(h.mean(), 0.0);
  EXPECT_EQ(h.p50(), 0u);
  EXPECT_EQ(h.p999(), 0u);
}

TEST(Histogram, SingleValueDistributionReportsThatValueAtEveryQuantile) {
  Histogram h;
  for (int i = 0; i < 100; ++i) h.record(4096);
  for (double q : {0.0, 0.5, 0.9, 0.99, 0.999, 1.0})
    EXPECT_EQ(h.value_at_quantile(q), 4096u) << "q=" << q;
}

TEST(Histogram, QuantilesOfSmallExactValuesAreExact) {
  // Values below kSubBuckets sit in unit-width buckets, so quantiles on
  // them are exact, not approximate.
  Histogram h;
  for (std::uint64_t v = 1; v <= 10; ++v) h.record(v);
  EXPECT_EQ(h.p50(), 5u);
  EXPECT_EQ(h.value_at_quantile(0.1), 1u);
  EXPECT_EQ(h.value_at_quantile(1.0), 10u);
}

TEST(Histogram, MergeIsCommutative) {
  Histogram a, b;
  std::uint64_t s = 7;
  for (int i = 0; i < 5000; ++i) a.record(mix(s) % 1000000);
  for (int i = 0; i < 3000; ++i) b.record(mix(s) % 50);
  Histogram ab = a;
  ab.merge(b);
  Histogram ba = b;
  ba.merge(a);
  expect_same(ab, ba);
}

TEST(Histogram, MergeIsAssociative) {
  Histogram a, b, c;
  std::uint64_t s = 99;
  for (int i = 0; i < 2000; ++i) a.record(mix(s) % (1ull << 20));
  for (int i = 0; i < 2000; ++i) b.record(mix(s) % (1ull << 30));
  for (int i = 0; i < 2000; ++i) c.record(mix(s) % 16);
  Histogram left = a;  // (a + b) + c
  left.merge(b);
  left.merge(c);
  Histogram bc = b;  // a + (b + c)
  bc.merge(c);
  Histogram right = a;
  right.merge(bc);
  expect_same(left, right);
}

TEST(Histogram, ShardedMergeEqualsSingleInstanceGolden) {
  // The PDES-sharding contract: recording a stream into N shards and
  // merging must equal recording the whole stream into one instance.
  Histogram whole;
  Histogram shards[4];
  std::uint64_t s = 1234;
  for (int i = 0; i < 10000; ++i) {
    const std::uint64_t v = mix(s) & Histogram::kMaxTrackable;
    whole.record(v);
    shards[i % 4].record(v);
  }
  Histogram merged;
  for (const Histogram& sh : shards) merged.merge(sh);
  expect_same(whole, merged);
}

TEST(Histogram, MergeWithEmptyIsIdentity) {
  Histogram a;
  std::uint64_t s = 5;
  for (int i = 0; i < 100; ++i) a.record(mix(s) % 100000);
  Histogram b = a;
  b.merge(Histogram{});
  expect_same(a, b);
}

// --- Bulk add (the fast-forward closed-form fill) ---

TEST(Histogram, BulkAddIsBitIdenticalToSingleAdds) {
  // The fast-forward exactness contract: record(v, n) must land on the
  // exact same state as n record(v) calls — buckets, count, wrapping sum,
  // extrema. Sweep values across bucket regimes (linear slots, every
  // log-linear scale, the clamp bucket) and counts across 1..large.
  const std::uint64_t values[] = {0,    1,      17,     255,   256,
                                  257,  4096,   99999,  1u << 20,
                                  (1ull << 40) + 12345, Histogram::kMaxTrackable,
                                  ~0ull /* clamps */};
  const std::uint64_t counts[] = {1, 2, 3, 1000, 65537};
  for (const std::uint64_t v : values) {
    for (const std::uint64_t n : counts) {
      Histogram bulk, singles;
      bulk.record(v, n);
      for (std::uint64_t i = 0; i < n; ++i) singles.record(v);
      SCOPED_TRACE(::testing::Message() << "v=" << v << " n=" << n);
      expect_same(bulk, singles);
    }
  }
}

TEST(Histogram, BulkAddOnPopulatedHistogramMatchesSingles) {
  // Bulk adds interleave with ordinary recording in fast-forwarded runs;
  // the equivalence must hold from any starting state, not just empty.
  Histogram bulk, singles;
  std::uint64_t s = 42;
  for (int i = 0; i < 1000; ++i) {
    const std::uint64_t v = mix(s) % (1ull << 24);
    bulk.record(v);
    singles.record(v);
  }
  bulk.record(777777, 5000);
  for (int i = 0; i < 5000; ++i) singles.record(777777);
  expect_same(bulk, singles);
}

TEST(Histogram, BulkAddZeroIsIdentity) {
  Histogram h;
  h.record(123);
  Histogram before = h;
  h.record(456, 0);  // n = 0: no count, and 456 must not touch min/max
  expect_same(h, before);
}

TEST(Histogram, MergeAssociativityHoldsWithBulkFilledHistograms) {
  // Sharded-merge contract extended to bulk fills: a bulk-filled shard
  // must merge exactly like the equivalent singles-filled shard, in any
  // association order.
  Histogram a, b_bulk, b_singles, c;
  std::uint64_t s = 31337;
  for (int i = 0; i < 2000; ++i) a.record(mix(s) % (1ull << 16));
  b_bulk.record(1024, 9999);
  b_bulk.record(3, 77);
  for (int i = 0; i < 9999; ++i) b_singles.record(1024);
  for (int i = 0; i < 77; ++i) b_singles.record(3);
  for (int i = 0; i < 2000; ++i) c.record(mix(s) % (1ull << 36));

  Histogram left = a;  // (a + b_bulk) + c
  left.merge(b_bulk);
  left.merge(c);
  Histogram bc = b_singles;  // a + (b_singles + c)
  bc.merge(c);
  Histogram right = a;
  right.merge(bc);
  expect_same(left, right);
}

TEST(Histogram, DeltaTimesKEqualsKIntervals) {
  // The span-collapse identity end to end: mark, run one period, mark, run
  // it again, mark; advancing k more periods must equal running them.
  Histogram h;
  std::uint64_t s = 9;
  h.record(0);       // pin the extrema so the period values fall strictly
  h.record(100000);  // inside [min, max] and the delta is replayable
  for (int i = 0; i < 500; ++i) h.record(mix(s) % 100000);  // warmup state
  const std::uint64_t period[] = {12, 999, 4321, 70000};  // within warmup range
  sim::PeriodMarks m;
  mark(m, h);
  for (int w = 0; w < 2; ++w) {
    for (const std::uint64_t v : period) h.record(v);
    mark(m, h);
  }
  ASSERT_TRUE(m.repeats());

  constexpr std::uint64_t k = 1000;
  Histogram collapsed = h;
  advance(m, collapsed, k);
  Histogram replayed = h;
  for (std::uint64_t i = 0; i < k; ++i)
    for (const std::uint64_t v : period) replayed.record(v);
  expect_same(collapsed, replayed);
}

TEST(Histogram, HotBucketPast2To32KeepsQuantilesExact) {
  // Regression: bucket counters were uint32, so a hot bucket wrapped past
  // 2^32 samples under long Mops/s RPC runs — the wrapped bucket made
  // cumulative ranks undershoot and quantiles collapse toward the tail.
  // Counters are uint64 now; a bucket holding > 2^32 entries must still
  // report exact counts and sane quantiles.
  constexpr std::uint64_t kHot = (1ull << 32) + 12345;
  Histogram h;
  h.record(4096, kHot);  // bulk fill: one bucket, past the uint32 limit
  h.record(1ull << 30, 7);
  EXPECT_EQ(h.bucket_count(Histogram::index_of(4096)), kHot);
  EXPECT_EQ(h.count(), kHot + 7);
  // Quantiles report the bucket's inclusive upper bound (4096 lands in
  // [4096, 4352)); with wrapped uint32 counters they collapsed to the
  // 2^30 tail instead.
  EXPECT_EQ(h.p50(), 4351u);
  EXPECT_EQ(h.p999(), 4351u);  // the tail bucket holds only 7 of ~4.3e9
  EXPECT_EQ(h.value_at_quantile(1.0), 1ull << 30);
}

TEST(Histogram, MergeAndDeltaStayExactAcross2To32) {
  // The overflow fix must preserve the algebra: shard merges and delta*k
  // folds that cross the former uint32 boundary stay exact in uint64.
  constexpr std::uint64_t kHalf = 1ull << 31;
  Histogram a, b;
  a.record(100, kHalf + 99);
  b.record(100, kHalf + 901);
  Histogram merged = a;
  merged.merge(b);
  EXPECT_EQ(merged.bucket_count(Histogram::index_of(100)),
            (1ull << 32) + 1000);

  // delta x k with a period crossing 2^32 in the scaled result.
  Histogram base;
  base.record(0);
  base.record(1 << 20);
  sim::PeriodMarks m;
  mark(m, base);
  for (int w = 0; w < 2; ++w) {
    base.record(500, 3);
    mark(m, base);
  }
  ASSERT_TRUE(m.repeats());
  Histogram folded = base;
  constexpr std::uint64_t k = (1ull << 32) / 3 + 17;
  advance(m, folded, k);
  EXPECT_EQ(folded.bucket_count(Histogram::index_of(500)), 3 * (k + 2));
  EXPECT_EQ(folded.count(), 3 * (k + 2) + 2);
  EXPECT_EQ(folded.sum(), 500 * 3 * (k + 2) + (1 << 20));
  EXPECT_EQ(folded.p50(), 511u);  // upper bound of 500's bucket [496, 512)
}

TEST(Histogram, DeltaRefusesMovedExtrema) {
  // A window in which min or max moved is not steady state — the delta is
  // not replayable (extrema are idempotent, not additive) and must be
  // rejected rather than silently produce a wrong closed form. Each case
  // repeats its bucket, count and sum deltas exactly.
  Histogram h;
  h.record(100);
  sim::PeriodMarks m;
  mark(m, h);
  h.record(5);  // new min inside the first window
  mark(m, h);
  h.record(5);
  mark(m, h);
  EXPECT_FALSE(m.repeats());
  h.record(1ull << 50);  // new max inside the first window
  mark(m, h);
  h.record(1ull << 50);
  mark(m, h);
  EXPECT_FALSE(m.repeats());
  h.record(200);  // strictly inside [min, max]: replayable
  mark(m, h);
  h.record(200);
  mark(m, h);
  EXPECT_TRUE(m.repeats());
}

}  // namespace
}  // namespace e2e::stats
