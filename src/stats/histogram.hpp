// Fixed-footprint log-linear latency histogram (HdrHistogram-shaped).
//
// Layout: values below 16 land in unit-width buckets (slots [0, 16)); each
// later power-of-two range [2^m, 2^(m+1)) for m in [4, 42] is split into 16
// linear sub-buckets of width 2^(m-4), giving <= 1/16 (~6.25%) relative
// bucket error everywhere. Values at or above 2^43 ns (~2.4 simulated
// hours) clamp into the top bucket; the true maximum is still tracked
// exactly in max(). Total: 640 uint64 slots, ~5 KB per instance,
// allocation-free for its whole life.
//
// record() is a handful of ALU ops (bit_width, shift, add) plus one array
// increment — cheap enough to stay enabled on every hot path.
//
// Determinism + mergeability: bucket boundaries are exact integer
// functions of the value, and merge() is an element-wise sum (counts and
// the wrapping uint64 value-sum are associative and commutative), so
// per-shard instances combine into the same result regardless of merge
// order — the pre-work the ROADMAP's PDES-sharding item needs.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>

namespace e2e::stats {

class Histogram {
 public:
  /// 16 linear sub-buckets per power-of-two range.
  static constexpr int kSubBucketBits = 4;
  static constexpr std::uint64_t kSubBuckets = 1ull << kSubBucketBits;
  /// Largest exactly-bucketed value; everything above clamps here.
  static constexpr std::uint64_t kMaxTrackable = (1ull << 43) - 1;
  /// Unit-width slots [0,16) + 39 ranges (m = 4..42) of 16 slots each.
  static constexpr std::size_t kSlots = 640;

  /// Slot index for value `v` (clamped to kMaxTrackable). Exact and
  /// deterministic: no floating point anywhere.
  [[nodiscard]] static constexpr std::size_t index_of(std::uint64_t v) noexcept {
    if (v < kSubBuckets) return static_cast<std::size_t>(v);
    v = std::min(v, kMaxTrackable);
    const int m = 63 - std::countl_zero(v);  // v in [2^m, 2^(m+1))
    const int shift = m - kSubBucketBits;
    return (static_cast<std::size_t>(m - kSubBucketBits + 1)
            << kSubBucketBits) +
           static_cast<std::size_t>((v >> shift) - kSubBuckets);
  }

  /// Smallest value mapping to slot `i`. bucket_lower(index_of(v)) <= v
  /// for all trackable v, with equality exactly at bucket boundaries
  /// (powers of two land on their own boundary: slot 2^k's lower bound is
  /// 2^k for all k <= 42).
  [[nodiscard]] static constexpr std::uint64_t bucket_lower(
      std::size_t i) noexcept {
    if (i < kSubBuckets) return i;
    const std::size_t range = i >> kSubBucketBits;  // 1-based range number
    const std::uint64_t sub = i & (kSubBuckets - 1);
    return (kSubBuckets + sub) << (range - 1);
  }

  /// One past the largest value mapping to slot `i`.
  [[nodiscard]] static constexpr std::uint64_t bucket_upper(
      std::size_t i) noexcept {
    return i + 1 < kSlots ? bucket_lower(i + 1) : kMaxTrackable + 1;
  }

  /// Records one value. Counts are wrapping uint64 per bucket — wide
  /// enough that a hot bucket never wraps in practice (the Mops/s RPC tier
  /// overflowed the former uint32 counters in long runs, corrupting
  /// quantiles) — and the value sum wraps mod 2^64; both choices keep
  /// merge() associative.
  void record(std::uint64_t v) noexcept {
    ++counts_[index_of(v)];
    ++count_;
    sum_ += v;  // wrapping
    min_ = std::min(min_, v);
    max_ = std::max(max_, v);
  }

  /// Bulk add: records `n` copies of `v` in one call. Bit-identical to n
  /// single record(v) calls — the bucket count, total count and value sum
  /// are all wrapping adds, so multiplying the per-record delta by n lands
  /// on exactly the same congruence class, and min/max are idempotent.
  /// This is the closed-form histogram fill the fast-forward spans use.
  void record(std::uint64_t v, std::uint64_t n) noexcept {
    if (n == 0) return;
    counts_[index_of(v)] += n;  // wrapping
    count_ += n;
    sum_ += v * n;  // wrapping
    min_ = std::min(min_, v);
    max_ = std::max(max_, v);
  }

  /// The fast-forward view (sim::PeriodMarks): bucket counts, count and
  /// sum are wrapping words, so k copies of a period's delta land on the
  /// same congruence class as k recorded periods (the bulk-record
  /// argument). The extrema are pins: a period that moved one is not
  /// steady state.
  template <typename Word, typename Pin>
  void ff_fields(Word&& word, Pin&& pin) {
    for (std::uint64_t& c : counts_) word(c);
    word(count_);
    word(sum_);
    pin(min_);
    pin(max_);
  }

  /// Element-wise combine. Associative and commutative: every field is a
  /// wrapping sum, a min, or a max.
  void merge(const Histogram& o) noexcept {
    for (std::size_t i = 0; i < kSlots; ++i) counts_[i] += o.counts_[i];
    count_ += o.count_;
    sum_ += o.sum_;
    min_ = std::min(min_, o.min_);
    max_ = std::max(max_, o.max_);
  }

  [[nodiscard]] std::uint64_t count() const noexcept { return count_; }
  /// 0 when empty (min of an empty histogram is reported as 0, not 2^64-1).
  [[nodiscard]] std::uint64_t min() const noexcept {
    return count_ ? min_ : 0;
  }
  [[nodiscard]] std::uint64_t max() const noexcept { return max_; }
  /// Sum of recorded values (wrapping).
  [[nodiscard]] std::uint64_t sum() const noexcept { return sum_; }
  /// Mean of recorded values (sum wraps past 2^64 total — irrelevant for
  /// nanosecond latencies at simulated scales). 0 when empty.
  [[nodiscard]] double mean() const noexcept {
    return count_ ? static_cast<double>(sum_) / static_cast<double>(count_)
                  : 0.0;
  }
  [[nodiscard]] std::uint64_t bucket_count(std::size_t i) const noexcept {
    return counts_[i];
  }

  /// Value at quantile `q` in [0,1]: the recorded rank ceil(q*count) read
  /// off the bucket cumulative counts. Returns the bucket's inclusive
  /// upper bound clamped into [min(), max()], so exact single-valued
  /// distributions report exactly that value. 0 when empty. Integer rank
  /// arithmetic keeps the result deterministic across platforms.
  [[nodiscard]] std::uint64_t value_at_quantile(double q) const noexcept {
    if (count_ == 0) return 0;
    if (q <= 0.0) return min();
    // Half-up rounding (the HdrHistogram convention) sidesteps the
    // representation error of q*count sitting a ULP either side of an
    // integer; IEEE doubles make the same choice on every platform.
    auto rank = static_cast<std::uint64_t>(
        static_cast<double>(count_) * std::min(q, 1.0) + 0.5);
    rank = std::clamp<std::uint64_t>(rank, 1, count_);
    std::uint64_t cum = 0;
    for (std::size_t i = 0; i < kSlots; ++i) {
      cum += counts_[i];
      if (cum >= rank)
        return std::clamp(bucket_upper(i) - 1, min_, max_);
    }
    return max_;  // unreachable when counters are consistent
  }

  [[nodiscard]] std::uint64_t p50() const noexcept {
    return value_at_quantile(0.50);
  }
  [[nodiscard]] std::uint64_t p90() const noexcept {
    return value_at_quantile(0.90);
  }
  [[nodiscard]] std::uint64_t p99() const noexcept {
    return value_at_quantile(0.99);
  }
  [[nodiscard]] std::uint64_t p999() const noexcept {
    return value_at_quantile(0.999);
  }

 private:
  std::array<std::uint64_t, kSlots> counts_{};
  std::uint64_t count_ = 0;
  std::uint64_t sum_ = 0;  // wrapping
  std::uint64_t min_ = ~0ull;
  std::uint64_t max_ = 0;
};

}  // namespace e2e::stats
