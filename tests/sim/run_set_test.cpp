// RunSet against a per-index flag array: the run-length set must hold
// exactly the membership the plain array would after the same calls, and
// store it as the minimal ascending run list.
#include "sim/run_set.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <vector>

#include "sim/rng.hpp"

namespace e2e::sim {
namespace {

constexpr std::uint64_t kUniverse = 256;

/// Maximal runs of set flags in `ref`, ascending.
std::vector<RunSet::Run> runs_of(const std::vector<char>& ref) {
  std::vector<RunSet::Run> out;
  for (std::uint64_t i = 0; i < ref.size(); ++i) {
    if (ref[i] == 0) continue;
    if (!out.empty() && out.back().hi == i)
      ++out.back().hi;
    else
      out.push_back(RunSet::Run{i, i + 1});
  }
  return out;
}

void expect_same(const RunSet& rs, const std::vector<char>& ref) {
  const std::vector<RunSet::Run> want = runs_of(ref);
  const std::vector<RunSet::Run> got(rs.begin(), rs.end());
  ASSERT_EQ(got, want);
  ASSERT_EQ(rs.runs(), want.size());
  std::uint64_t n = 0;
  for (std::uint64_t i = 0; i < ref.size(); ++i) {
    n += ref[i] != 0 ? 1 : 0;
    ASSERT_EQ(rs.contains(i), ref[i] != 0) << "index " << i;
  }
  ASSERT_EQ(rs.size(), n);
  ASSERT_EQ(rs.empty(), n == 0);
}

/// Drives a RunSet and a flag array with one seeded op sequence. Inserted
/// values follow three shapes: the end of the back run (an in-order
/// drain), a value near the top (a straggler landing past a gap), and a
/// uniform draw (an out-of-order drain filling a gap).
void differential(std::uint64_t seed, int ops) {
  Rng rng(seed);
  RunSet rs;
  std::vector<char> ref(kUniverse, 0);
  for (int i = 0; i < ops; ++i) {
    SCOPED_TRACE(::testing::Message() << "seed=" << seed << " op=" << i);
    const std::uint64_t shape = rng.uniform_u64(0, 2);
    const std::uint64_t op = rng.uniform_u64(0, 9);  // inserts outweigh erases
    std::uint64_t v = rng.uniform_u64(0, kUniverse - 1);
    if (shape == 0 && !rs.empty())
      v = std::min(kUniverse - 1, std::prev(rs.end())->hi);
    else if (shape == 1)
      v = rng.uniform_u64(kUniverse - 16, kUniverse - 1);
    if (op < 6) {
      ASSERT_EQ(rs.insert(v), ref[v] == 0);
      ref[v] = 1;
    } else {
      ASSERT_EQ(rs.erase(v), ref[v] != 0);
      ref[v] = 0;
    }
    expect_same(rs, ref);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(RunSet, MatchesFlagArrayOnSeededOpSequences) {
  for (std::uint64_t seed = 1; seed <= 64; ++seed) {
    differential(seed, 1500);
    if (HasFatalFailure()) return;
  }
}

TEST(RunSet, DifferenceMatchesFlagArrays) {
  for (std::uint64_t seed = 1; seed <= 64; ++seed) {
    SCOPED_TRACE(::testing::Message() << "seed=" << seed);
    Rng rng(seed);
    RunSet a, b;
    std::vector<char> ra(kUniverse, 0), rb(kUniverse, 0);
    // Dense and sparse fills on both sides, so runs overlap, nest, abut
    // and miss each other.
    const std::uint64_t da = rng.uniform_u64(1, 9), db = rng.uniform_u64(1, 9);
    for (std::uint64_t i = 0; i < kUniverse; ++i) {
      if (rng.uniform_u64(0, 9) < da) {
        a.insert(i);
        ra[i] = 1;
      }
      if (rng.uniform_u64(0, 9) < db) {
        b.insert(i);
        rb[i] = 1;
      }
    }
    std::vector<char> want(kUniverse, 0);
    for (std::uint64_t i = 0; i < kUniverse; ++i)
      want[i] = ra[i] != 0 && rb[i] == 0 ? 1 : 0;
    std::vector<RunSet::Run> got;
    a.for_each_difference(b, [&](std::uint64_t lo, std::uint64_t hi) {
      got.push_back(RunSet::Run{lo, hi});
    });
    // Ascending, maximal runs: exactly the runs of the reference.
    EXPECT_EQ(got, runs_of(want));
  }
}

TEST(RunSet, DifferenceWithEmptyAndSelf) {
  RunSet a, empty;
  for (std::uint64_t v : {3, 4, 5, 9, 20, 21}) a.insert(v);
  std::vector<RunSet::Run> got;
  const auto collect = [&](std::uint64_t lo, std::uint64_t hi) {
    got.push_back(RunSet::Run{lo, hi});
  };
  a.for_each_difference(empty, collect);
  EXPECT_EQ(got, std::vector<RunSet::Run>(a.begin(), a.end()));
  got.clear();
  a.for_each_difference(a, collect);
  EXPECT_TRUE(got.empty());
  empty.for_each_difference(a, collect);
  EXPECT_TRUE(got.empty());
}

TEST(RunSet, InOrderInsertsAreOneRun) {
  // The size of a 64 TiB transfer in 4 MiB blocks.
  constexpr std::uint64_t kBlocks = 1u << 24;
  RunSet s;
  for (std::uint64_t i = 0; i < kBlocks; ++i) s.insert(i);
  EXPECT_EQ(s.size(), kBlocks);
  EXPECT_EQ(s.runs(), 1u);
  const RunSet copy = s;  // the fast-forward's ledger publication
  EXPECT_EQ(std::vector<RunSet::Run>(copy.begin(), copy.end()),
            std::vector<RunSet::Run>(s.begin(), s.end()));
}

TEST(RunSet, GapFillMergesNeighbours) {
  RunSet s;
  s.insert(1);
  s.insert(3);
  EXPECT_EQ(s.runs(), 2u);
  s.insert(2);  // joins [1,2) and [3,4)
  EXPECT_EQ(s.runs(), 1u);
  EXPECT_TRUE(s.erase(2));  // splits it again
  EXPECT_EQ(s.runs(), 2u);
  EXPECT_FALSE(s.erase(2));
  EXPECT_FALSE(s.insert(3));
  EXPECT_EQ(s.size(), 2u);
  s.clear();
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.runs(), 0u);
}

}  // namespace
}  // namespace e2e::sim
