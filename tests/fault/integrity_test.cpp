// fault::rftp_range_tag against its specification, the XOR of
// fault::rftp_block_tag over every index of the range. The range form
// compiles the index's high bytes once per 256-aligned chunk and the block
// size once per call, so the seeded cases straddle every byte-carry
// boundary, run up to the top of the index space, and use sizes whose zero
// bytes sit in every position.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <random>
#include <vector>

#include "fault/integrity.hpp"

namespace e2e::fault {
namespace {

constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();

std::uint64_t per_block(std::uint64_t lo, std::uint64_t hi,
                        std::uint64_t bytes) {
  std::uint64_t t = 0;
  for (std::uint64_t idx = lo; idx < hi; ++idx)
    t ^= rftp_block_tag(idx, bytes);
  return t;
}

// 0, 1, 4 MiB, an odd size, all ones, and 0x0101010101010101 with one byte
// cleared in each position.
std::vector<std::uint64_t> sizes() {
  std::vector<std::uint64_t> v{0, 1, 4ull << 20, 1234567, ~0ull};
  for (int i = 0; i < 8; ++i)
    v.push_back(0x0101010101010101ULL & ~(0xFFULL << (8 * i)));
  return v;
}

static_assert(rftp_range_tag(250, 270, 4ull << 20) ==
              (rftp_block_tag(250, 4ull << 20) ^
               rftp_range_tag(251, 270, 4ull << 20)));

TEST(RftpRangeTag, MatchesPerBlockAcrossAlignedBoundaries) {
  std::mt19937_64 rng(0x7A6B);
  for (const int shift : {8, 16, 24, 32, 40, 48, 56}) {
    for (const std::uint64_t bytes : sizes()) {
      for (int i = 0; i < 4; ++i) {
        // A random multiple of 2^shift, and a range that straddles it.
        const std::uint64_t edge = (rng() | 1) << shift;
        const std::uint64_t lo = edge - 1 - rng() % 600;
        const std::uint64_t hi = edge + rng() % 600;
        EXPECT_EQ(rftp_range_tag(lo, hi, bytes), per_block(lo, hi, bytes))
            << "lo " << lo << " hi " << hi << " bytes " << bytes;
      }
    }
  }
}

TEST(RftpRangeTag, MatchesPerBlockFromZeroAndOverLongRuns) {
  for (const std::uint64_t bytes : sizes()) {
    EXPECT_EQ(rftp_range_tag(0, 1, bytes), rftp_block_tag(0, bytes));
    EXPECT_EQ(rftp_range_tag(0, 70000, bytes), per_block(0, 70000, bytes));
  }
}

TEST(RftpRangeTag, MatchesPerBlockAtTheTopOfTheIndexSpace) {
  std::mt19937_64 rng(0xF00D);
  for (const std::uint64_t bytes : sizes()) {
    EXPECT_EQ(rftp_range_tag(kMax - 1000, kMax, bytes),
              per_block(kMax - 1000, kMax, bytes));
    for (int i = 0; i < 8; ++i) {
      const std::uint64_t lo = kMax - 1 - rng() % 1000;
      const std::uint64_t hi = lo + 1 + rng() % (kMax - lo);
      EXPECT_EQ(rftp_range_tag(lo, hi, bytes), per_block(lo, hi, bytes))
          << "lo " << lo << " hi " << hi << " bytes " << bytes;
    }
  }
}

TEST(RftpRangeTag, EmptyRangesAreZero) {
  for (const std::uint64_t bytes : sizes()) {
    EXPECT_EQ(rftp_range_tag(0, 0, bytes), 0u);
    EXPECT_EQ(rftp_range_tag(12345, 12345, bytes), 0u);
    EXPECT_EQ(rftp_range_tag(kMax, kMax, bytes), 0u);
    EXPECT_EQ(rftp_range_tag(9, 3, bytes), 0u);
  }
}

TEST(RftpRangeTag, SplitsCompose) {
  std::mt19937_64 rng(0x5EED);
  for (const std::uint64_t bytes : sizes()) {
    for (int i = 0; i < 16; ++i) {
      // Half anywhere, half just below the top of the index space.
      const std::uint64_t a =
          i % 2 == 0 ? rng() % kMax : kMax - 1 - rng() % 5000;
      const std::uint64_t c =
          a + rng() % (std::min<std::uint64_t>(kMax - a, 1ull << 12) + 1);
      const std::uint64_t b = a + rng() % (c - a + 1);
      EXPECT_EQ(rftp_range_tag(a, b, bytes) ^ rftp_range_tag(b, c, bytes),
                rftp_range_tag(a, c, bytes))
          << "a " << a << " b " << b << " c " << c << " bytes " << bytes;
    }
  }
}

}  // namespace
}  // namespace e2e::fault
