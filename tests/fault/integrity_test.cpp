// fault::block_range_tag and fault::rftp_range_tag against their
// specifications, the XOR of one tag per block over every index of the
// range. Both range forms compile the index's high bytes once per
// 256-aligned chunk (and rftp_range_tag the block size once per call), so
// the seeded cases straddle every byte-carry boundary, run up to (and, for
// LBAs, past) the top of the index space, and use RFTP sizes whose zero
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

// One 512-byte SCSI block's tag: FNV-1a over the domain constant, then the
// LBA. block_range_tag folds the first word into a seed and walks chunks.
constexpr std::uint64_t block_tag(std::uint64_t lba) {
  return mix64(0x5C51B10CULL, lba);  // "scsi block"
}

// The LBA wraps past UINT64_MAX to 0, as an LBA + i loop does.
std::uint64_t per_lba(std::uint64_t lba, std::uint32_t blocks) {
  std::uint64_t t = 0;
  for (std::uint32_t i = 0; i < blocks; ++i) t ^= block_tag(lba + i);
  return t;
}

static_assert(block_range_tag(250, 20) ==
              (block_tag(250) ^ block_range_tag(251, 19)));

TEST(BlockRangeTag, MatchesPerBlockAcrossAlignedBoundaries) {
  std::mt19937_64 rng(0xB10C);
  for (const int shift : {8, 16, 24, 32, 40, 48, 56}) {
    for (int i = 0; i < 16; ++i) {
      // A random multiple of 2^shift, and a range that straddles it.
      const std::uint64_t edge = (rng() | 1) << shift;
      const std::uint64_t lba = edge - 1 - rng() % 600;
      const auto blocks = static_cast<std::uint32_t>(edge - lba + rng() % 600);
      EXPECT_EQ(block_range_tag(lba, blocks), per_lba(lba, blocks))
          << "lba " << lba << " blocks " << blocks;
    }
  }
}

TEST(BlockRangeTag, MatchesPerBlockFromZeroAndOverLongRuns) {
  EXPECT_EQ(block_range_tag(0, 1), block_tag(0));
  EXPECT_EQ(block_range_tag(0, 70000), per_lba(0, 70000));
  std::mt19937_64 rng(0x1BA);
  for (int i = 0; i < 4; ++i) {
    const std::uint64_t lba = rng() >> (16 * i);
    const auto blocks = static_cast<std::uint32_t>(70000 + rng() % 5000);
    EXPECT_EQ(block_range_tag(lba, blocks), per_lba(lba, blocks))
        << "lba " << lba << " blocks " << blocks;
  }
}

TEST(BlockRangeTag, MatchesPerBlockAtCommandSizes) {
  // 512 B, 4 KiB, 1 MiB and 4 MiB commands, aligned to their size on a
  // 128 GiB LUN, and at odd LBAs.
  std::mt19937_64 rng(0x5C51);
  for (const std::uint32_t blocks : {1u, 8u, 2048u, 8192u}) {
    for (int i = 0; i < 8; ++i) {
      const std::uint64_t slot = rng() % ((1ull << 28) / blocks);
      const std::uint64_t lba = i % 2 == 0 ? slot * blocks : slot * blocks + 3;
      EXPECT_EQ(block_range_tag(lba, blocks), per_lba(lba, blocks))
          << "lba " << lba << " blocks " << blocks;
    }
  }
}

TEST(BlockRangeTag, WrapsPastTheTopOfTheLbaSpace) {
  EXPECT_EQ(block_range_tag(kMax, 1), block_tag(kMax));
  EXPECT_EQ(block_range_tag(kMax, 2), block_tag(kMax) ^ block_tag(0));
  std::mt19937_64 rng(0x70F);
  for (int i = 0; i < 8; ++i) {
    const std::uint64_t lba = kMax - rng() % 1000;
    const auto blocks = static_cast<std::uint32_t>(1 + rng() % 3000);
    EXPECT_EQ(block_range_tag(lba, blocks), per_lba(lba, blocks))
        << "lba " << lba << " blocks " << blocks;
  }
}

TEST(BlockRangeTag, EmptyRangeIsZero) {
  for (const std::uint64_t lba : {0ull, 12345ull, 1ull << 40, ~0ull})
    EXPECT_EQ(block_range_tag(lba, 0), 0u);
}

TEST(BlockRangeTag, SplitsCompose) {
  std::mt19937_64 rng(0xC0DE);
  for (int i = 0; i < 32; ++i) {
    // Half anywhere, half just below the top of the LBA space so that
    // some runs wrap.
    const std::uint64_t l = i % 2 == 0 ? rng() : kMax - rng() % 5000;
    const auto m = static_cast<std::uint32_t>(rng() % 5000);
    const auto n = static_cast<std::uint32_t>(rng() % 5000);
    EXPECT_EQ(block_range_tag(l, m) ^ block_range_tag(l + m, n),
              block_range_tag(l, m + n))
        << "l " << l << " m " << m << " n " << n;
  }
}

}  // namespace
}  // namespace e2e::fault
