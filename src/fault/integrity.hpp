// Payload-identity checksums for end-to-end integrity verification.
//
// The simulation moves no real bytes, so integrity is modelled over payload
// *identity*: every logical unit of data (a 512-byte SCSI block, an RFTP
// block at a file offset) has a deterministic FNV-1a tag derived from its
// coordinates. Tags are XOR-composable — the tag of a range is the XOR of
// its units' tags — so chunked, reordered and multi-path transfers all
// compose to the same value, while a missing, duplicated or misdirected
// chunk perturbs it. Data paths carry tags alongside transfers
// (rdma::SendWr::content_tag, rftp::DataHeader::checksum) and sinks verify
// them against the analytically-known expected value.
//
// Tag math is on the per-command hot path (a 1 MiB WRITE tags 2048 blocks,
// at several protocol layers), so the FNV prefixes over domain-separation
// constants are folded into precomputed seeds — same values, half the
// rounds. block_range_tag_cached memoizes a command's range tag for the
// layers that recompute it, where its slot index lets it hit.
//
// RFTP tags are hashed per run as well as per block: the end-of-run
// integrity pass, the fast-forward collapse and the auditor's analytic
// digest each XOR the tags of whole index runs (a TB-scale transfer has
// millions of blocks), so rftp_range_tag computes that XOR bit for bit
// with the index's fixed high bytes and the constant block size compiled
// once into a few folded FNV steps.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>

namespace e2e::fault {

inline constexpr std::uint64_t kFnvOffset = 1469598103934665603ULL;
inline constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

/// Continues an FNV-1a hash over the 8 little-endian bytes of `x`.
[[nodiscard]] constexpr std::uint64_t fnv64_seeded(std::uint64_t h,
                                                   std::uint64_t x) noexcept {
  for (int i = 0; i < 8; ++i) {
    h ^= (x >> (8 * i)) & 0xFF;
    h *= kFnvPrime;
  }
  return h;
}

/// FNV-1a over the 8 little-endian bytes of `x`.
[[nodiscard]] constexpr std::uint64_t fnv64(std::uint64_t x) noexcept {
  return fnv64_seeded(kFnvOffset, x);
}

/// FNV-1a over the concatenation of two words (order-sensitive mix).
[[nodiscard]] constexpr std::uint64_t mix64(std::uint64_t a,
                                            std::uint64_t b) noexcept {
  return fnv64_seeded(fnv64_seeded(kFnvOffset, a), b);
}

namespace detail {
/// mix64's first word is the fixed domain constant for SCSI block tags;
/// its 8 rounds are folded into this seed at compile time.
inline constexpr std::uint64_t kBlockTagSeed =
    fnv64_seeded(kFnvOffset, 0x5C51B10CULL);  // "scsi block"
}  // namespace detail

/// Tag of one 512-byte logical block at `lba`. Domain-separated from raw
/// fnv64 so LBA tags never collide with offset-derived tags.
[[nodiscard]] constexpr std::uint64_t block_tag(std::uint64_t lba) noexcept {
  return fnv64_seeded(detail::kBlockTagSeed, lba);
}

/// XOR-composed tag of `blocks` consecutive logical blocks starting at
/// `lba`. block_range_tag(l, m) ^ block_range_tag(l + m, n) ==
/// block_range_tag(l, m + n), so any chunking of an I/O composes.
[[nodiscard]] constexpr std::uint64_t block_range_tag(
    std::uint64_t lba, std::uint32_t blocks) noexcept {
  std::uint64_t t = 0;
  for (std::uint32_t i = 0; i < blocks; ++i) t ^= block_tag(lba + i);
  return t;
}

/// block_range_tag through a thread-local memo table. One command's range
/// tag is needed at every layer it crosses (initiator content tag, target
/// staging tag, LUN write ledger); a layer hits the memo only when the
/// command's slot still holds it. The slot is (lba ^ blocks) & 63, which is
/// 0 for every 64-block-aligned command of a multiple of 64 blocks (any
/// 4 MiB command), so such commands share one slot and mostly miss.
/// Values are identical to block_range_tag — the cache only
/// short-circuits recomputation, so determinism is unaffected.
[[nodiscard]] inline std::uint64_t block_range_tag_cached(
    std::uint64_t lba, std::uint32_t blocks) noexcept {
  struct Entry {
    std::uint64_t lba = ~0ULL;
    std::uint32_t blocks = 0;
    std::uint64_t tag = 0;
  };
  // Direct-mapped, sized for the handful of commands in flight at once.
  static thread_local Entry cache[64];
  Entry& e = cache[(lba ^ blocks) & 63];
  if (e.lba != lba || e.blocks != blocks) {
    e.lba = lba;
    e.blocks = blocks;
    e.tag = block_range_tag(lba, blocks);
  }
  return e.tag;
}

/// Tag of one RFTP block: `bytes` of payload at byte `offset` of the
/// transfer, carried in rftp::DataHeader::checksum and XOR-accumulated into
/// the sink digest.
[[nodiscard]] constexpr std::uint64_t rftp_block_tag(
    std::uint64_t offset, std::uint64_t bytes) noexcept {
  return mix64(0x2F7BULL ^ fnv64(offset), bytes);  // "rftp"
}

namespace detail {
/// FNV-1a state after one byte from the offset basis: kFnvLowByte[b] ==
/// (kFnvOffset ^ b) * kFnvPrime. Both hashes inside rftp_block_tag start
/// from the basis, so this table replaces the first round of each. Built
/// by an immediate (consteval) lambda: no code for it exists at run time.
inline constexpr std::array<std::uint64_t, 256> kFnvLowByte = []() consteval {
  std::array<std::uint64_t, 256> t{};
  for (std::uint64_t b = 0; b < 256; ++b) t[b] = (kFnvOffset ^ b) * kFnvPrime;
  return t;
}();

/// FNV-1a rounds over fixed bytes, compiled into h = (h ^ c) * m steps: a
/// zero byte's round is a bare multiply, so each run of zero bytes folds
/// into the preceding step's multiplier as a power of the prime. Applying
/// the program equals fnv64_seeded's rounds over the same bytes.
class FnvRounds {
 public:
  /// Compiles the rounds over bytes [first, 8) of `x`, little-endian.
  constexpr FnvRounds(std::uint64_t x, int first) noexcept {
    for (int i = first; i < 8; ++i) {
      const std::uint64_t c = (x >> (8 * i)) & 0xFF;
      if (c != 0 || n_ == 0) {
        xor_[n_] = c;
        mul_[n_] = kFnvPrime;
        ++n_;
      } else {
        mul_[n_ - 1] *= kFnvPrime;
      }
    }
  }
  [[nodiscard]] constexpr std::uint64_t apply(std::uint64_t h) const noexcept {
    for (int i = 0; i < n_; ++i) h = (h ^ xor_[i]) * mul_[i];
    return h;
  }

 private:
  std::uint64_t xor_[8] = {};
  std::uint64_t mul_[8] = {};
  int n_ = 0;
};
}  // namespace detail

/// XOR of rftp_block_tag(idx, bytes) over idx in [lo, hi); 0 when the
/// range is empty. Bit-identical to the per-block loop: within each
/// 256-aligned chunk the index's bytes 1-7 are fixed, so fnv64(idx) is a
/// table lookup plus that chunk's compiled rounds, and the `bytes` rounds
/// are compiled once per call (two steps for 4 MiB instead of eight).
[[nodiscard]] constexpr std::uint64_t rftp_range_tag(
    std::uint64_t lo, std::uint64_t hi, std::uint64_t bytes) noexcept {
  const detail::FnvRounds size_rounds(bytes, 0);
  std::uint64_t t = 0;
  while (lo < hi) {
    // The chunk's last index, without forming (lo | 0xFF) + 1, which wraps
    // past UINT64_MAX.
    const std::uint64_t last = std::min(hi - 1, lo | 0xFF);
    const detail::FnvRounds idx_rounds(lo, 1);
    for (std::uint64_t b = lo & 0xFF; b <= (last & 0xFF); ++b) {
      const std::uint64_t a =
          0x2F7BULL ^ idx_rounds.apply(detail::kFnvLowByte[b]);
      std::uint64_t h = detail::kFnvLowByte[a & 0xFF];
      for (int i = 1; i < 8; ++i) {  // mix64's rounds over a's bytes 1-7
        h ^= (a >> (8 * i)) & 0xFF;
        h *= kFnvPrime;
      }
      t ^= size_rounds.apply(h);
    }
    lo = last + 1;
  }
  return t;
}

}  // namespace e2e::fault
