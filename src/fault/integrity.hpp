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
// Tags are hashed by range, not block by block: a 4 MiB SCSI command
// covers 8,192 LBAs and is tagged at several protocol layers, and the
// RFTP end-of-run integrity pass, fast-forward collapse and auditor digest
// each XOR the tags of whole index runs (a TB-scale transfer has millions
// of blocks). The FNV prefix over each domain constant is folded into a
// precomputed seed, and one chunk walker (detail::xor_chunks) compiles an
// index's fixed high bytes once per 256 indices, so block_range_tag and
// rftp_range_tag equal the XOR of their per-block tags bit for bit at a
// fraction of the multiplies.
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

/// FNV-1a state after one byte from `seed`: t[b] == (seed ^ b) * kFnvPrime.
/// Immediate (consteval): no code for it exists at run time.
consteval std::array<std::uint64_t, 256> first_round(std::uint64_t seed) {
  std::array<std::uint64_t, 256> t{};
  for (std::uint64_t b = 0; b < 256; ++b) t[b] = (seed ^ b) * kFnvPrime;
  return t;
}
/// Both hashes inside rftp_block_tag start from the offset basis.
inline constexpr auto kFnvLowByte = first_round(kFnvOffset);
inline constexpr auto kBlockLowByte = first_round(kBlockTagSeed);

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

/// XOR of per(rounds, b) over the `n` indices from `lo`, modulo 2^64, so a
/// run may wrap past UINT64_MAX to 0. The walk goes by 256-aligned chunks:
/// inside one, an index's bytes 1-7 are fixed, so `rounds` is their FNV
/// rounds compiled once per chunk and `b` is the index's byte 0. Every byte
/// carry is a chunk boundary, crossed here and nowhere else.
template <class PerIndex>
[[nodiscard]] constexpr std::uint64_t xor_chunks(std::uint64_t lo,
                                                 std::uint64_t n,
                                                 PerIndex per) noexcept {
  std::uint64_t t = 0;
  while (n != 0) {
    // The chunk ends at index lo | 0xFF. Count to it rather than forming
    // (lo | 0xFF) + 1, which wraps past UINT64_MAX.
    const std::uint64_t first = lo & 0xFF;
    const std::uint64_t span = std::min(n, 256 - first);
    const FnvRounds rounds(lo, 1);
    for (std::uint64_t b = first; b < first + span; ++b) t ^= per(rounds, b);
    lo += span;
    n -= span;
  }
  return t;
}
}  // namespace detail

/// XOR of the tags of `blocks` consecutive 512-byte logical blocks from
/// `lba` (modulo 2^64). One block's tag is fnv64_seeded(kBlockTagSeed,
/// lba), domain-separated from raw fnv64 so LBA tags never collide with
/// offset-derived tags. block_range_tag(l, m) ^ block_range_tag(l + m, n)
/// == block_range_tag(l, m + n), so any chunking of an I/O composes. The
/// first round is a table lookup and the LBA's bytes 1-7 compile once per
/// 256-block chunk: two or three multiplies per block instead of eight.
[[nodiscard]] constexpr std::uint64_t block_range_tag(
    std::uint64_t lba, std::uint32_t blocks) noexcept {
  return detail::xor_chunks(
      lba, blocks, [](const detail::FnvRounds& rounds, std::uint64_t b) {
        return rounds.apply(detail::kBlockLowByte[b]);
      });
}

/// Tag of one RFTP block: `bytes` of payload at byte `offset` of the
/// transfer, carried in rftp::DataHeader::checksum and XOR-accumulated into
/// the sink digest.
[[nodiscard]] constexpr std::uint64_t rftp_block_tag(
    std::uint64_t offset, std::uint64_t bytes) noexcept {
  return mix64(0x2F7BULL ^ fnv64(offset), bytes);  // "rftp"
}

/// XOR of rftp_block_tag(idx, bytes) over idx in [lo, hi); 0 when the
/// range is empty. Bit-identical to the per-block loop: fnv64(idx) is a
/// table lookup plus the chunk's compiled rounds, and the `bytes` rounds
/// are compiled once per call (two steps for 4 MiB instead of eight).
[[nodiscard]] constexpr std::uint64_t rftp_range_tag(
    std::uint64_t lo, std::uint64_t hi, std::uint64_t bytes) noexcept {
  const detail::FnvRounds size_rounds(bytes, 0);
  return detail::xor_chunks(
      lo, hi > lo ? hi - lo : 0,
      [&](const detail::FnvRounds& idx_rounds, std::uint64_t b) {
        const std::uint64_t a =
            0x2F7BULL ^ idx_rounds.apply(detail::kFnvLowByte[b]);
        std::uint64_t h = detail::kFnvLowByte[a & 0xFF];
        for (int i = 1; i < 8; ++i) {  // mix64's rounds over a's bytes 1-7
          h ^= (a >> (8 * i)) & 0xFF;
          h *= kFnvPrime;
        }
        return size_rounds.apply(h);
      });
}

}  // namespace e2e::fault
