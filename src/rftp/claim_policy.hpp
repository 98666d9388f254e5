// RFTP's block-claim policy: which queue a filler claims its next block
// from, split from the claim's side effects.
//
// The sender keeps one block queue per NUMA node (blocks homed there) and
// a last, shared queue (blocks with no known home). The policy reads queue
// sizes only, through an accessor, so the same code decides a filler's
// claim over the live queues (RftpSession::claim_block) and checks a
// fast-forward span over the queue sizes a steady-state period predicts
// (rftp::matching_periods).
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>

namespace e2e::rftp {

/// One claim-policy verdict.
struct ClaimDecision {
  enum class Kind : std::uint8_t { kStolen, kLocal, kShared, kFallback };
  std::size_t queue = 0;   // index into the block queues
  Kind kind = Kind::kLocal;
  bool from_back = false;  // steal/fallback pop the back, others the front
  bool operator==(const ClaimDecision&) const = default;
};

/// The verdict for a filler on `node`, given `queues` block queues whose
/// sizes `size(q)` returns; nullopt when every queue is empty.
///
/// Locality-preferring, load-balancing claim: serve the local queue, but
/// when another node's backlog has grown well past ours (its links or
/// storage path are the slower side), help drain it — continuous work
/// stealing keeps every queue finishing together without giving up
/// locality for the bulk of the data. The verdict depends only on strict
/// comparisons between sizes, a size plus 4, and zero: the property the
/// fast-forward span check relies on.
template <typename Size>
[[nodiscard]] std::optional<ClaimDecision> decide_claim(std::size_t queues,
                                                        std::size_t node,
                                                        const Size& size) {
  const auto own = size(node);
  std::size_t victim = queues;
  auto victim_size = own + 4;
  for (std::size_t n = 0; n + 1 < queues; ++n) {
    if (n == node) continue;
    const auto s = size(n);
    if (s > victim_size) {
      victim = n;
      victim_size = s;
    }
  }
  if (victim < queues)
    return ClaimDecision{victim, ClaimDecision::Kind::kStolen, true};
  if (own > 0) return ClaimDecision{node, ClaimDecision::Kind::kLocal, false};
  if (size(queues - 1) > 0)
    return ClaimDecision{queues - 1, ClaimDecision::Kind::kShared, false};
  // Drain whatever remains anywhere.
  for (std::size_t q = 0; q < queues; ++q)
    if (size(q) > 0)
      return ClaimDecision{q, ClaimDecision::Kind::kFallback, true};
  return std::nullopt;
}

}  // namespace e2e::rftp
