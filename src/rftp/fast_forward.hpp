// Hybrid fluid/event fast-forward: collapse steady-state bulk phases into
// closed-form spans (the --fast-forward path).
//
// A bulk transfer spends almost all of its simulated events in a perfectly
// periodic steady state: every credit token cycles through the same
// fill → write → drain → re-grant loop with the same latencies, and every
// per-block side effect (byte ledgers, stats counters, CPU charges) repeats
// with the same deltas. Simulating those events one by one is pure
// repetition. The FastForward detector proves the repetition and then
// replaces the next k periods with their closed form.
//
// Detection — three-point delta-repeat verification:
//
//   1. Prefilter (O(1) per fresh drain): a ring of recent drain records
//      (stream, token, bytes, engine queue depth, virtual drain time) must
//      show the drain R back and 2R back identical in shape with equal time
//      gaps, where R = streams * credits_per_stream (the credit-rotation
//      period). A run of R consecutive passes arms the detector.
//   2. Armed, it marks every ledger at drains n0 (A), n0+R (B) and n0+2R
//      (C) through the fast-forward contract (sim::Observer::ff_mark):
//      Engine::ff_mark reaches every installed observer (the stats
//      registry, the auditor) and every engine Resource, and each of the
//      session's hosts marks its per-core CpuUsage. Each ledger keeps its
//      own marks private. The detector itself snapshots only the session:
//      per-NUMA-queue sizes, control/grant counters, per-stream next_wr and
//      login generation, the perturbation counters and the claim pattern.
//   3. Collapse requires every ledger's ff_repeats() (its D1 = B−A and
//      D2 = C−B bitwise identical, its population unchanged), identical
//      session deltas, zero deltas on every perturbation counter
//      (retransmissions, failovers, crashes, ...), identical claim-decision
//      patterns in both windows, and the quiet guards below. Anything off →
//      drop back to event-exact.
//
// Collapse: pick k so no NUMA queue can underfill, then check the recorded
// claim pattern against the *real* decide_claim policy in closed form
// (matching_periods): inside a span every queue size is affine in the
// period number, so each comparison the policy makes flips at most once,
// and checking the verdicts at c = 1 and at every flip finds the first
// period whose verdict deviates (or whose pops would reach the partial
// final block) without replaying a claim. k truncates to the periods
// before it. The span's pops are then whole runs: each queue loses its
// first k * F and last k * B indices (RunQueue::pop_front_n/pop_back_n),
// and each popped run lands in the drained set (RunSet::insert_run), the
// auditor's block ledger and the XOR sink digest (fault::rftp_range_tag,
// so every pop still XORs its own tag, a duplicate included) once.
// Claim counters, delivered bytes and the WaitGroup advance once per span.
// Then ff_advance(k) every ledger, fold D2 * k into the session scalars,
// advance checkpoint bookkeeping analytically, and finally
// Engine::skip_time(k*P). The event heap never moves: in-flight latency
// measurements stay event-exact, and the live pipeline resumes at the same
// event clock against the shifted work-point — exactly the state the
// event-exact run reaches at t + k*P (modulo which block indices are in
// flight, which no final metric observes). The session watchdog's pending
// check stays on the event clock too: past the quiet horizon every check
// sees progress, so none reports a verdict, and disarm() retracts the last
// one when the transfer ends. The collapse costs O(pattern + runs popped),
// not O(k).
//
// Quiet guards (checked at arm and re-checked at collapse): no Cluster
// shard, virtual time past cfg.ff_quiet_after (every scripted fault has
// fired and settled), no crash/resume/failover in progress, no
// grant-retry pacing delay pending, and no ThroughputMeter attached (it
// records every drain). An installed tracer refuses through its own
// ff_repeats(): traces are exempt from equivalence and would diverge.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "rftp/claim_policy.hpp"
#include "rftp/session.hpp"
#include "sim/engine.hpp"
#include "sim/time.hpp"

namespace e2e::rftp {

/// One claim of a steady-state period: the filler's node and its verdict.
struct PatternClaim {
  numa::NodeId node = 0;
  ClaimDecision d;
  bool operator==(const PatternClaim&) const = default;
};

/// A queued block no collapsed pop may take (the transfer's partial final
/// block): position `pos` from the front of queue `queue`.
struct GuardBlock {
  std::size_t queue = 0;
  std::uint64_t pos = 0;
};

/// Whole periods of `pattern`, at most `k`, that decide_claim repeats
/// verdict for verdict from queue sizes `sizes`, with no pop reaching
/// `guard`: exactly the periods a claim-by-claim replay completes before
/// its first deviating verdict. Before claim j of period c, queue q holds
/// sizes[q] - (c-1) * T_q - p_jq (T_q: the pattern's pops from q per
/// period; p_jq: those before claim j). That is affine in c, so each
/// comparison the policy makes changes truth at most once on [1, k]; the
/// verdict is checked at c = 1 and at each change. O(pattern * queues^3),
/// independent of k.
[[nodiscard]] std::uint64_t matching_periods(
    const std::vector<std::uint64_t>& sizes,
    const std::vector<PatternClaim>& pattern, std::uint64_t k,
    const std::optional<GuardBlock>& guard);

class FastForward {
 public:
  explicit FastForward(RftpSession& sess);
  FastForward(const FastForward&) = delete;
  FastForward& operator=(const FastForward&) = delete;

  /// Called by RftpSession::claim_block with the verdict it is about to
  /// apply; the detector records the pattern for window comparison and
  /// the span check.
  void on_claim(numa::NodeId node, const ClaimDecision& d);

  /// Called by the drainer after every fresh drain's side effects have
  /// landed (the only safe collapse point). Runs the prefilter, advances
  /// the armed state machine, and — when a steady state is proven —
  /// performs the collapse synchronously before returning.
  void on_fresh_drain(const int stream_id, std::uint32_t token,
                      std::uint64_t bytes, sim::SimTime drained_at);

  /// Any perturbation (failover, crash, requeue) drops the detector back to
  /// event-exact; it may re-arm once stability re-proves itself.
  void disarm() noexcept {
    state_ = State::kIdle;
    stable_run_ = 0;
  }

  // Engagement accounting for TransferResult / CLI summaries.
  [[nodiscard]] std::uint64_t spans() const noexcept { return spans_; }
  [[nodiscard]] std::uint64_t blocks_collapsed() const noexcept {
    return blocks_;
  }
  [[nodiscard]] sim::SimDuration skipped() const noexcept { return skipped_; }

 private:
  struct DrainRec {
    int stream = 0;
    std::uint32_t token = 0;
    std::uint64_t bytes = 0;
    std::size_t queue_depth = 0;  // engine event-heap population at the hook
    sim::SimTime at = 0;          // virtual drain-record time
    [[nodiscard]] bool same_shape(const DrainRec& o) const noexcept {
      return stream == o.stream && token == o.token && bytes == o.bytes &&
             queue_depth == o.queue_depth;
    }
  };
  /// The session's own state at a fresh-drain boundary; every other
  /// ledger keeps its marks itself.
  struct Snap {
    std::vector<std::size_t> qsize;          // per-NUMA block queue sizes
    std::uint64_t control_msgs = 0;
    std::uint64_t grant_seq = 0;
    std::vector<std::uint64_t> next_wr;      // per stream
    std::vector<std::uint32_t> login_gen;    // per stream (delta must be 0)
    std::uint64_t perturb[8] = {};           // must not move at all
    std::uint64_t claims_seen = 0;           // claim count at snapshot time
  };

  [[nodiscard]] bool quiet_ok() const noexcept;
  /// Marks every ledger and snapshots the session into `out`.
  void mark(Snap& out);
  /// D1 == D2 across the ledgers' marks and a_, b_, c_.
  [[nodiscard]] bool repeats() const;
  /// Periods safely collapsible given the post-C queue sizes; 0 = bail.
  [[nodiscard]] std::uint64_t pick_k() const;
  void collapse();

  RftpSession& sess_;
  sim::Engine& eng_;
  std::size_t period_ = 1;  // R: fresh drains per steady-state period
  std::size_t cap_ = 0;     // ring capacity (> 4R)
  std::vector<DrainRec> drains_;   // ring, indexed by n_drains_ % cap_
  std::vector<PatternClaim> claims_;  // ring, indexed by n_claims_ % cap_
  std::vector<numa::Host*> hosts_;  // both endpoints' hosts, deduplicated
  std::uint64_t n_drains_ = 0;
  std::uint64_t n_claims_ = 0;
  std::uint64_t stable_run_ = 0;
  std::uint64_t cooldown_until_ = 0;  // drain count gating the next arm

  enum class State : std::uint8_t { kIdle, kArmedB, kArmedC };
  State state_ = State::kIdle;
  std::uint64_t arm_drain_ = 0;  // n_drains_ at snapshot A
  Snap a_, b_, c_;

  std::uint64_t spans_ = 0;
  std::uint64_t blocks_ = 0;
  sim::SimDuration skipped_ = 0;
};

}  // namespace e2e::rftp
