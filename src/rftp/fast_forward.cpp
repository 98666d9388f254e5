#include "rftp/fast_forward.hpp"

#include <algorithm>
#include <cstdint>
#include <optional>

#include "check/audit.hpp"
#include "fault/integrity.hpp"
#include "numa/host.hpp"

namespace e2e::rftp {

namespace {

// floor(a / b) and ceil(a / b), b != 0.
std::int64_t floor_div(std::int64_t a, std::int64_t b) {
  const std::int64_t q = a / b;
  return (a % b != 0 && (a < 0) != (b < 0)) ? q - 1 : q;
}
std::int64_t ceil_div(std::int64_t a, std::int64_t b) {
  const std::int64_t q = a / b;
  return (a % b != 0 && (a < 0) == (b < 0)) ? q + 1 : q;
}

}  // namespace

std::uint64_t matching_periods(const std::vector<std::uint64_t>& sizes,
                               const std::vector<PatternClaim>& pattern,
                               std::uint64_t k,
                               const std::optional<GuardBlock>& guard) {
  const std::size_t nq = sizes.size();
  std::vector<std::int64_t> per(nq, 0);    // T_q
  std::vector<std::int64_t> front(nq, 0);  // of which from the front
  for (const PatternClaim& pc : pattern) {
    ++per[pc.d.queue];
    if (!pc.d.from_back) ++front[pc.d.queue];
  }
  std::uint64_t done = k;
  if (guard) {
    // Period c's front pops take positions [(c-1)F, cF) from the front,
    // its back pops [(c-1)B, cB) from the back.
    const std::size_t q = guard->queue;
    const auto f = static_cast<std::uint64_t>(front[q]);
    const auto b = static_cast<std::uint64_t>(per[q] - front[q]);
    if (f > 0) done = std::min(done, guard->pos / f);
    if (b > 0) done = std::min(done, (sizes[q] - 1 - guard->pos) / b);
  }
  // Before the current claim of period c, queue q holds a[q] - c * per[q].
  std::vector<std::int64_t> a(nq);
  for (std::size_t q = 0; q < nq; ++q)
    a[q] = static_cast<std::int64_t>(sizes[q]) + per[q];
  std::vector<std::int64_t> at(nq);
  std::vector<std::uint64_t> checks;
  for (const PatternClaim& pc : pattern) {
    if (done == 0) break;
    const auto node = static_cast<std::size_t>(pc.node);
    // A comparison x(c) > y(c) changes truth only where the affine
    // difference d0 - d1 * c crosses zero.
    const auto crossings = [&](std::int64_t d0, std::int64_t d1) {
      if (d1 == 0) return;
      for (const std::int64_t c : {ceil_div(d0, d1), floor_div(d0, d1) + 1})
        if (c > 1 && static_cast<std::uint64_t>(c) <= done)
          checks.push_back(static_cast<std::uint64_t>(c));
    };
    checks.assign(1, 1);
    for (std::size_t x = 0; x < nq; ++x) {
      crossings(a[x], per[x]);                             // x > 0
      crossings(a[x] - a[node] - 4, per[x] - per[node]);   // x > own + 4
      for (std::size_t y = x + 1; y < nq; ++y)             // x > y, y > x
        crossings(a[x] - a[y], per[x] - per[y]);
    }
    for (const std::uint64_t c : checks) {
      if (c > done) continue;
      for (std::size_t q = 0; q < nq; ++q)
        at[q] = a[q] - static_cast<std::int64_t>(c) * per[q];
      if (decide_claim(nq, node, [&at](std::size_t q) { return at[q]; }) !=
          pc.d)
        done = c - 1;
    }
    --a[pc.d.queue];  // the next claim sees this one's pop
  }
  return done;
}

FastForward::FastForward(RftpSession& sess) : sess_(sess), eng_(sess.eng_) {
  period_ = static_cast<std::size_t>(sess.cfg_.streams) *
            static_cast<std::size_t>(sess.cfg_.credits_per_stream);
  if (period_ == 0) period_ = 1;
  cap_ = 4 * period_ + 8;
  drains_.resize(cap_);
  claims_.resize(cap_);
  // Both endpoints' hosts (deduped for loopback) fold their per-core
  // CpuUsage, so whole-run CPU reports stay honest on fast-forwarded runs.
  hosts_.push_back(&sess.sender_.proc->host());
  if (&sess.receiver_.proc->host() != hosts_[0])
    hosts_.push_back(&sess.receiver_.proc->host());
}

void FastForward::on_claim(numa::NodeId node, const ClaimDecision& d) {
  claims_[n_claims_ % cap_] = PatternClaim{node, d};
  ++n_claims_;
}

bool FastForward::quiet_ok() const noexcept {
  // No perturbation in flight: scripted faults settled, no crash or
  // failover pending, no grant-retry pacing delay waiting to fire against
  // a collapsed-away work-point. A throughput meter records every drain,
  // so a metered run stays event-exact, as a traced one does.
  return sess_.meter_ == nullptr &&
         eng_.virtual_now() >= sess_.cfg_.ff_quiet_after && !sess_.crashed_ &&
         !sess_.resume_pending_ && !sess_.transfer_failed_ &&
         sess_.alive_streams_ == sess_.cfg_.streams &&
         sess_.ff_grant_retries_pending_ == 0;
}

void FastForward::mark(Snap& out) {
  eng_.ff_mark();
  for (numa::Host* h : hosts_) h->ff_mark();
  out.qsize.clear();
  out.qsize.reserve(sess_.block_queues_.size());
  for (const auto& q : sess_.block_queues_) out.qsize.push_back(q.size());
  out.control_msgs = sess_.control_msgs_;
  out.grant_seq = sess_.grant_seq_;
  out.next_wr.clear();
  out.login_gen.clear();
  for (const auto& s : sess_.streams_) {
    out.next_wr.push_back(s->next_wr);
    out.login_gen.push_back(s->login_gen);
  }
  out.perturb[0] = sess_.retransmissions;
  out.perturb[1] = sess_.grant_retransmissions;
  out.perturb[2] = sess_.failovers;
  out.perturb[3] = sess_.checksum_failures;
  out.perturb[4] = sess_.duplicate_blocks;
  out.perturb[5] = sess_.host_crashes;
  out.perturb[6] = sess_.resumes;
  out.perturb[7] = sess_.rolled_back_blocks;
  out.claims_seen = n_claims_;
}

bool FastForward::repeats() const {
  if (!eng_.ff_repeats()) return false;
  for (const numa::Host* h : hosts_)
    if (!h->ff_repeats()) return false;
  if (a_.qsize.size() != b_.qsize.size() ||
      b_.qsize.size() != c_.qsize.size())
    return false;
  for (std::size_t i = 0; i < a_.qsize.size(); ++i)
    if (a_.qsize[i] - b_.qsize[i] != b_.qsize[i] - c_.qsize[i]) return false;
  if (b_.control_msgs - a_.control_msgs != c_.control_msgs - b_.control_msgs)
    return false;
  if (b_.grant_seq - a_.grant_seq != c_.grant_seq - b_.grant_seq)
    return false;
  if (a_.next_wr.size() != b_.next_wr.size() ||
      b_.next_wr.size() != c_.next_wr.size())
    return false;
  for (std::size_t i = 0; i < a_.next_wr.size(); ++i)
    if (b_.next_wr[i] - a_.next_wr[i] != c_.next_wr[i] - b_.next_wr[i])
      return false;
  if (a_.login_gen != b_.login_gen || b_.login_gen != c_.login_gen)
    return false;
  for (std::size_t i = 0; i < 8; ++i)
    if (a_.perturb[i] != b_.perturb[i] || b_.perturb[i] != c_.perturb[i])
      return false;
  // Claim flow: exactly R claims per window (conservation with the R
  // drains) and an identical decision pattern in both windows.
  const std::uint64_t w1 = b_.claims_seen - a_.claims_seen;
  const std::uint64_t w2 = c_.claims_seen - b_.claims_seen;
  if (w1 != w2 || w1 != period_) return false;
  if (c_.claims_seen - a_.claims_seen > cap_) return false;  // ring wrapped
  for (std::uint64_t j = 0; j < w1; ++j)
    if (!(claims_[(a_.claims_seen + j) % cap_] ==
          claims_[(b_.claims_seen + j) % cap_]))
      return false;
  return true;
}

std::uint64_t FastForward::pick_k() const {
  // Upper bound only: the largest k for which no queue can underfill
  // mid-period. No safety margin is needed — matching_periods checks the
  // real claim policy across the whole span and truncates k to the
  // periods before the first verdict that deviates from the steady-state
  // pattern, exactly where the endgame begins.
  std::uint64_t k = ~0ull;
  bool any = false;
  for (std::size_t q = 0; q < c_.qsize.size(); ++q) {
    const std::size_t per = b_.qsize[q] - c_.qsize[q];
    if (per == 0) continue;
    any = true;
    k = std::min<std::uint64_t>(k, c_.qsize[q] / per);
  }
  return any ? k : 0;
}

void FastForward::collapse() {
  if (!quiet_ok() || !repeats()) {
    disarm();
    cooldown_until_ = n_drains_ + period_;
    return;
  }
  const std::uint64_t k_max = pick_k();
  if (k_max == 0) {
    disarm();
    cooldown_until_ = n_drains_ + period_;
    return;
  }
  const std::uint64_t n = n_drains_ - 1;  // the drain that completed window 2
  const sim::SimDuration period_ns =
      drains_[n % cap_].at - drains_[(n - period_) % cap_].at;
  const std::uint64_t bb = sess_.cfg_.block_bytes;
  const std::uint64_t cb =
      sess_.cfg_.checkpoint_blocks > 0
          ? static_cast<std::uint64_t>(sess_.cfg_.checkpoint_blocks)
          : 0;

  // Window-2 claim pattern, in order.
  std::vector<PatternClaim> pattern(period_);
  for (std::size_t j = 0; j < period_; ++j)
    pattern[j] = claims_[(b_.claims_seen + j) % cap_];

  // Check the span in closed form. The partial final block, if still
  // queued, must be claimed event-exactly.
  auto& queues = sess_.block_queues_;
  std::vector<std::uint64_t> sizes;
  sizes.reserve(queues.size());
  for (const auto& q : queues) sizes.push_back(q.size());
  std::optional<GuardBlock> guard;
  if (sess_.total_bytes_ % bb != 0) {
    for (std::size_t q = 0; q < queues.size() && !guard; ++q) {
      const std::uint64_t pos = queues[q].position(sess_.total_blocks_ - 1);
      if (pos < queues[q].size()) guard = GuardBlock{q, pos};
    }
  }
  const std::uint64_t k = matching_periods(sizes, pattern, k_max, guard);
  if (k == 0) {
    disarm();
    cooldown_until_ = n_drains_ + period_;
    return;
  }
  const std::uint64_t kr = k * period_;

  // Checkpoint bookkeeping advances analytically: `boundaries` checkpoints
  // fire inside the span; one full ledger publication at the last of them
  // covers every collapsed block (the auditor only requires ledgered ⊆
  // drained, and the post-span cadence continues on the same phase). A
  // span that crosses no boundary leaves its blocks pending.
  std::uint64_t boundaries = 0;
  if (cb > 0) {
    const auto pre = static_cast<std::uint64_t>(sess_.drains_since_ckpt_);
    boundaries = (pre + kr) / cb;
    sess_.drains_since_ckpt_ = static_cast<int>((pre + kr) % cb);
  }

  // Apply the span's drains in closed form, one popped run at a time.
  // Which block lands in which drain slot is unobservable by any final
  // metric (the digest is an XOR, bytes are uniform, drained_ is
  // unordered), so only the popped set matters: each queue's first k * F
  // and last k * B indices. Every popped index XORs its own tag, one
  // drained_ already holds included, so a double drain still fails the
  // session's integrity check.
  auto* au = check::of(eng_);
  const auto drain_run = [&](std::uint64_t lo, std::uint64_t hi) {
    sess_.drained_.insert_run(lo, hi);
    sess_.sink_digest_ ^= fault::rftp_range_tag(lo, hi, bb);
    if (au != nullptr) au->rftp_fast_forward_drains(&sess_, lo, hi, bb);
    if (cb > 0 && boundaries == 0)
      for (std::uint64_t idx = lo; idx < hi; ++idx)
        sess_.unledgered_.push_back(idx);
  };
  std::vector<std::uint64_t> front(queues.size(), 0);
  std::vector<std::uint64_t> back(queues.size(), 0);
  for (const PatternClaim& pc : pattern) {
    ++(pc.d.from_back ? back : front)[pc.d.queue];
    switch (pc.d.kind) {
      case ClaimDecision::Kind::kStolen:
        sess_.stolen_claims += k;
        break;
      case ClaimDecision::Kind::kLocal:
        sess_.local_claims += k;
        break;
      case ClaimDecision::Kind::kShared:
      case ClaimDecision::Kind::kFallback:
        break;
    }
  }
  for (std::size_t q = 0; q < queues.size(); ++q) {
    queues[q].pop_front_n(k * front[q], drain_run);
    queues[q].pop_back_n(k * back[q], drain_run);
  }
  sess_.delivered_bytes_ += bb * kr;
  sess_.blocks_done_ += kr;
  sess_.done_->done(static_cast<std::int64_t>(kr));
  if (boundaries > 0) {
    sess_.checkpoints += boundaries;
    sess_.ledger_ = sess_.drained_;
    sess_.unledgered_.clear();
    if (au != nullptr) au->rftp_checkpoint(&sess_, sess_.ledger_);
  }
  // Fold the verified per-period delta, k times, into every ledger the
  // event-exact span would have advanced.
  eng_.ff_advance(k);
  for (numa::Host* h : hosts_) h->ff_advance(k);
  sess_.control_msgs_ += (c_.control_msgs - b_.control_msgs) * k;
  sess_.grant_seq_ += (c_.grant_seq - b_.grant_seq) * k;
  for (std::size_t i = 0; i < sess_.streams_.size(); ++i)
    sess_.streams_[i]->next_wr += (c_.next_wr[i] - b_.next_wr[i]) * k;

  const sim::SimDuration span = static_cast<sim::SimDuration>(k) * period_ns;
  eng_.skip_time(span);
  ++spans_;
  blocks_ += kr;
  skipped_ += span;
  disarm();
  cooldown_until_ = n_drains_ + 2 * period_;
}

void FastForward::on_fresh_drain(const int stream_id, std::uint32_t token,
                                 std::uint64_t bytes,
                                 sim::SimTime drained_at) {
  const std::uint64_t n = n_drains_++;
  drains_[n % cap_] =
      DrainRec{stream_id, token, bytes, eng_.queue_depth(), drained_at};
  // O(1) prefilter: this drain must look exactly like the drains one and
  // two periods back, with equal (positive) time gaps.
  bool stable = false;
  if (n >= 2 * period_ && bytes == sess_.cfg_.block_bytes) {
    const DrainRec& r0 = drains_[n % cap_];
    const DrainRec& r1 = drains_[(n - period_) % cap_];
    const DrainRec& r2 = drains_[(n - 2 * period_) % cap_];
    stable = r0.same_shape(r1) && r1.same_shape(r2) && r0.at > r1.at &&
             r0.at - r1.at == r1.at - r2.at;
  }
  if (!stable) {
    disarm();
    return;
  }
  ++stable_run_;
  switch (state_) {
    case State::kIdle:
      // A full period of consecutive prefilter passes covers every drain
      // slot; the heavyweight window verification starts from here.
      if (stable_run_ >= period_ && n_drains_ > cooldown_until_ &&
          quiet_ok()) {
        mark(a_);
        arm_drain_ = n;
        state_ = State::kArmedB;
      }
      break;
    case State::kArmedB:
      if (n == arm_drain_ + period_) {
        mark(b_);
        state_ = State::kArmedC;
      }
      break;
    case State::kArmedC:
      if (n == arm_drain_ + 2 * period_) {
        mark(c_);
        collapse();
      }
      break;
  }
}

}  // namespace e2e::rftp
