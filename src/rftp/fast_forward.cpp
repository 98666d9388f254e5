#include "rftp/fast_forward.hpp"

#include <algorithm>
#include <bit>

#include "check/audit.hpp"
#include "fault/integrity.hpp"
#include "numa/host.hpp"
#include "trace/tracer.hpp"

namespace e2e::rftp {

namespace {
[[nodiscard]] bool same_bits(double a, double b) noexcept {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}
}  // namespace

FastForward::FastForward(RftpSession& sess) : sess_(sess), eng_(sess.eng_) {
  period_ = static_cast<std::size_t>(sess.cfg_.streams) *
            static_cast<std::size_t>(sess.cfg_.credits_per_stream);
  if (period_ == 0) period_ = 1;
  cap_ = 4 * period_ + 8;
  drains_.resize(cap_);
  claims_.resize(cap_);
  // Per-core CpuUsage objects of both endpoints (deduped for loopback):
  // the collapse folds the verified per-period CPU delta into them so
  // whole-run CPU reports stay honest on fast-forwarded runs.
  auto add_host = [this](numa::Host& h) {
    for (int i = 0; i < h.core_count(); ++i)
      usage_objs_.push_back(&h.core(i).usage);
  };
  numa::Host& sh = sess.sender_.proc->host();
  numa::Host& rh = sess.receiver_.proc->host();
  add_host(sh);
  if (&rh != &sh) add_host(rh);
}

void FastForward::on_claim(numa::NodeId node,
                           const RftpSession::ClaimDecision& d) {
  claims_[n_claims_ % cap_] = ClaimRec{node, d};
  ++n_claims_;
}

bool FastForward::quiet_ok() const noexcept {
  // Traces are exempt from the equivalence contract and would diverge, so
  // an installed tracer pins the run to event-exact. Everything else here
  // is "no perturbation in flight": scripted faults settled, no crash or
  // failover pending, no grant-retry pacing delay waiting to fire against
  // a collapsed-away work-point.
  return trace::of(eng_) == nullptr &&
         eng_.virtual_now() >= sess_.cfg_.ff_quiet_after && !sess_.crashed_ &&
         !sess_.resume_pending_ && !sess_.transfer_failed_ &&
         sess_.alive_streams_ == sess_.cfg_.streams &&
         sess_.ff_grant_retries_pending_ == 0;
}

void FastForward::take_snapshot(Snap& out) const {
  const auto& rs = eng_.resources();
  out.res.assign(rs.begin(), rs.end());
  out.busy.clear();
  out.units.clear();
  out.busy.reserve(out.res.size());
  out.units.reserve(out.res.size());
  for (const sim::Resource* r : out.res) {
    out.busy.push_back(r->busy_time());
    out.units.push_back(r->units_served());
  }
  out.have_stats = false;
  if (auto* st = stats::of(eng_)) {
    out.have_stats = true;
    st->ff_snapshot(out.reg);
  }
  out.have_audit = false;
  out.cpu_cores.clear();
  out.cpu.clear();
  if (auto* au = check::of(eng_)) {
    out.have_audit = true;
    au->ff_cpu_cores(out.cpu_cores);
    au->ff_cpu_snapshot(out.cpu);
  }
  out.usage.clear();
  out.usage.reserve(usage_objs_.size() * metrics::kCpuCategoryCount);
  for (const metrics::CpuUsage* u : usage_objs_)
    for (std::size_t c = 0; c < metrics::kCpuCategoryCount; ++c)
      out.usage.push_back(u->get(static_cast<metrics::CpuCategory>(c)));
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

bool FastForward::deltas_match() {
  // Resource population must be pointer-identical across the window, and
  // every busy/units delta must repeat exactly (units bitwise: the apply
  // step multiplies the very same double).
  if (a_.res != b_.res || b_.res != c_.res) return false;
  for (std::size_t i = 0; i < a_.res.size(); ++i) {
    if (b_.busy[i] - a_.busy[i] != c_.busy[i] - b_.busy[i]) return false;
    if (!same_bits(b_.units[i] - a_.units[i], c_.units[i] - b_.units[i]))
      return false;
  }
  if (a_.have_stats != b_.have_stats || b_.have_stats != c_.have_stats)
    return false;
  if (a_.have_stats) {
    stats::Registry::FfSnapshot d1;
    if (!stats::Registry::ff_delta(a_.reg, b_.reg, d1)) return false;
    if (!stats::Registry::ff_delta(b_.reg, c_.reg, d2_reg_)) return false;
    if (!stats::Registry::ff_equal(d1, d2_reg_)) return false;
  }
  if (a_.have_audit != b_.have_audit || b_.have_audit != c_.have_audit)
    return false;
  if (a_.have_audit) {
    if (a_.cpu_cores != b_.cpu_cores || b_.cpu_cores != c_.cpu_cores)
      return false;
    if (a_.cpu.size() != b_.cpu.size() || b_.cpu.size() != c_.cpu.size())
      return false;
    d2_cpu_.assign(c_.cpu.size(), 0);
    for (std::size_t i = 0; i < a_.cpu.size(); ++i) {
      d2_cpu_[i] = c_.cpu[i] - b_.cpu[i];
      if (b_.cpu[i] - a_.cpu[i] != d2_cpu_[i]) return false;
    }
    // The accounted-by-category arrays must advance exactly as much as the
    // matching cycle servers: finalize() cross-checks the two to the
    // nanosecond, so the collapse refuses to engage on any daylight.
    for (std::size_t i = 0; i < a_.cpu_cores.size(); ++i) {
      sim::SimDuration acc = 0;
      for (std::size_t c = 0; c < metrics::kCpuCategoryCount; ++c)
        acc += d2_cpu_[i * metrics::kCpuCategoryCount + c];
      std::size_t ri = a_.res.size();
      for (std::size_t r = 0; r < a_.res.size(); ++r)
        if (a_.res[r] == a_.cpu_cores[i]) {
          ri = r;
          break;
        }
      if (ri == a_.res.size()) return false;
      if (acc != c_.busy[ri] - b_.busy[ri]) return false;
    }
  }
  if (a_.usage.size() != b_.usage.size() ||
      b_.usage.size() != c_.usage.size())
    return false;
  for (std::size_t i = 0; i < a_.usage.size(); ++i)
    if (b_.usage[i] - a_.usage[i] != c_.usage[i] - b_.usage[i]) return false;
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
  // mid-period. No safety margin is needed — the replay re-runs the real
  // claim policy per block and undoes the period on the first verdict that
  // deviates from the steady-state pattern, so an optimistic k truncates
  // itself exactly where the endgame begins. The bound just caps the
  // wasted replay work to at most one period.
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

void FastForward::undo_claim(const RftpSession::ClaimDecision& d,
                             std::uint64_t idx) {
  auto& q = sess_.block_queues_[d.queue];
  if (d.from_back)
    q.push_back(idx);
  else
    q.push_front(idx);
  switch (d.kind) {
    case RftpSession::ClaimDecision::Kind::kStolen:
      --sess_.stolen_claims;
      break;
    case RftpSession::ClaimDecision::Kind::kLocal:
      --sess_.local_claims;
      break;
    case RftpSession::ClaimDecision::Kind::kShared:
    case RftpSession::ClaimDecision::Kind::kFallback:
      break;
  }
}

void FastForward::collapse() {
  if (!quiet_ok() || !deltas_match()) {
    disarm();
    cooldown_until_ = n_drains_ + period_;
    return;
  }
  const std::uint64_t k = pick_k();
  if (k == 0) {
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

  // Window-2 claim pattern and drain-record times, in order.
  std::vector<ClaimRec> pattern(period_);
  for (std::size_t j = 0; j < period_; ++j)
    pattern[j] = claims_[(b_.claims_seen + j) % cap_];
  std::vector<sim::SimTime> when(period_);
  for (std::size_t j = 0; j < period_; ++j)
    when[j] = drains_[(n - period_ + 1 + j) % cap_].at;

  auto* au = check::of(eng_);
  std::vector<RftpSession::ClaimDecision> applied;
  std::vector<std::uint64_t> popped;
  applied.reserve(period_);
  popped.reserve(period_);
  std::uint64_t k_done = 0;
  for (std::uint64_t c = 1; c <= k; ++c) {
    applied.clear();
    popped.clear();
    bool ok = true;
    for (const ClaimRec& cr : pattern) {
      // Re-run the real claim policy and require the steady-state verdict.
      const auto d = sess_.decide_claim(cr.node);
      if (!d || !(*d == cr.d)) {
        ok = false;
        break;
      }
      const std::uint64_t idx = sess_.apply_claim(*d);
      applied.push_back(*d);
      popped.push_back(idx);
      if (idx * bb + bb > sess_.total_bytes_) {  // partial final block
        ok = false;
        break;
      }
    }
    if (!ok) {
      // Undo this period's pops (reverse order restores the exact queue
      // layout) and truncate the collapse to the completed periods.
      for (std::size_t i = applied.size(); i-- > 0;)
        undo_claim(applied[i], popped[i]);
      break;
    }
    // Apply the period's R fresh drains in closed form. Which popped block
    // lands in which drain slot is unobservable by any final metric (the
    // digest is an XOR, bytes are uniform, drained_ is unordered), so the
    // pairing is by pattern order. Uniform per-block updates are hoisted to
    // one bulk update per period — the per-block loop is the whole wall
    // clock of a collapsed TB-scale run.
    for (std::size_t j = 0; j < period_; ++j) {
      const std::uint64_t idx = popped[j];
      sess_.drained_.insert(idx);
      // Pending until the boundary check below; past checkpoint_blocks
      // the span crosses a boundary and publishes in full instead.
      if (sess_.unledgered_.size() < cb) sess_.unledgered_.push_back(idx);
      sess_.sink_digest_ ^= fault::rftp_block_tag(idx, bb);
      if (sess_.meter_ != nullptr)
        sess_.meter_->record_at(
            when[j] + static_cast<sim::SimDuration>(c) * period_ns, bb);
    }
    sess_.delivered_bytes_ += bb * period_;
    sess_.blocks_done_ += period_;
    sess_.done_->done(static_cast<std::int64_t>(period_));
    if (au != nullptr)
      au->rftp_fast_forward_drains(&sess_, popped.data(), popped.size(), bb);
    ++k_done;
  }
  if (k_done == 0) {
    disarm();
    cooldown_until_ = n_drains_ + period_;
    return;
  }
  const std::uint64_t kr = k_done * period_;
  // Checkpoint bookkeeping advances analytically: `boundaries` checkpoints
  // fired inside the span; one full ledger publication at the last of them
  // covers every replayed block (the auditor only requires ledgered ⊆
  // drained, and the post-span cadence continues on the same phase). A
  // span that crosses no boundary leaves its blocks pending, already
  // appended to unledgered_ by the replay loop above.
  if (cb > 0) {
    const auto pre = static_cast<std::uint64_t>(sess_.drains_since_ckpt_);
    const std::uint64_t boundaries = (pre + kr) / cb;
    sess_.drains_since_ckpt_ = static_cast<int>((pre + kr) % cb);
    if (boundaries > 0) {
      sess_.checkpoints += boundaries;
      sess_.ledger_ = sess_.drained_;
      sess_.unledgered_.clear();
      if (au != nullptr) au->rftp_checkpoint(&sess_, sess_.ledger_);
    }
  }
  // Fold the verified per-period delta, k_done times, into every ledger the
  // event-exact span would have advanced.
  if (c_.have_stats)
    if (auto* st = stats::of(eng_)) st->ff_apply(d2_reg_, k_done);
  for (std::size_t i = 0; i < c_.res.size(); ++i) {
    const sim::SimDuration db = c_.busy[i] - b_.busy[i];
    const double du = c_.units[i] - b_.units[i];
    if (db != 0 || du != 0.0)
      c_.res[i]->fast_forward(db * static_cast<sim::SimDuration>(k_done),
                              du * static_cast<double>(k_done));
  }
  if (c_.have_audit && au != nullptr) au->ff_cpu_apply(d2_cpu_, k_done);
  for (std::size_t i = 0; i < usage_objs_.size(); ++i)
    for (std::size_t cat = 0; cat < metrics::kCpuCategoryCount; ++cat) {
      const std::size_t f = i * metrics::kCpuCategoryCount + cat;
      const sim::SimDuration d = c_.usage[f] - b_.usage[f];
      if (d != 0)
        usage_objs_[i]->add(static_cast<metrics::CpuCategory>(cat),
                            d * static_cast<sim::SimDuration>(k_done));
    }
  sess_.control_msgs_ += (c_.control_msgs - b_.control_msgs) * k_done;
  sess_.grant_seq_ += (c_.grant_seq - b_.grant_seq) * k_done;
  for (std::size_t i = 0; i < sess_.streams_.size(); ++i)
    sess_.streams_[i]->next_wr += (c_.next_wr[i] - b_.next_wr[i]) * k_done;

  const sim::SimDuration span =
      static_cast<sim::SimDuration>(k_done) * period_ns;
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
        take_snapshot(a_);
        arm_drain_ = n;
        state_ = State::kArmedB;
      }
      break;
    case State::kArmedB:
      if (n == arm_drain_ + period_) {
        take_snapshot(b_);
        state_ = State::kArmedC;
      }
      break;
    case State::kArmedC:
      if (n == arm_drain_ + 2 * period_) {
        take_snapshot(c_);
        collapse();
      }
      break;
  }
}

}  // namespace e2e::rftp
