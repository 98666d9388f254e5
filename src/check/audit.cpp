#include "check/audit.hpp"


#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iterator>
#include <ostream>
#include <sstream>
#include <utility>

#include "fault/integrity.hpp"
#include "sim/resource.hpp"

namespace e2e::check {

namespace {

constexpr obs::Incident kViolation{.trace_counter = "check/violations",
                                   .dump = "audit"};

std::string ptr_tag(std::string_view prefix, const void* p) {
  std::ostringstream os;
  os << prefix << '@' << p;
  return os.str();
}

const char* token_state_name(int s) {
  switch (s) {
    case 0: return "receiver";
    case 1: return "grant-in-flight";
    case 2: return "sender-held";
    case 3: return "on-wire";
  }
  return "?";
}

/// Accumulated doubles diverge from the audited running sum by rounding
/// (the resource's accumulator may be large when the auditor installs), so
/// unit totals compare with a relative tolerance; time totals are integers
/// and compare exactly.
bool units_close(double a, double b) {
  const double scale = std::max({1.0, std::fabs(a), std::fabs(b)});
  return std::fabs(a - b) <= 1e-6 * scale;
}

}  // namespace

Auditor::Auditor(sim::Engine& eng, Policy policy)
    : eng_(eng), policy_(policy) {
  if (eng_.observer(kAudit) != nullptr)
    throw std::logic_error("an auditor is already installed");
  // Baseline every live resource so a mid-run install audits only the
  // service it actually observes.
  for (sim::Resource* r : eng_.resources()) {
    ResourceState& s = resource_state(*r);
    s.base_busy = r->busy_time();
    s.base_units = r->units_served();
    s.last_end = 0;  // windows before install are unobserved, not overlaps
  }
  eng_.set_observer(kAudit, this);
}

Auditor::~Auditor() {
  if (eng_.observer(kAudit) == this) eng_.set_observer(kAudit, nullptr);
}

void Auditor::violate(std::string_view rule, std::string detail) {
  Violation v{std::string(rule), std::move(detail), eng_.now()};
  if (log_)
    std::fprintf(stderr, "[audit] t=%llu ns  %s: %s\n",
                 static_cast<unsigned long long>(v.when), v.rule.c_str(),
                 v.detail.c_str());
  // Violations surface in the trace too (lazily: zero-violation runs emit
  // nothing, keeping audited traces byte-identical to unaudited ones). An
  // invariant break is exactly what the flight recorder exists for: dump
  // the window of records leading up to it (first violation only —
  // trigger_flight_dump latches).
  obs_.report(eng_, kViolation, violation_, {.event = v.rule});
  violations_.push_back(std::move(v));
}

// --- resources ---

Auditor::ResourceState& Auditor::resource_state(const sim::Resource& r) {
  auto it = resource_index_.find(&r);
  if (it != resource_index_.end()) return resources_[it->second];
  resource_index_.emplace(&r, resources_.size());
  ResourceState s;
  s.res = &r;
  s.name = r.name().empty() ? ptr_tag("resource", &r) : r.name();
  resources_.push_back(std::move(s));
  return resources_.back();
}

void Auditor::on_resource_service(const sim::Resource& r, sim::SimTime start,
                                  sim::SimTime end, double units) {
  ResourceState& s = resource_state(r);
  if (start < s.last_end)
    violate("resource.window-overlap",
            s.name + ": service window starts at " + std::to_string(start) +
                " inside the previous window ending at " +
                std::to_string(s.last_end));
  if (end < start)
    violate("resource.window-inverted",
            s.name + ": window ends before it starts");
  if (units < 0.0)
    violate("resource.negative-units",
            s.name + ": served " + std::to_string(units) + " units");
  s.last_end = std::max(s.last_end, end);
  s.sum_busy += end - start;
  s.sum_units += units;
}

void Auditor::on_resource_replan(const sim::Resource& r,
                                 sim::SimTime old_busy_until,
                                 sim::SimTime new_busy_until) {
  ResourceState& s = resource_state(r);
  // Mirror set_rate()'s busy_ns_ adjustment exactly (same +=/-= sequence,
  // so the equality check tracks even through unsigned wrap when the
  // auditor installed mid-backlog).
  const sim::SimTime now = eng_.now();
  s.sum_busy += new_busy_until - now;
  s.sum_busy -= old_busy_until - now;
  s.last_end = new_busy_until;
}

void Auditor::reconcile_resource(const ResourceState& s) {
  const sim::SimDuration busy =
      s.live ? s.res->busy_time() : s.end_busy;
  const double units = s.live ? s.res->units_served() : s.end_units;
  const sim::SimTime busy_until =
      s.live ? s.res->busy_until() : s.end_busy_until;
  if (s.sum_busy != busy - s.base_busy)
    violate("resource.busy-accounting",
            s.name + ": observed " + std::to_string(s.sum_busy) +
                " ns of service but busy_time() advanced by " +
                std::to_string(busy - s.base_busy) + " ns");
  if (!units_close(s.sum_units, units - s.base_units))
    violate("resource.units-accounting",
            s.name + ": observed " + std::to_string(s.sum_units) +
                " units served but units_served() advanced by " +
                std::to_string(units - s.base_units));
  // Utilization can never exceed 1: all busy time fits in [0, busy_until],
  // and once the queue has drained it fits in elapsed time. Analytically
  // fast-forwarded service has no event-clock window — it models work done
  // inside skipped virtual time — so both ceilings widen by the skip.
  if (busy_until != sim::kTimeInfinity &&
      busy > sim::Engine::saturating_add(busy_until, skipped_))
    violate("resource.utilization",
            s.name + ": busy_time " + std::to_string(busy) +
                " ns exceeds drain time " + std::to_string(busy_until) +
                " + skipped " + std::to_string(skipped_));
  const sim::SimTime elapsed = eng_.virtual_now();
  if (s.live && eng_.now() >= busy_until && busy > elapsed)
    violate("resource.utilization",
            s.name + ": busy_time " + std::to_string(busy) +
                " ns exceeds elapsed time " + std::to_string(elapsed));
}

void Auditor::on_resource_fast_forward(const sim::Resource& r,
                                       sim::SimDuration busy_delta,
                                       double units_delta) {
  ResourceState& s = resource_state(r);
  // No service window: last_end is untouched (overlap checks only apply to
  // event-exact FIFO windows), only the conservation sums advance.
  s.sum_busy += busy_delta;
  s.sum_units += units_delta;
}

void Auditor::on_resource_destroyed(const sim::Resource& r) {
  auto it = resource_index_.find(&r);
  if (it == resource_index_.end()) return;
  ResourceState& s = resources_[it->second];
  s.end_busy = r.busy_time();
  s.end_units = r.units_served();
  s.end_busy_until = r.busy_until();
  s.live = false;
  s.res = nullptr;
  reconcile_resource(s);
  // Forget the address: if the allocator reuses it, that is a new resource.
  resource_index_.erase(it);
  core_index_.erase(&r);
}

// --- CPU ---

void Auditor::on_cpu_charge(const sim::Resource* core_cycles,
                            metrics::CpuCategory cat, sim::SimDuration ns) {
  auto it = core_index_.find(core_cycles);
  std::size_t idx;
  if (it == core_index_.end()) {
    resource_state(*core_cycles);  // ensure the cycle server is tracked
    idx = cores_.size();
    core_index_.emplace(core_cycles, idx);
    CoreState cs;
    cs.res_idx = resource_index_.at(core_cycles);
    cores_.emplace_back(core_cycles, cs);
  } else {
    idx = it->second;
  }
  cores_[idx].second.accounted[static_cast<std::size_t>(cat)] += ns;
}

// --- QP ledger ---

namespace {
std::string qp_label(const void* qp, std::string_view who) {
  std::string s(who);
  s += '/';
  std::ostringstream os;
  os << qp;
  s += os.str();
  return s;
}
}  // namespace

Auditor::QpLedger& Auditor::qp_ledger(const void* rx_qp,
                                      std::string_view who) {
  auto it = qp_index_.find(rx_qp);
  if (it != qp_index_.end()) return qps_[it->second].second;
  qp_index_.emplace(rx_qp, qps_.size());
  qps_.emplace_back(rx_qp, QpLedger{qp_label(rx_qp, who), 0, 0, 0, 0});
  return qps_.back().second;
}

void Auditor::on_qp_tx(const void* rx_qp, std::string_view who,
                       std::uint64_t bytes) {
  qp_ledger(rx_qp, who).tx += bytes;
}

void Auditor::on_qp_rx(const void* rx_qp, std::string_view who,
                       std::uint64_t bytes) {
  qp_ledger(rx_qp, who).rx += bytes;
}

void Auditor::on_qp_drop(const void* rx_qp, std::string_view who,
                         std::uint64_t bytes) {
  qp_ledger(rx_qp, who).dropped += bytes;
}

void Auditor::on_qp_post_dead(const void* qp, std::string_view who) {
  qp_ledger(qp, who).posts_on_dead += 1;
}

void Auditor::merge_qp_ledgers(const std::vector<Auditor*>& shards) {
  // First auditor (in shard-rank order) to know a QP key owns the merged
  // ledger; later shards' halves fold in and zero out, so conservation is
  // checked once per flow, against whole-flow totals.
  std::unordered_map<const void*, QpLedger*> owner;
  for (Auditor* a : shards) {
    for (auto& [qp, l] : a->qps_) {
      auto [it, fresh] = owner.emplace(qp, &l);
      if (fresh) continue;
      QpLedger& dst = *it->second;
      dst.tx += l.tx;
      dst.rx += l.rx;
      dst.dropped += l.dropped;
      dst.posts_on_dead += l.posts_on_dead;
      l = QpLedger{l.who, 0, 0, 0, 0};
    }
  }
}

void Auditor::on_dma_check(const void* qp, std::string_view who,
                           bool registered, std::string_view what) {
  if (registered) return;
  violate("rdma.unregistered-mr",
          qp_label(qp, who) + ": DMA through a deregistered MR (" +
              std::string(what) + ")");
}

// --- flows ---

void Auditor::flow_in(const void* id, std::string_view name,
                      std::uint64_t bytes) {
  flow(id, name).in += bytes;
}

void Auditor::flow_out(const void* id, std::string_view name,
                       std::uint64_t bytes) {
  Flow& f = flow(id, name);
  f.out += bytes;
  if (f.out > f.in && !f.over_reported) {
    f.over_reported = true;
    violate("flow.over-delivery",
            f.name + ": delivered " + std::to_string(f.out) +
                " bytes but only " + std::to_string(f.in) +
                " entered the flow");
  }
}

Auditor::Flow& Auditor::flow(const void* id, std::string_view name) {
  std::string key = ptr_tag(name, id);
  auto it = flow_index_.find(key);
  if (it != flow_index_.end()) return flows_[it->second];
  flow_index_.emplace(std::move(key), flows_.size());
  Flow f;
  f.name = ptr_tag(name, id);
  flows_.push_back(std::move(f));
  return flows_.back();
}

// --- RFTP ---

Auditor::RftpAudit* Auditor::rftp_find(const void* sess, const char* site) {
  auto it = rftp_index_.find(sess);
  if (it != rftp_index_.end()) return &rftp_[it->second];
  violate("rftp.unknown-session",
          ptr_tag("session", sess) + ": " + site + " before rftp_begin");
  return nullptr;
}

Auditor::StreamAudit* Auditor::rftp_stream(const void* sess, int stream,
                                           const char* site) {
  RftpAudit* a = rftp_find(sess, site);
  if (a == nullptr) return nullptr;
  if (stream < 0 || static_cast<std::size_t>(stream) >= a->streams.size()) {
    violate("rftp.unknown-stream", a->tag + ": " + site + " on stream " +
                                       std::to_string(stream));
    return nullptr;
  }
  return &a->streams[static_cast<std::size_t>(stream)];
}

void Auditor::rftp_begin(const void* sess, std::uint64_t total_bytes,
                         std::uint64_t block_bytes, std::uint64_t block_count,
                         int streams) {
  auto it = rftp_index_.find(sess);
  if (it != rftp_index_.end()) {
    // A session object re-running a transfer starts a fresh audit epoch.
    rftp_[it->second] = RftpAudit{};
    rftp_index_.erase(it);
  }
  rftp_index_.emplace(sess, rftp_.size());
  RftpAudit a;
  a.tag = ptr_tag("rftp", sess);
  a.total_bytes = total_bytes;
  a.block_bytes = block_bytes;
  a.block_count = block_count;
  a.streams.resize(static_cast<std::size_t>(streams));
  a.blocks.resize(block_count);
  rftp_.push_back(std::move(a));
}

void Auditor::rftp_fill(const void* sess, std::uint64_t block_idx,
                        std::uint64_t bytes) {
  RftpAudit* a = rftp_find(sess, "fill");
  if (a == nullptr) return;
  if (block_idx >= a->block_count) {
    violate("rftp.block-out-of-range",
            a->tag + ": filled block " + std::to_string(block_idx) + " of " +
                std::to_string(a->block_count));
    return;
  }
  BlockAudit& b = a->blocks[block_idx];
  ++b.fills;
  b.fill_bytes = bytes;
}

void Auditor::rftp_grant_sent(const void* sess, int stream,
                              std::uint32_t token) {
  StreamAudit* s = rftp_stream(sess, stream, "grant");
  if (s == nullptr) return;
  if (s->tokens.size() <= token) s->tokens.resize(token + 1);
  ++s->granted;
  if (s->dead) return;
  TokenState& t = s->tokens[token];
  if (t != TokenState::kReceiver && t != TokenState::kGrantInFlight) {
    violate("rftp.credit-double-grant",
            rftp_find(sess, "grant")->tag + ": stream " +
                std::to_string(stream) + " granted token " +
                std::to_string(token) + " while it is " +
                token_state_name(static_cast<int>(t)));
    return;
  }
  t = TokenState::kGrantInFlight;
}

void Auditor::rftp_grant_lost(const void* sess, int stream,
                              std::uint32_t token) {
  StreamAudit* s = rftp_stream(sess, stream, "grant-lost");
  if (s == nullptr) return;
  if (s->tokens.size() <= token) s->tokens.resize(token + 1);
  ++s->grant_losses;
  if (s->dead) return;
  if (s->tokens[token] != TokenState::kGrantInFlight)
    violate("rftp.grant-lost-state",
            rftp_find(sess, "grant-lost")->tag + ": stream " +
                std::to_string(stream) + " lost a grant for token " +
                std::to_string(token) + " that is " +
                token_state_name(static_cast<int>(s->tokens[token])));
}

void Auditor::rftp_credit_received(const void* sess, int stream,
                                   std::uint32_t token) {
  StreamAudit* s = rftp_stream(sess, stream, "credit-received");
  if (s == nullptr) return;
  if (s->tokens.size() <= token) s->tokens.resize(token + 1);
  ++s->received;
  if (s->dead) return;
  TokenState& t = s->tokens[token];
  if (t != TokenState::kGrantInFlight) {
    violate("rftp.credit-duplicated",
            rftp_find(sess, "credit-received")->tag + ": stream " +
                std::to_string(stream) + " received a credit for token " +
                std::to_string(token) + " that is " +
                token_state_name(static_cast<int>(t)));
    return;
  }
  t = TokenState::kSenderHeld;
}

void Auditor::rftp_credit_consumed(const void* sess, int stream,
                                   std::uint32_t token) {
  StreamAudit* s = rftp_stream(sess, stream, "credit-consumed");
  if (s == nullptr) return;
  if (s->tokens.size() <= token) s->tokens.resize(token + 1);
  ++s->consumed;
  if (s->dead) return;
  TokenState& t = s->tokens[token];
  if (t != TokenState::kSenderHeld) {
    violate("rftp.credit-not-held",
            rftp_find(sess, "credit-consumed")->tag + ": stream " +
                std::to_string(stream) + " consumed token " +
                std::to_string(token) + " while it is " +
                token_state_name(static_cast<int>(t)));
    return;
  }
  t = TokenState::kOnWire;
}

void Auditor::rftp_drain(const void* sess, int stream, std::uint32_t token,
                         std::uint64_t block_idx, std::uint64_t bytes,
                         std::uint64_t landed_tag, bool duplicate,
                         bool checksum_ok) {
  RftpAudit* a = rftp_find(sess, "drain");
  if (a == nullptr) return;
  StreamAudit* s = rftp_stream(sess, stream, "drain");
  if (s != nullptr) {
    if (s->tokens.size() <= token) s->tokens.resize(token + 1);
    if (!s->dead) {
      TokenState& t = s->tokens[token];
      if (t != TokenState::kOnWire)
        violate("rftp.phantom-block",
                a->tag + ": stream " + std::to_string(stream) +
                    " drained a block on token " + std::to_string(token) +
                    " that is " + token_state_name(static_cast<int>(t)) +
                    ", not on-wire");
      // Any drain (fresh, duplicate, or rejected) returns the token to the
      // receiver; the following re-grant starts the next cycle.
      t = TokenState::kReceiver;
    }
  }
  if (block_idx >= a->block_count) {
    violate("rftp.block-out-of-range",
            a->tag + ": drained block " + std::to_string(block_idx) + " of " +
                std::to_string(a->block_count));
    return;
  }
  BlockAudit& b = a->blocks[block_idx];
  if (duplicate) {
    ++a->dup_drains;
    if (!b.drained)
      violate("rftp.false-duplicate",
              a->tag + ": block " + std::to_string(block_idx) +
                  " flagged duplicate but was never drained");
    return;
  }
  if (!checksum_ok) {
    ++a->checksum_rejects;
    return;
  }
  ++a->fresh_drains;
  if (b.drained) {
    violate("rftp.double-drain",
            a->tag + ": block " + std::to_string(block_idx) +
                " drained twice as fresh");
    return;
  }
  if (b.fills == 0)
    violate("rftp.drain-without-fill",
            a->tag + ": block " + std::to_string(block_idx) +
                " reached the sink without a source fill");
  else if (b.fill_bytes != bytes)
    violate("rftp.byte-conservation",
            a->tag + ": block " + std::to_string(block_idx) + " filled " +
                std::to_string(b.fill_bytes) + " bytes but drained " +
                std::to_string(bytes));
  // Independent integrity check: the landed tag must be the analytic tag
  // of this block, regardless of what the header claimed.
  if (landed_tag != fault::rftp_block_tag(block_idx, bytes))
    violate("rftp.integrity-tag",
            a->tag + ": block " + std::to_string(block_idx) +
                " landed with tag " + std::to_string(landed_tag) +
                ", expected " +
                std::to_string(fault::rftp_block_tag(block_idx, bytes)));
  b.drained = true;
  a->delivered += bytes;
  a->digest ^= landed_tag;
}

void Auditor::rftp_stream_dead(const void* sess, int stream) {
  StreamAudit* s = rftp_stream(sess, stream, "stream-dead");
  if (s != nullptr) s->dead = true;
}

void Auditor::rftp_checkpoint(const void* sess, const sim::RunSet& ledger) {
  RftpAudit* a = rftp_find(sess, "checkpoint");
  if (a == nullptr) return;
  const std::uint64_t end = ledger.empty() ? 0 : std::prev(ledger.end())->hi;
  if (end > a->block_count) {
    violate("rftp.ledger-size",
            a->tag + ": checkpoint persists block " + std::to_string(end - 1) +
                " of " + std::to_string(a->block_count));
    return;
  }
  // Durability may only be claimed for blocks the audit saw drain. Blocks
  // already ledgered were checked when they entered.
  ledger.for_each_difference(
      a->ledgered, [&](std::uint64_t lo, std::uint64_t hi) {
        for (std::uint64_t i = lo; i < hi; ++i)
          if (!a->blocks[i].drained)
            violate("rftp.ledger-unacked",
                    a->tag + ": checkpoint persists block " +
                        std::to_string(i) + " that never drained");
      });
  a->ledgered = ledger;
}

void Auditor::rftp_crash(const void* sess, int host) {
  RftpAudit* a = rftp_find(sess, "crash");
  if (a == nullptr) return;
  ++a->crashes;
  if (a->crashes > a->resumes + 1)
    violate("rftp.nested-crash",
            a->tag + ": host " + std::to_string(host) +
                " crashed while a prior crash had not resumed");
  for (StreamAudit& s : a->streams) s.dead = true;
}

void Auditor::rftp_rollback(const void* sess, std::uint64_t block_idx,
                            std::uint64_t bytes, std::uint64_t tag) {
  RftpAudit* a = rftp_find(sess, "rollback");
  if (a == nullptr) return;
  if (block_idx >= a->block_count) {
    violate("rftp.block-out-of-range",
            a->tag + ": rolled back block " + std::to_string(block_idx) +
                " of " + std::to_string(a->block_count));
    return;
  }
  BlockAudit& b = a->blocks[block_idx];
  if (!b.drained) {
    violate("rftp.rollback-not-drained",
            a->tag + ": block " + std::to_string(block_idx) +
                " rolled back but was never drained");
    return;
  }
  if (a->ledgered.contains(block_idx)) {
    // A durably acked block may never be re-sent: rolling it back would
    // double-count its bytes as goodput when it drains again.
    violate("rftp.rollback-ledgered",
            a->tag + ": block " + std::to_string(block_idx) +
                " rolled back despite a durable ledger entry");
    return;
  }
  b.drained = false;
  a->delivered -= bytes;
  a->digest ^= tag;
  ++a->rollbacks;
}

void Auditor::rftp_stream_revived(const void* sess, int stream) {
  StreamAudit* s = rftp_stream(sess, stream, "stream-revived");
  if (s == nullptr) return;
  s->dead = false;
  // Re-login hands every token back to the receiver; the session's full
  // re-grant follows and walks them through the normal cycle again.
  for (TokenState& t : s->tokens) t = TokenState::kReceiver;
}

void Auditor::rftp_resume(const void* sess) {
  RftpAudit* a = rftp_find(sess, "resume");
  if (a == nullptr) return;
  ++a->resumes;
  if (a->resumes > a->crashes)
    violate("rftp.resume-without-crash",
            a->tag + ": resume #" + std::to_string(a->resumes) +
                " with only " + std::to_string(a->crashes) + " crash(es)");
}

void Auditor::rftp_fast_forward_drains(const void* sess,
                                       const std::uint64_t* idx,
                                       std::size_t n, std::uint64_t bytes) {
  RftpAudit* a = rftp_find(sess, "fast-forward-drain");
  if (a == nullptr) return;
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t block_idx = idx[i];
    if (block_idx >= a->block_count) {
      violate("rftp.block-out-of-range",
              a->tag + ": fast-forwarded block " + std::to_string(block_idx) +
                  " of " + std::to_string(a->block_count));
      continue;
    }
    BlockAudit& b = a->blocks[block_idx];
    if (b.drained) {
      violate("rftp.double-drain",
              a->tag + ": block " + std::to_string(block_idx) +
                  " fast-forwarded but already drained");
      continue;
    }
    if (b.fills == 0) b.fills = 1;
    b.fill_bytes = bytes;
    b.drained = true;
    ++a->fresh_drains;
    a->delivered += bytes;
    a->digest ^= fault::rftp_block_tag(block_idx, bytes);
  }
}

void Auditor::ff_cpu_cores(std::vector<const sim::Resource*>& out) const {
  out.clear();
  out.reserve(cores_.size());
  for (const auto& [res, cs] : cores_) out.push_back(res);
}

void Auditor::ff_cpu_snapshot(std::vector<sim::SimDuration>& out) const {
  out.clear();
  out.reserve(cores_.size() * metrics::kCpuCategoryCount);
  for (const auto& [res, cs] : cores_)
    for (std::size_t c = 0; c < metrics::kCpuCategoryCount; ++c)
      out.push_back(cs.accounted[c]);
}

bool Auditor::ff_cpu_apply(const std::vector<sim::SimDuration>& delta,
                           std::uint64_t k) {
  if (delta.size() != cores_.size() * metrics::kCpuCategoryCount)
    return false;
  std::size_t i = 0;
  for (auto& [res, cs] : cores_)
    for (std::size_t c = 0; c < metrics::kCpuCategoryCount; ++c)
      cs.accounted[c] += delta[i++] * static_cast<sim::SimDuration>(k);
  return true;
}

void Auditor::rftp_end(const void* sess, bool complete,
                       std::uint64_t delivered_bytes,
                       std::uint64_t sink_digest) {
  RftpAudit* a = rftp_find(sess, "end");
  if (a == nullptr) return;
  a->ended = true;
  a->complete = complete;
  if (a->delivered != delivered_bytes)
    violate("rftp.delivered-bytes",
            a->tag + ": session counted " + std::to_string(delivered_bytes) +
                " delivered bytes, audit counted " +
                std::to_string(a->delivered));
  if (a->digest != sink_digest)
    violate("rftp.sink-digest",
            a->tag + ": session digest " + std::to_string(sink_digest) +
                " != audited digest " + std::to_string(a->digest));
  if (complete) {
    // Exactly-once across crash epochs: every block drains fresh once,
    // plus exactly one extra drain per crash rollback.
    if (a->fresh_drains != a->block_count + a->rollbacks)
      violate("rftp.missing-blocks",
              a->tag + ": transfer completed with " +
                  std::to_string(a->fresh_drains) + " fresh drains for " +
                  std::to_string(a->block_count) + " blocks + " +
                  std::to_string(a->rollbacks) + " rollbacks");
    if (a->delivered != a->total_bytes)
      violate("rftp.byte-conservation",
              a->tag + ": transfer completed with " +
                  std::to_string(a->delivered) + " of " +
                  std::to_string(a->total_bytes) + " bytes delivered");
    // Analytic end-to-end digest: XOR of every block's coordinate tag.
    std::uint64_t expect = 0;
    for (std::uint64_t i = 0; i < a->block_count; ++i)
      expect ^= fault::rftp_block_tag(
          i, std::min<std::uint64_t>(a->block_bytes,
                                     a->total_bytes - i * a->block_bytes));
    if (a->digest != expect)
      violate("rftp.analytic-digest",
              a->tag + ": audited digest " + std::to_string(a->digest) +
                  " != analytic digest " + std::to_string(expect));
  }
}

// --- finalize / report ---

void Auditor::finalize() {
  for (const ResourceState& s : resources_)
    if (s.live) reconcile_resource(s);
  for (const auto& [res, cs] : cores_) {
    const ResourceState& rs = resources_[cs.res_idx];
    if (cs.total() != rs.sum_busy)
      violate("cpu.unaccounted-time",
              rs.name + ": " + std::to_string(rs.sum_busy) +
                  " ns of cycle service but " + std::to_string(cs.total()) +
                  " ns accounted across CPU categories");
  }
  for (const auto& [qp, l] : qps_) {
    if (l.rx + l.dropped != l.tx)
      violate("rdma.byte-ledger",
              l.who + ": " + std::to_string(l.tx) + " bytes sent but " +
                  std::to_string(l.rx) + " delivered + " +
                  std::to_string(l.dropped) + " dropped");
  }
  for (const Flow& f : flows_)
    if (f.out > f.in && !f.over_reported)
      violate("flow.over-delivery",
              f.name + ": delivered " + std::to_string(f.out) +
                  " bytes but only " + std::to_string(f.in) + " entered");
  for (const RftpAudit& a : rftp_) {
    if (!a.ended) continue;  // run() still in flight; nothing to settle yet
    for (std::size_t si = 0; si < a.streams.size(); ++si) {
      const StreamAudit& s = a.streams[si];
      if (s.received > s.granted)
        violate("rftp.credit-conservation",
                a.tag + ": stream " + std::to_string(si) + " received " +
                    std::to_string(s.received) + " credits but only " +
                    std::to_string(s.granted) + " were granted");
      if (s.consumed > s.received)
        violate("rftp.credit-conservation",
                a.tag + ": stream " + std::to_string(si) + " consumed " +
                    std::to_string(s.consumed) + " credits but only " +
                    std::to_string(s.received) + " were received");
      if (s.dead || !a.complete) continue;
      // On a completed transfer every live stream's tokens must be back in
      // the grant cycle; a token stuck on-wire is a leaked credit.
      for (std::size_t t = 0; t < s.tokens.size(); ++t)
        if (s.tokens[t] == TokenState::kOnWire)
          violate("rftp.credit-leak",
                  a.tag + ": stream " + std::to_string(si) + " token " +
                      std::to_string(t) +
                      " still on-wire after the transfer completed");
    }
  }
  if (policy_ == Policy::kAbortOnFinalize && !violations_.empty()) {
    std::ostringstream os;
    report(os);
    throw AuditFailure(os.str());
  }
}

void Auditor::report(std::ostream& os) const {
  if (violations_.empty()) {
    os << "audit: no violations (" << resources_.size() << " resources, "
       << cores_.size() << " cores, " << qps_.size() << " QP flows, "
       << flows_.size() << " byte flows, " << rftp_.size()
       << " rftp sessions audited)\n";
    return;
  }
  os << "audit: " << violations_.size() << " violation(s)\n";
  for (const Violation& v : violations_)
    os << "  t=" << v.when << "ns  " << v.rule << ": " << v.detail << "\n";
}

}  // namespace e2e::check
