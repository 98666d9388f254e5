// Cross-layer invariant auditing (e2e::check).
//
// The simulation's headline numbers rest on conservation laws the code
// never checked at run time: bytes that leave a source must reach the sink
// exactly once, a Resource can never be more than 100% busy, RFTP credits
// must survive failover without leaking, DMA must only touch registered
// memory, and every nanosecond of CPU charged to a core must be accounted
// to a metrics::CpuCategory. The Auditor observes all of these live.
//
// Wiring mirrors the tracing layer: the Auditor sits in the engine's
// kAudit observer slot (sim::Observer), and instrumented call sites do
//
//   if (auto* au = check::of(eng)) au->on_...(...);
//
// so a disabled audit costs one pointer load per site. The Auditor only
// observes — it never schedules events or mutates audited state — so an
// installed auditor cannot perturb the simulated timeline: audited runs are
// byte-identical in trace output to unaudited runs (violations aside).
//
// Violations are collected with simulated-time context (and surfaced as
// trace instants on the "check/violations" track when a tracer is
// installed). Policy::kAbortOnFinalize turns any violation into an
// AuditFailure thrown from finalize(); the default collects so tests can
// assert on ok()/violations().
//
// Audits are on in Debug builds of the CLI tools and in the chaos test
// suite; Release runs opt in via --audit.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <stdexcept>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "metrics/cpu_usage.hpp"
#include "obs/probe.hpp"
#include "sim/engine.hpp"
#include "sim/period_marks.hpp"
#include "sim/run_set.hpp"
#include "sim/time.hpp"

namespace e2e::check {

/// One invariant breach: a stable rule id (e.g. "rftp.credit-leak"), a
/// human-readable detail line, and the simulated time it was detected.
struct Violation {
  std::string rule;
  std::string detail;
  sim::SimTime when = 0;
};

class AuditFailure : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

enum class Policy {
  kCollect,          // record violations; inspect via ok()/violations()
  kAbortOnFinalize,  // finalize() throws AuditFailure when violations exist
};

class Auditor final : public sim::Observer {
 public:
  /// Installs itself in the engine's kAudit slot and snapshots the counters
  /// of every already-registered Resource (so mid-run installation audits
  /// only what it observed). Throws if an auditor is already installed.
  explicit Auditor(sim::Engine& eng, Policy policy = Policy::kCollect);
  ~Auditor() override;
  Auditor(const Auditor&) = delete;
  Auditor& operator=(const Auditor&) = delete;

  // --- sim::Observer (called by sim::Resource and the engine) ---
  void on_resource_service(const sim::Resource& r, sim::SimTime start,
                           sim::SimTime end, double units) override;
  void on_resource_destroyed(const sim::Resource& r) override;
  /// Analytic service booked by Resource::ff_advance: fold the deltas
  /// into the running sums so the exact busy-time reconciliation holds on
  /// fast-forwarded runs.
  void on_resource_fast_forward(const sim::Resource& r,
                                sim::SimDuration busy_delta,
                                double units_delta) override;
  /// Modeled time skipped without events: widens the utilization ceilings
  /// (busy time accrued analytically has no event-clock span to sit in).
  void on_time_skip(sim::SimDuration d) override { skipped_ += d; }
  /// The fast-forward contract folds the per-core accounted[category]
  /// arrays (integer nanoseconds; per-resource sums fold through
  /// on_resource_fast_forward). finalize() cross-checks each core's
  /// accounted total against its cycle server to the nanosecond, so a
  /// period in which the two moved apart by any amount does not repeat.
  void ff_mark() override;
  [[nodiscard]] bool ff_repeats() const override { return ff_.repeats(); }
  void ff_advance(std::uint64_t k) override;

  // --- CPU accounting (called by numa::Thread) ---

  /// `ns` of category `cat` accounted against the core whose cycle
  /// Resource is `core_cycles`. The charge has already landed on the
  /// resource when this is called.
  void on_cpu_charge(const sim::Resource* core_cycles,
                     metrics::CpuCategory cat, sim::SimDuration ns);

  // --- QP byte ledger (called by rdma::QueuePair) ---
  //
  // Keyed by the *receiving* QP of each transfer so the sender's successful
  // completions and the receiver's deliveries/drops reconcile per flow
  // direction. RDMA READ is excluded (its bytes complete at the requester
  // and never cross the receiver loop).

  /// A WR's payload left the sender successfully (a successful CQE was
  /// pushed and delivery to `rx_qp` was scheduled).
  void on_qp_tx(const void* rx_qp, std::string_view who, std::uint64_t bytes);
  /// A delivery landed at `rx_qp` (DMA booked, CQE/deposit done).
  void on_qp_rx(const void* rx_qp, std::string_view who, std::uint64_t bytes);
  /// `rx_qp` dropped an inbound delivery because it is in the error state.
  void on_qp_drop(const void* rx_qp, std::string_view who,
                  std::uint64_t bytes);
  /// A WR was posted to a QP already in the error state (legal — it
  /// flushes immediately with a failed completion; counted so the ledger
  /// can prove none of them transmitted).
  void on_qp_post_dead(const void* qp, std::string_view who);
  /// MR legality at a DMA touch point: `registered` must be true.
  void on_dma_check(const void* qp, std::string_view who, bool registered,
                    std::string_view what);

  // --- generic byte-flow ledger (tcp/iscsi/iser) ---
  //
  // A flow is identified by (id, name); `out` must never exceed `in`
  // (drops are legal, duplication/creation of bytes is not).
  void flow_in(const void* id, std::string_view name, std::uint64_t bytes);
  void flow_out(const void* id, std::string_view name, std::uint64_t bytes);

  // --- RFTP credit + block conservation (called by rftp::RftpSession) ---

  void rftp_begin(const void* sess, std::uint64_t total_bytes,
                  std::uint64_t block_bytes, std::uint64_t block_count,
                  int streams);
  /// A filler staged `bytes` of block `block_idx` from the source.
  void rftp_fill(const void* sess, std::uint64_t block_idx,
                 std::uint64_t bytes);
  /// The receiver sent (or re-sent) the grant for `token` on `stream`.
  void rftp_grant_sent(const void* sess, int stream, std::uint32_t token);
  /// The grant send for `token` failed on the wire (credit would leak
  /// without the reaper's re-send).
  void rftp_grant_lost(const void* sess, int stream, std::uint32_t token);
  /// The sender received the grant and queued the credit.
  void rftp_credit_received(const void* sess, int stream, std::uint32_t token);
  /// The sender consumed the credit: a block is now bound for `token`.
  void rftp_credit_consumed(const void* sess, int stream, std::uint32_t token);
  /// A block landed and was processed by a drainer. `landed_tag` is the
  /// integrity tag lifted from the landing buffer; `checksum_ok` is the
  /// session's own header-vs-landed verdict.
  void rftp_drain(const void* sess, int stream, std::uint32_t token,
                  std::uint64_t block_idx, std::uint64_t bytes,
                  std::uint64_t landed_tag, bool duplicate, bool checksum_ok);
  void rftp_stream_dead(const void* sess, int stream);
  // Crash-epoch hooks: the auditor carries block/credit conservation
  // across crash-stop fault domains (host crash + scripted restart).
  /// The receiver checkpointed its acked-block ledger. `ledger` is the
  /// durable set (acked and persisted); a ledger claiming a block the
  /// audit never saw drain, or one past the transfer, is a violation. Each
  /// block is checked once, when it first enters the ledger.
  void rftp_checkpoint(const void* sess, const sim::RunSet& ledger);
  /// Host `host` (0 = sender, 1 = receiver) crash-stopped: every stream
  /// dies at once; volatile receiver state may roll back next.
  void rftp_crash(const void* sess, int host);
  /// A drained-but-unledgered block was un-drained by a receiver crash.
  /// Rolling back a ledgered (durably acked) block — which would let its
  /// bytes count as goodput twice — is a violation.
  void rftp_rollback(const void* sess, std::uint64_t block_idx,
                     std::uint64_t bytes, std::uint64_t tag);
  /// Stream `stream` came back with the restarted host. Re-login returns
  /// every credit token to the receiver (states reset before the
  /// session's full re-grant).
  void rftp_stream_revived(const void* sess, int stream);
  /// The restart completed: the session resumed the transfer.
  void rftp_resume(const void* sess);
  /// One run of collapsed blocks, [lo, hi), each advanced fill-to-drain
  /// in closed form by a fast-forward span (rftp::FastForward).
  /// Equivalent to a fill + fresh drain of the analytic tag per block:
  /// the block ledger, delivered-byte total, XOR digest and
  /// fresh-drain count advance exactly as an event-exact pass would leave
  /// them. Credit/token counters are deliberately untouched — no grant or
  /// credit message is modeled inside a collapsed span (the in-rotation
  /// tokens keep cycling through the event-exact tail), and all credit
  /// invariants are inequalities that stay valid. The session lookup
  /// and the digest fold (fault::rftp_range_tag) happen once per run.
  void rftp_fast_forward_drains(const void* sess, std::uint64_t lo,
                                std::uint64_t hi, std::uint64_t bytes);
  /// The transfer finished. `delivered_bytes`/`sink_digest` are the
  /// session's own tallies; the auditor reconciles them against its
  /// independently accumulated ledger and the analytic digest.
  void rftp_end(const void* sess, bool complete, std::uint64_t delivered_bytes,
                std::uint64_t sink_digest);

  // --- end-of-run reconciliation ---

  /// Runs every deferred cross-check (resource totals, CPU totals, QP
  /// ledgers, flow ledgers, RFTP credit states). Call after the engine has
  /// drained. Under Policy::kAbortOnFinalize throws AuditFailure when any
  /// violation (deferred or live) was recorded. Idempotent per audit state:
  /// calling twice re-checks against current counters.
  void finalize();

  /// Folds split QP byte ledgers across per-shard auditors before their
  /// finalize() calls. A cross-shard RDMA flow records its tx bytes in the
  /// sender shard's auditor and its rx/dropped bytes in the receiver
  /// shard's — each half alone would (falsely) fail conservation. For every
  /// QP key known to more than one auditor, the counters are folded into
  /// the first auditor (in `shards` order) that saw the key and zeroed in
  /// the rest, so exactly one finalize() checks the whole flow. Shard order
  /// must be the deterministic rank order so violations land identically
  /// on every run.
  static void merge_qp_ledgers(const std::vector<Auditor*>& shards);

  [[nodiscard]] bool ok() const noexcept { return violations_.empty(); }
  [[nodiscard]] const std::vector<Violation>& violations() const noexcept {
    return violations_;
  }
  /// Human-readable summary: violation lines or an "all quiet" note with
  /// the audited-entity counts.
  void report(std::ostream& os) const;

  /// Violations print to stderr as they occur by default; canary tests that
  /// plant deliberate breaches turn this off.
  void set_log(bool on) noexcept { log_ = on; }

 private:
  struct ResourceState {
    const sim::Resource* res = nullptr;  // null once destroyed
    std::string name;
    sim::SimTime last_end = 0;
    double sum_units = 0.0;
    sim::SimDuration sum_busy = 0;
    // Counter snapshots at install (mid-run installs audit the delta).
    double base_units = 0.0;
    sim::SimDuration base_busy = 0;
    bool live = true;
    // Final counter values, captured at destruction for dead resources.
    double end_units = 0.0;
    sim::SimDuration end_busy = 0;
    sim::SimTime end_busy_until = 0;
  };

  struct CoreState {
    std::size_t res_idx = 0;  // index into resources_ for the cycle server
    sim::SimDuration accounted[metrics::kCpuCategoryCount] = {};
    [[nodiscard]] sim::SimDuration total() const noexcept {
      sim::SimDuration s = 0;
      for (auto v : accounted) s += v;
      return s;
    }
  };

  struct QpLedger {
    std::string who;
    std::uint64_t tx = 0;
    std::uint64_t rx = 0;
    std::uint64_t dropped = 0;
    std::uint64_t posts_on_dead = 0;
  };

  struct Flow {
    std::string name;
    std::uint64_t in = 0;
    std::uint64_t out = 0;
    bool over_reported = false;  // one violation per flow, not per byte
  };

  enum class TokenState : std::uint8_t {
    kReceiver,       // token buffer idle at the receiver
    kGrantInFlight,  // grant sent, sender has not acknowledged holding it
    kSenderHeld,     // credit queued/held at the sender
    kOnWire,         // consumed: a data block is bound for the token
  };

  struct StreamAudit {
    bool dead = false;
    std::vector<TokenState> tokens;
    std::uint64_t granted = 0;
    std::uint64_t received = 0;
    std::uint64_t consumed = 0;
    std::uint64_t grant_losses = 0;
  };

  struct BlockAudit {
    std::uint32_t fills = 0;
    std::uint64_t fill_bytes = 0;  // size of the latest fill
    bool drained = false;
  };

  struct RftpAudit {
    std::string tag;  // context label for violation messages
    std::uint64_t total_bytes = 0;
    std::uint64_t block_bytes = 0;
    std::uint64_t block_count = 0;
    std::vector<StreamAudit> streams;
    std::vector<BlockAudit> blocks;
    std::uint64_t delivered = 0;
    std::uint64_t digest = 0;
    std::uint64_t fresh_drains = 0;
    std::uint64_t dup_drains = 0;
    std::uint64_t checksum_rejects = 0;
    // Crash-epoch state: the durable acked set as of the last checkpoint,
    // plus crash/resume/rollback tallies. fresh_drains must equal
    // block_count + rollbacks on a complete transfer — each rolled back
    // block drains exactly once more, never double-counting goodput.
    sim::RunSet ledgered;
    std::uint64_t crashes = 0;
    std::uint64_t resumes = 0;
    std::uint64_t rollbacks = 0;
    bool ended = false;
    bool complete = false;
  };

  void violate(std::string_view rule, std::string detail);
  ResourceState& resource_state(const sim::Resource& r);
  void reconcile_resource(const ResourceState& s);
  QpLedger& qp_ledger(const void* rx_qp, std::string_view who);
  Flow& flow(const void* id, std::string_view name);
  /// The conserved state for ff_ (see sim::PeriodMarks).
  auto ff_fields();
  StreamAudit* rftp_stream(const void* sess, int stream, const char* site);
  RftpAudit* rftp_find(const void* sess, const char* site);

  sim::Engine& eng_;
  Policy policy_;
  bool log_ = true;
  // Violations trace on the shared "check/violations" track.
  obs::Actor obs_{obs::Layer::kApp, obs::named("check/violations"), {}};
  obs::Site violation_;
  sim::SimDuration skipped_ = 0;  // modeled time absorbed by Engine::skip_time
  std::vector<Violation> violations_;

  // Insertion-ordered state with pointer lookup maps: reports and finalize
  // sweeps iterate in first-seen order (deterministic across runs), and a
  // reused heap address after a destruction starts a fresh entry.
  std::vector<ResourceState> resources_;
  std::unordered_map<const sim::Resource*, std::size_t> resource_index_;
  std::vector<std::pair<const sim::Resource*, CoreState>> cores_;
  std::unordered_map<const sim::Resource*, std::size_t> core_index_;
  std::vector<std::pair<const void*, QpLedger>> qps_;
  std::unordered_map<const void*, std::size_t> qp_index_;
  std::vector<Flow> flows_;
  std::unordered_map<std::string, std::size_t> flow_index_;
  std::vector<RftpAudit> rftp_;
  std::unordered_map<const void*, std::size_t> rftp_index_;
  sim::PeriodMarks ff_;
};

/// The installed auditor, or null when auditing is disabled. Only an
/// Auditor is ever installed in the kAudit slot, so the downcast is exact
/// (same contract as trace::of).
[[nodiscard]] inline Auditor* of(sim::Engine& eng) noexcept {
  return static_cast<Auditor*>(eng.observer(sim::Observer::kAudit));
}

}  // namespace e2e::check
