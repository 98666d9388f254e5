// e2e::stats — fleet-grade metrics: per-entity counters/gauges/histograms
// plus an always-on flight recorder.
//
// Where trace/ records *every event* of one transfer and check/ proves
// conservation laws, stats/ answers "what are 10^4 endpoints doing right
// now" at a cost that can stay on permanently: each metric is keyed by
// (entity, name), storage is pooled in deques (stable addresses), and hot
// call sites hold cached handles so the steady-state cost of a counter
// bump or histogram record is a pointer compare plus the arithmetic —
// no hashing, no allocation.
//
// Attachment mirrors the tracer: Registry::install() parks the registry in
// the engine's kStats observer slot; instrumented layers fetch it with
// stats::of(engine), a single pointer load that is null when stats are
// disabled.
//
// Cardinality is bounded: past Config::max_entities, new entities alias to
// the reserved "<overflow>" entity (id 0) instead of growing without
// limit — handles stay valid, determinism is preserved, and
// dropped_entities() reports how much was aggregated away. Aliasing
// (rather than evicting) keeps already-minted handles stable, which the
// cached-handle idiom requires.
//
// The flight recorder is a fixed ring of POD records (time, layer, entity,
// code, arg) fed by the same instrumentation sites. It always runs; it is
// only ever *read* when something goes wrong (an audit violation, a
// terminal fault recovery, a scenario exiting nonzero), at which point
// trigger_flight_dump() prints the last window of records — postmortem
// context at ring-buffer cost.
//
// Determinism: no wall-clock reads, ids in first-use order, insertion-
// ordered iteration everywhere — same-seed runs export byte-identical
// stats files (unit tested).
#pragma once

#include <cstdint>
#include <deque>
#include <iosfwd>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "obs/core.hpp"
#include "sim/engine.hpp"
#include "sim/period_marks.hpp"
#include "sim/time.hpp"
#include "stats/histogram.hpp"

namespace e2e::stats {

using EntityId = std::uint32_t;
using CodeId = std::uint16_t;

/// Monotonic counter. add() is an inlined integer bump.
class Counter {
 public:
  void add(std::uint64_t delta) noexcept { value_ += delta; }
  [[nodiscard]] std::uint64_t value() const noexcept { return value_; }

 private:
  friend class Registry;
  Counter(EntityId entity, std::uint32_t name) : entity_(entity), name_(name) {}
  EntityId entity_;
  std::uint32_t name_;
  std::uint64_t value_ = 0;
};

/// Last-value gauge with running min/max (e.g. a cwnd that shrinks).
class Gauge {
 public:
  void set(double v) noexcept {
    last_ = v;
    if (samples_ == 0) {
      min_ = max_ = v;
    } else {
      if (v < min_) min_ = v;
      if (v > max_) max_ = v;
    }
    ++samples_;
  }
  [[nodiscard]] std::uint64_t samples() const noexcept { return samples_; }

 private:
  friend class Registry;
  Gauge(EntityId entity, std::uint32_t name) : entity_(entity), name_(name) {}
  EntityId entity_;
  std::uint32_t name_;
  double last_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  std::uint64_t samples_ = 0;
};

/// One flight-recorder entry. POD, 24 bytes, written in place in the ring.
struct FlightRecord {
  sim::SimTime t;
  std::uint64_t arg;
  EntityId entity;
  CodeId code;
  std::uint8_t layer;
};
static_assert(sizeof(FlightRecord) <= 24);

struct Config {
  /// Distinct entities before new ones alias to "<overflow>" (id 0).
  std::size_t max_entities = 4096;
  /// Flight-recorder ring size; rounded up to a power of two.
  std::size_t flight_capacity = 4096;
};

class Registry final : public sim::Observer {
 public:
  /// The registry must not outlive `eng` (flight records are stamped with
  /// engine time and destruction uninstalls it).
  explicit Registry(sim::Engine& eng, Config cfg = {});
  ~Registry() override;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// Makes this registry visible to instrumented code via stats::of().
  void install() noexcept { eng_.set_observer(kStats, this); }
  void uninstall() noexcept {
    if (eng_.observer(kStats) == this) eng_.set_observer(kStats, nullptr);
  }

  // --- entities -----------------------------------------------------------
  // An entity is one metered thing (a QP, a stream, a connection),
  // identified by (layer, name). entity() is idempotent per name;
  // mint_entity() appends "#<n>" for a fresh entity per caller, numbered
  // in first-mint order. Past the cardinality cap both return
  // kOverflowEntity and count the drop.

  static constexpr EntityId kOverflowEntity = 0;

  EntityId entity(obs::Layer layer, std::string_view name);
  EntityId mint_entity(obs::Layer layer, std::string_view base);

  [[nodiscard]] std::size_t entity_count() const noexcept {
    return entities_.size();
  }
  [[nodiscard]] std::uint64_t dropped_entities() const noexcept {
    return dropped_entities_;
  }
  [[nodiscard]] const std::string& entity_name(EntityId id) const {
    return entities_.at(id).name;
  }
  [[nodiscard]] obs::Layer entity_layer(EntityId id) const {
    return entities_.at(id).layer;
  }

  // --- metrics ------------------------------------------------------------
  // Created on first use, stable addresses for the registry's lifetime
  // (deque-pooled). Call sites cache the returned reference in an
  // obs::Cached handle so the map probe happens once per site per
  // registry.

  Counter& counter(EntityId entity, std::string_view name);
  Gauge& gauge(EntityId entity, std::string_view name);
  Histogram& histogram(EntityId entity, std::string_view name);

  /// Counter value for (entity, name), 0 if never touched (tests/reports).
  [[nodiscard]] std::uint64_t counter_value(EntityId entity,
                                            std::string_view name) const;
  /// Histogram for (entity, name), or null if never touched.
  [[nodiscard]] const Histogram* find_histogram(EntityId entity,
                                                std::string_view name) const;

  /// All per-entity histograms named `name`, merged into one — the
  /// finalize-time shard combine (e.g. every "wr_ns" across every QP).
  [[nodiscard]] Histogram merged_histogram(std::string_view name) const;

  // --- flight recorder ----------------------------------------------------

  /// Interns a record code (idempotent; cache via obs::Cached).
  CodeId code(std::string_view name);

  /// Appends one record to the ring. Constant time, allocation-free,
  /// overwrites the oldest record when full.
  void flight(obs::Layer layer, EntityId entity, CodeId code,
              std::uint64_t arg) noexcept {
    FlightRecord& r = flight_ring_[flight_head_ & flight_mask_];
    r.t = eng_.now();
    r.arg = arg;
    r.entity = entity;
    r.code = code;
    r.layer = static_cast<std::uint8_t>(layer);
    ++flight_head_;
  }

  /// Dumps the ring (oldest record first) and latches: only the first
  /// trigger prints, so one root cause does not bury itself under
  /// follow-on dumps. Call when an audit violation fires, a recovery goes
  /// terminal, or a scenario is about to exit nonzero.
  void trigger_flight_dump(std::string_view reason);

  /// Unconditional dump to `os` (tests, manual postmortems).
  void dump_flight(std::ostream& os) const;

  /// Redirects trigger_flight_dump() output (default: stderr).
  void set_flight_stream(std::ostream* os) noexcept { flight_stream_ = os; }

  [[nodiscard]] bool flight_dump_triggered() const noexcept {
    return flight_triggered_;
  }
  [[nodiscard]] std::size_t flight_capacity() const noexcept {
    return flight_ring_.size();
  }
  /// Records written since construction (not clamped to the ring size).
  [[nodiscard]] std::uint64_t flight_written() const noexcept {
    return flight_head_;
  }

  // --- export -------------------------------------------------------------

  /// Full stats report: entities, counters, gauges, histogram percentile
  /// tables + non-empty bucket dumps. Deterministic byte-for-byte per
  /// seed.
  void write_json(std::ostream& os) const;
  void write_csv(std::ostream& os) const;

  /// Sharded-run report ("e2e-stats-cluster-v1"): one write_json() document
  /// per shard registry, in the order given — callers pass shard-rank
  /// order, never a wall-clock-dependent order, so the merged file is as
  /// deterministic as the per-shard ones.
  static void write_merged_json(std::ostream& os,
                                const std::vector<const Registry*>& shards);

  // --- sim::Observer: the fast-forward contract ---------------------------
  // Counters, gauge sample counts and histogram buckets/count/sum fold as
  // wrapping deltas, so k folded periods are bit-identical to k event-exact
  // ones. A gauge's last/min/max and a histogram's extrema cannot be
  // replayed as deltas: a period that moved one is not steady state. The
  // flight-recorder ring is deliberately not advanced: it is a trace, not a
  // conserved metric.

  void ff_mark() override;
  [[nodiscard]] bool ff_repeats() const override { return ff_.repeats(); }
  void ff_advance(std::uint64_t k) override;

 private:
  struct Entity {
    obs::Layer layer;
    std::string name;
  };

  std::uint32_t intern(std::string_view s);
  /// The conserved state for ff_: every metric, in creation order per kind.
  auto ff_fields();
  [[nodiscard]] static std::uint64_t metric_key(EntityId entity,
                                                std::uint32_t name) noexcept {
    return (static_cast<std::uint64_t>(entity) << 32) | name;
  }

  sim::Engine& eng_;
  std::size_t max_entities_;

  std::vector<std::string> names_;  // metric-name intern table
  std::unordered_map<std::string, std::uint32_t, obs::StringHash,
                     std::equal_to<>>
      name_ids_;

  std::vector<Entity> entities_;
  std::unordered_map<std::string, EntityId> entity_ids_;  // "<layer>/<name>"
  std::unordered_map<std::string, int> mint_counts_;
  std::uint64_t dropped_entities_ = 0;

  // Pooled metric storage (stable addresses) + (entity, name) lookup.
  // Histograms don't carry their key (the type is shared with bench code),
  // so a parallel meta vector records it in creation order for export.
  struct HistMeta {
    EntityId entity;
    std::uint32_t name;
  };
  std::deque<Counter> counters_;
  std::deque<Gauge> gauges_;
  std::deque<Histogram> histograms_;
  std::vector<HistMeta> histogram_meta_;
  std::unordered_map<std::uint64_t, Counter*> counter_ids_;
  std::unordered_map<std::uint64_t, Gauge*> gauge_ids_;
  std::unordered_map<std::uint64_t, Histogram*> histogram_ids_;

  std::vector<std::string> codes_;  // flight-code intern table
  std::unordered_map<std::string, CodeId, obs::StringHash, std::equal_to<>>
      code_ids_;
  std::vector<FlightRecord> flight_ring_;
  std::uint64_t flight_head_ = 0;
  std::uint64_t flight_mask_ = 0;
  std::ostream* flight_stream_ = nullptr;  // null -> stderr at trigger time
  bool flight_triggered_ = false;
  sim::PeriodMarks ff_;
};

/// The registry installed on `eng`, or null when stats are disabled.
/// Only a Registry is ever installed in the kStats slot, so the downcast is
/// exact (same contract as trace::of / check::of).
[[nodiscard]] inline Registry* of(sim::Engine& eng) noexcept {
  return static_cast<Registry*>(eng.observer(sim::Observer::kStats));
}

}  // namespace e2e::stats
