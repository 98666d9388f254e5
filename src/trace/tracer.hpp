// e2e::trace — structured event tracing for the whole transfer stack.
//
// A Tracer records spans, instant events, counter series and periodic
// resource-utilization samples against sim::Engine time, and exports them
// as Chrome trace-event JSON (loadable in Perfetto / chrome://tracing).
// Every counter's final value and every resource's utilization series land
// in the trace's closing sample_now() snapshot.
//
// Attachment: Tracer::install() parks the tracer in the engine's kTrace
// observer slot. Instrumented layers fetch it with trace::of(engine) — a
// single pointer load that is null when tracing is disabled, so the
// disabled fast path costs one predictable branch per site and allocates
// nothing.
//
// Determinism: the tracer never reads wall-clock time or any other
// ambient state. All timestamps are simulated nanoseconds, all ids are
// assigned in first-use order, and exports iterate insertion-ordered
// vectors — two identical runs produce byte-identical trace files (unit
// tested).
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
#include "sim/time.hpp"

namespace e2e::trace {

using TrackId = std::uint32_t;
using NameId = std::uint32_t;

/// Named monotonic counter. Handles stay valid for the tracer's lifetime;
/// add() is an inlined integer bump so call sites can count unconditionally
/// once they hold the handle.
class Counter {
 public:
  void add(std::uint64_t delta) noexcept { value_ += delta; }
  [[nodiscard]] std::uint64_t value() const noexcept { return value_; }
  [[nodiscard]] const std::string& name() const noexcept { return name_; }

 private:
  friend class Tracer;
  explicit Counter(std::string name) : name_(std::move(name)) {}
  std::string name_;
  std::uint64_t value_ = 0;
};

class Tracer final : public sim::Observer {
 public:
  /// The tracer must not outlive `eng` (it samples the engine's resource
  /// registry and uninstalls itself on destruction).
  explicit Tracer(sim::Engine& eng) : eng_(eng) {}
  ~Tracer() override { uninstall(); }
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Makes this tracer visible to instrumented code via trace::of().
  void install() noexcept { eng_.set_observer(kTrace, this); }
  void uninstall() noexcept {
    if (eng_.observer(kTrace) == this) eng_.set_observer(kTrace, nullptr);
  }

  // --- tracks ------------------------------------------------------------
  // A track is one horizontal timeline in the viewer, identified by
  // (layer, actor). track() is idempotent per actor string; mint_track()
  // appends "#<n>" to get a fresh track per caller (one per QP, stream,
  // filler, ...), numbered in first-mint order.

  TrackId track(obs::Layer layer, std::string_view actor);
  TrackId mint_track(obs::Layer layer, std::string_view base);

  // --- events -------------------------------------------------------------

  // Event names are pre-interned (name_id()): sites resolve a name once
  // per tracer (an obs::Cached handle) and then log with no hashing.

  /// Complete span covering [start, now] — for work whose duration is only
  /// known when it finishes.
  void complete(TrackId t, NameId name, sim::SimTime start);

  /// Zero-duration marker.
  void instant(TrackId t, NameId name);

  /// Async span: may overlap other spans on the same track and may begin
  /// and end on different tracks. `id` pairs the begin with the end within
  /// the track's scope (e.g. a block index).
  void async_begin(TrackId t, std::string_view name, std::uint64_t id);
  void async_end(TrackId t, std::string_view name, std::uint64_t id);

  // --- counters -----------------------------------------------------------

  /// Named monotonic counter, created on first use. Sampled into the
  /// counter timeline by the resource sampler and reported at exit.
  Counter& counter(std::string_view name);

  /// Interns `s` into the name table (idempotent). The returned id is valid
  /// for this tracer's lifetime.
  NameId name_id(std::string_view s) { return intern(s); }

  // --- resource sampler ---------------------------------------------------

  /// Starts snapshotting every Resource registered with the engine (and
  /// every Counter) at each boundary now() + k·period that dispatch passes
  /// (sim::Engine::set_sample_period). Call after install() and after any
  /// setup-phase engine runs.
  void enable_resource_sampler(sim::SimDuration period) {
    sampler_period_ = period ? period : sim::kMillisecond;
    eng_.set_sample_period(sampler_period_);
  }

  /// One immediate snapshot of all resources and counters.
  void sample_now() { on_sample(eng_.now()); }

  // --- export -------------------------------------------------------------

  /// Chrome trace-event JSON (the "traceEvents" envelope).
  void write_chrome_trace(std::ostream& os) const;

  /// Emits this tracer's metadata + event stream into an already-open
  /// "traceEvents" array, with every pid offset by `pid_base` so several
  /// shards' tracers coexist in one file (shard s uses
  /// pid_base = s * (obs::kLayerCount + 1)). write_chrome_trace() is exactly
  /// this with pid_base 0 inside the envelope.
  void write_chrome_events(std::ostream& os, int pid_base, bool& first) const;

  // --- introspection (tests) --------------------------------------------

  [[nodiscard]] std::size_t event_count() const noexcept {
    return events_.size();
  }
  /// Value of a monotonic counter, 0 if never touched.
  [[nodiscard]] std::uint64_t counter_value(std::string_view name) const;

  struct Sample {
    NameId series;
    sim::SimTime ts;
    double value;
  };
  [[nodiscard]] const std::vector<Sample>& samples() const noexcept {
    return samples_;
  }
  [[nodiscard]] const std::string& name_of(NameId id) const {
    return names_.at(id);
  }

  // sim::Observer: resource service windows arrive as spans on the sim
  // layer.
  void on_resource_service(const sim::Resource& r, sim::SimTime start,
                           sim::SimTime end, double units) override;
  /// One snapshot stamped `at`.
  void on_sample(sim::SimTime at) override;
  /// A trace records every event, so no period of it can be folded:
  /// traces are exempt from fast-forward equivalence and an installed
  /// tracer pins the run to event-exact.
  [[nodiscard]] bool ff_repeats() const override { return false; }

 private:
  struct Event {
    enum class Type : std::uint8_t {
      kComplete,
      kInstant,
      kAsyncBegin,
      kAsyncEnd,
    };
    Type type;
    TrackId track;
    NameId name;
    sim::SimTime ts;
    sim::SimDuration dur;  // kComplete only
    std::uint64_t id;      // async pairing id
  };
  struct Track {
    obs::Layer layer;
    std::string actor;
  };

  NameId intern(std::string_view s);
  void push(Event e) { events_.push_back(e); }

  sim::Engine& eng_;

  std::vector<std::string> names_;
  std::unordered_map<std::string, NameId, obs::StringHash, std::equal_to<>>
      name_ids_;

  std::vector<Track> tracks_;
  std::unordered_map<std::string, TrackId> track_ids_;  // "<layer>/<actor>"
  std::unordered_map<std::string, int> mint_counts_;

  std::vector<Event> events_;

  std::deque<Counter> counters_;  // stable addresses for handles
  std::unordered_map<std::string, std::size_t, obs::StringHash,
                     std::equal_to<>>
      counter_ids_;
  std::vector<Sample> samples_;

  // Per-resource sampler state: cached series name + busy_ns at last tick.
  struct ResourceState {
    NameId series = 0;
    bool named = false;
    double last_busy_ns = 0.0;
  };
  std::unordered_map<const sim::Resource*, ResourceState> res_state_;
  std::unordered_map<const sim::Resource*, TrackId> res_tracks_;
  sim::SimDuration sampler_period_ = 0;
};

/// The tracer installed on `eng`, or null when tracing is disabled.
/// Only a Tracer is ever installed in the kTrace slot, so the downcast is
/// exact.
inline Tracer* of(sim::Engine& eng) noexcept {
  return static_cast<Tracer*>(eng.observer(sim::Observer::kTrace));
}

/// One Chrome trace file covering several shards' tracers: shard s's
/// processes occupy pids [s*(kLayerCount+1), (s+1)*(kLayerCount+1)) with
/// obs::kLayerCount. Pass
/// tracers in shard-rank order — the emission order (and therefore the
/// byte stream) follows the vector, never wall-clock completion order.
void write_merged_chrome_trace(std::ostream& os,
                               const std::vector<const Tracer*>& shards);

}  // namespace e2e::trace
