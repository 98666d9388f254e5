// e2e::obs probe — one call per incident, reported to every installed sink.
//
// An instrumented object (a QP, a stream, a connection) holds one Actor:
// its trace track and its stats entity, each minted on first use per
// installed tracer/registry. A site describes what happened with a static
// Incident and makes one call; the actor emits
//
//   * to the tracer: the event (an instant, or a span that ends now) on the
//     actor's track, and the counter "<layer>/<counter>";
//   * to the registry: the counter, the span's latency histogram, and a
//     flight record carrying the call's argument.
//
// Within one call each sink is fed in a fixed order: track or entity, then
// event, counter, histogram, flight record. Everything whose order shows in
// an export (track and entity ids, the event stream, creation order within
// each metric kind, the flight ring) therefore keeps the first-use order of
// the hand-written pairs this replaced, and every export is byte-identical.
// Counters, gauges, histograms and flight records live in separate tables,
// so their relative order within one call is not visible.
//
// Cost: every handle is cached per Site and per sink instance. With the
// tracer off and the registry on, a counter bump is one null trace::of()
// load, one owner compare and one add.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>

#include "obs/core.hpp"
#include "sim/engine.hpp"
#include "stats/registry.hpp"
#include "trace/tracer.hpp"

namespace e2e::obs {

/// Drops one sink's half of an Incident (see its per-sink names).
inline constexpr std::string_view kSkip = "-";

/// What happened, and under which name each sink reports it. Empty fields
/// emit nothing.
struct Incident {
  std::string_view name = {};     // trace event and flight code
  std::string_view counter = {};  // stats counter; traced "<layer>/<counter>"
  std::string_view hist = {};     // stats histogram of a span's duration (ns)
  // Per-sink names, spelled out only where they differ from the above.
  std::string_view event = {};          // trace event instead of `name`
  std::string_view code = {};           // flight code instead of `name`
  std::string_view trace_counter = {};  // instead of the derived one
  // Terminal incidents: trigger the flight dump "<dump>:<event>".
  std::string_view dump = {};
};

/// How one object is named in one sink.
struct Name {
  std::string base;
  bool mint = true;  // "<base>#<n>" per object, numbered in first-use order
};
/// A name shared by every object that uses it (not minted).
inline Name named(std::string base) { return {std::move(base), false}; }

/// A trace track, resolved once per tracer.
class Track {
 public:
  Track() = default;  // unnamed until assigned
  Track(Layer layer, Name name) : layer_(layer), name_(std::move(name)) {}
  trace::TrackId get(trace::Tracer* tr) {
    return id_.get(tr, [&] {
      return name_.mint ? tr->mint_track(layer_, name_.base)
                        : tr->track(layer_, name_.base);
    });
  }

 private:
  Layer layer_ = Layer::kSim;
  Name name_;
  Cached<trace::Tracer, trace::TrackId> id_;
};

/// Run-time facts of one report.
struct Facts {
  std::uint64_t arg = 0;        // flight-record argument
  std::uint64_t n = 1;          // counter delta (both sinks)
  std::string_view event = {};  // trace event chosen at run time (uncached)
  Track* on = nullptr;          // trace track instead of the actor's
};

/// One actor's cached handles for one Incident. Give every (actor,
/// incident) pair its own Site and always pass it the same Incident.
class Site {
  friend class Actor;
  Cached<trace::Tracer, trace::NameId> event_;
  Cached<trace::Tracer, trace::Counter*> trace_counter_;
  Cached<stats::Registry, stats::Counter*> counter_;
  Cached<stats::Registry, stats::Histogram*> hist_;
  Cached<stats::Registry, stats::CodeId> code_;
};

/// One actor's level reading (a queue depth): the stats gauge `gauge`.
class Gauge {
 public:
  explicit Gauge(std::string_view gauge) : gauge_(gauge) {}

 private:
  friend class Actor;
  std::string_view gauge_;
  Cached<stats::Registry, stats::Gauge*> handle_;
};

/// One instrumented object's identity in every sink, and the one call per
/// incident.
class Actor {
 public:
  Actor() = default;  // unnamed until assigned
  Actor(Layer layer, Name track, Name entity)
      : track_(layer, std::move(track)),
        layer_(layer),
        entity_name_(std::move(entity)) {}

  /// An instant event now.
  void report(sim::Engine& eng, const Incident& d, Site& s, Facts f = {}) {
    emit(eng, d, s, f, Mark::kInstant, 0, 0);
  }
  /// A span [since, now]: a complete trace span and the histogram of its
  /// duration.
  void span(sim::Engine& eng, const Incident& d, Site& s, sim::SimTime since,
            Facts f = {}) {
    emit(eng, d, s, f, Mark::kSpan, since, 0);
  }
  /// The start of the async span `id` (trace only: its end reports the
  /// counters, histogram and flight record).
  void span_begin(sim::Engine& eng, std::string_view event, std::uint64_t id) {
    if (auto* tr = trace::of(eng)) tr->async_begin(track_.get(tr), event, id);
  }
  /// The end of the async span `id` that began at `since`.
  void span_end(sim::Engine& eng, const Incident& d, Site& s,
                sim::SimTime since, std::uint64_t id, Facts f = {}) {
    emit(eng, d, s, f, Mark::kAsyncEnd, since, id);
  }
  /// A level reading.
  void gauge(sim::Engine& eng, Gauge& g, double v) {
    if (auto* st = stats::of(eng))
      g.handle_.get(st, [&] { return &st->gauge(entity(st), g.gauge_); })
          ->set(v);
  }

  stats::EntityId entity(stats::Registry* st) {
    return entity_.get(st, [&] {
      return entity_name_.mint ? st->mint_entity(layer_, entity_name_.base)
                               : st->entity(layer_, entity_name_.base);
    });
  }

 private:
  enum class Mark : std::uint8_t { kInstant, kSpan, kAsyncEnd };

  static std::string_view pick(std::string_view override_name,
                               std::string_view fallback) {
    const std::string_view v = override_name.empty() ? fallback : override_name;
    return v == kSkip ? std::string_view{} : v;
  }

  void emit(sim::Engine& eng, const Incident& d, Site& s, const Facts& f,
            Mark mark, sim::SimTime since, std::uint64_t id) {
    const std::string_view event = f.event.empty() ? pick(d.event, d.name)
                                                   : f.event;
    if (auto* tr = trace::of(eng)) {
      if (!event.empty()) {
        const trace::TrackId tk = (f.on ? f.on : &track_)->get(tr);
        if (mark == Mark::kAsyncEnd) {
          tr->async_end(tk, event, id);
        } else {
          const trace::NameId nm =
              f.event.empty()
                  ? s.event_.get(tr, [&] { return tr->name_id(event); })
                  : tr->name_id(event);
          if (mark == Mark::kSpan)
            tr->complete(tk, nm, since);
          else
            tr->instant(tk, nm);
        }
      }
      const std::string_view tc = d.trace_counter;
      if (tc != kSkip && (!tc.empty() || !d.counter.empty()))
        s.trace_counter_
            .get(tr,
                 [&] {
                   return &tr->counter(
                       tc.empty() ? std::string(to_string(layer_)) + "/" +
                                        std::string(d.counter)
                                  : std::string(tc));
                 })
            ->add(f.n);
    }
    if (auto* st = stats::of(eng)) {
      if (!d.counter.empty())
        s.counter_
            .get(st, [&] { return &st->counter(entity(st), d.counter); })
            ->add(f.n);
      if (mark != Mark::kInstant && !d.hist.empty())
        s.hist_.get(st, [&] { return &st->histogram(entity(st), d.hist); })
            ->record(static_cast<std::uint64_t>(eng.now() - since));
      if (const std::string_view code = pick(d.code, d.name); !code.empty())
        st->flight(layer_, entity(st),
                   s.code_.get(st, [&] { return st->code(code); }), f.arg);
      if (!d.dump.empty())
        st->trigger_flight_dump(std::string(d.dump) + ":" +
                                std::string(event.empty() ? d.name : event));
    }
  }

  Track track_;
  Layer layer_ = Layer::kSim;
  Name entity_name_;
  Cached<stats::Registry, stats::EntityId> entity_;
};

}  // namespace e2e::obs
