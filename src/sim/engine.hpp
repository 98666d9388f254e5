// Discrete-event simulation engine.
//
// The Engine owns the pending-event set. An event either resumes a
// suspended coroutine (resume_at) or runs a callback (schedule_at); higher
// layers rarely post callbacks directly — they await the awaitables in
// sync.hpp and resource.hpp from coroutine Tasks instead.
//
// Determinism: events scheduled for the same instant fire in scheduling
// order (a monotonically increasing sequence number breaks ties), so a given
// program produces an identical event trace on every run.
//
// Hot path: pending events live in three stores, each sorted on the same
// (t, seq) key, and dispatch pops the least of their three fronts — one
// total order, whichever store an event sits in:
//   - the now lane, a FIFO of events due at now() (zero-delay wakeups and
//     past times clamped to now): they arrive already in (t, seq) order;
//   - the tail lane, a FIFO that takes an event when it is empty or the
//     event is not earlier than its back — fixed-delay timers (the rpc
//     retry timer) arrive in time order, so they never enter the heap;
//   - an indexed 4-ary min-heap on one contiguous vector for everything
//     else — shallower than a binary heap (fewer cache lines per sift).
// Every store reuses its capacity across push/pop cycles (see reserve()).
// The stores hold 24-byte POD keys {t, seq, payload}, so a sift moves plain
// integers. The payload is tagged on its low bit: a coroutine frame address
// (bit clear) is resumed directly at dispatch — the wakeup of every Delay,
// Resource::acquire and sync primitive, most of a run's events — while
// (slot << 1) | 1 names an EventFn in a parallel slot pool. Only real
// closures (link deliveries, timers, cross-shard merges) take a slot;
// EventFn stores every in-tree capture inline, so neither schedule_at() nor
// resume_at() ever allocates.
#pragma once

#include <cassert>
#include <coroutine>
#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <vector>

#include "sim/event_fn.hpp"
#include "sim/ring_queue.hpp"
#include "sim/time.hpp"

namespace e2e::sim {

class Cluster;
class Resource;

/// The one seam between the engine and its observers: the tracer
/// (trace/), the stats registry (stats/) and the invariant auditor
/// (check/). The engine holds at most one Observer per Kind. sim::Resource
/// and the engine notify every installed observer in Kind order, so a
/// service window reaches the tracer before the auditor. Every callback
/// defaults to a no-op; an observer overrides only what it tracks.
///
/// Instrumented layers reach a concrete observer through trace::of,
/// stats::of or check::of: one pointer load, null when that kind is not
/// installed, so a disabled observer costs one branch per site. The
/// callbacks record only — they never schedule events — so an observer
/// cannot perturb the simulated timeline.
class Observer {
 public:
  /// Slot index and notification order.
  enum Kind : std::uint8_t { kTrace, kStats, kAudit, kKindCount };

  virtual ~Observer() = default;
  /// One FIFO service window [start, end) booked on `r` for `units` work.
  virtual void on_resource_service(const Resource& r, SimTime start,
                                   SimTime end, double units) {
    (void)r, (void)start, (void)end, (void)units;
  }
  /// `r` is being destroyed; its counters are still readable. Observers
  /// drop per-resource state here so they never hold a dangling pointer.
  virtual void on_resource_destroyed(const Resource& r) { (void)r; }
  /// `r` absorbed `busy_delta` of service time and `units_delta` of work
  /// analytically (a fast-forwarded steady-state span, not FIFO windows).
  virtual void on_resource_fast_forward(const Resource& r,
                                        SimDuration busy_delta,
                                        double units_delta) {
    (void)r, (void)busy_delta, (void)units_delta;
  }
  /// The engine's virtual clock skipped `d` nanoseconds of modeled time
  /// without dispatching events (Engine::skip_time).
  virtual void on_time_skip(SimDuration d) { (void)d; }
  /// Sampler boundary `at` passed (Engine::set_sample_period): record the
  /// state as of `at`, after every event at t <= `at` and before any later.
  /// Only the kTrace slot receives it.
  virtual void on_sample(SimTime at) { (void)at; }

  // The fast-forward contract, shared with sim::Resource and reached
  // through Engine::ff_mark/ff_repeats/ff_advance (rftp::FastForward).
  // Each ledger keeps its own conserved state private and folds its own
  // period; an observer with nothing to mark or advance keeps those
  // defaults, but must say whether it repeats.
  /// Records the conserved state at a steady-state boundary.
  virtual void ff_mark() {}
  /// True only when the last two marked intervals moved the ledger bitwise
  /// identically; false with fewer than three marks or when the ledger's
  /// population changed between them.
  [[nodiscard]] virtual bool ff_repeats() const = 0;
  /// Applies the last marked interval's movement `k` more times.
  virtual void ff_advance(std::uint64_t k) { (void)k; }
};

class Engine {
 public:
  Engine() { heap_.reserve(kInitialReserve); }
  /// Detaches from its Cluster, if any, so shard and Cluster lifetimes may
  /// end in either order (defined in engine.cpp; needs cluster.hpp).
  ~Engine();
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Current simulated time as seen by the event queue. Pending event
  /// timestamps, Resource::busy_until() and schedule_at() all live on this
  /// clock; a fast-forward never moves it (see skip_time()).
  [[nodiscard]] SimTime now() const noexcept { return now_; }

  /// Current *modeled* time: now() plus every span absorbed by skip_time().
  /// Reporting-era quantities (elapsed transfer time, throughput-meter bin
  /// placement, end-of-run summaries) read this clock; event scheduling
  /// never does.
  [[nodiscard]] SimTime virtual_now() const noexcept {
    return saturating_add(now_, skipped_);
  }

  /// Records that `d` nanoseconds of modeled time were collapsed into a
  /// closed-form span (the hybrid fluid/event fast-forward). The event heap
  /// is deliberately NOT warped: every pending timestamp, coroutine-held
  /// `now() - t0` measurement interval and Resource busy horizon stays on
  /// the event-exact clock, so in-flight latency samples remain exact. Only
  /// virtual_now() — the reporting clock — advances. Standalone engines
  /// only: sharded (Cluster) runs derive window bounds from event times and
  /// must never skip.
  void skip_time(SimDuration d) noexcept {
    if (d <= 0 || cluster_ != nullptr) return;
    skipped_ += d;
    notify([d](Observer& o) { o.on_time_skip(d); });
  }

  /// Schedules `fn` to run at absolute simulated time `t` (>= now()).
  /// Events in the past are clamped to now() (and counted, see
  /// clamped_schedules()). Returns the closure's slot, for retract().
  std::uint32_t schedule_at(SimTime t, EventFn fn);

  /// Drops the closure in `slot` (returned by schedule_at) while its event
  /// is still pending: the event drains without running, without moving
  /// now() and without counting as processed. The slot is recycled once the
  /// event drains, so a slot whose event already ran, or was already
  /// retracted, must not be passed.
  void retract(std::uint32_t slot) noexcept {
    assert(slots_[slot] && "retracting an event that ran or was retracted");
    slots_[slot] = EventFn{};
  }

  /// Resumes the suspended coroutine `h` at absolute time `t`: the same
  /// clamp, sequence number and store as schedule_at(), but the key carries
  /// the frame address itself, so no EventFn slot is claimed and dispatch
  /// calls h.resume() directly.
  void resume_at(SimTime t, std::coroutine_handle<> h) {
    const auto frame = reinterpret_cast<std::uintptr_t>(h.address());
    assert((frame & 1) == 0 && "coroutine frames are at least 2-aligned");
    push(t, frame);
  }

  /// Schedules `fn` to run `delay` nanoseconds from now.
  void schedule_after(SimDuration delay, EventFn fn) {
    schedule_at(saturating_add(now_, delay), std::move(fn));
  }

  /// Runs until the event queue drains or stop() is called.
  void run();

  /// Runs all events with timestamp <= `t`, then advances the clock to `t`
  /// (even if the queue drained earlier). Returns the number of events
  /// dispatched, counted via the events_processed() delta so the count
  /// stays correct when stop() fires mid-run or an event re-enters
  /// run()/run_until().
  std::uint64_t run_until(SimTime t);

  /// Runs events for `d` more nanoseconds of simulated time.
  std::uint64_t run_for(SimDuration d) {
    return run_until(saturating_add(now_, d));
  }

  /// Requests that run()/run_until() return after the current event.
  void stop() noexcept { stopped_ = true; }

  /// Total number of events dispatched since construction.
  [[nodiscard]] std::uint64_t events_processed() const noexcept {
    return events_processed_;
  }

  /// schedule_at()/resume_at() calls whose `t` lay in the past and was
  /// clamped to now().
  [[nodiscard]] std::uint64_t clamped_schedules() const noexcept {
    return clamped_schedules_;
  }
  /// Dispatches that ran an EventFn closure from the slot pool; every other
  /// dispatch resumed a coroutine directly (see resume_at()).
  [[nodiscard]] std::uint64_t closure_events() const noexcept {
    return closure_events_;
  }
  /// schedule_at()/resume_at() calls that went into the 4-ary heap because
  /// neither lane could take the event; every other call rode a lane.
  [[nodiscard]] std::uint64_t heap_pushes() const noexcept {
    return heap_pushes_;
  }

  /// Timestamp of the next pending event, a retracted one included, or
  /// kTimeInfinity when none is pending.
  [[nodiscard]] SimTime next_event_time() const noexcept {
    SimTime t = kTimeInfinity;
    if (!now_lane_.empty()) t = now_lane_.front().t;
    if (!tail_.empty() && tail_.front().t < t) t = tail_.front().t;
    if (!heap_.empty() && heap_.front().t < t) t = heap_.front().t;
    return t;
  }

  /// Pending events and the slot capacity of all three pending stores.
  /// Capacity only grows: popping never shrinks a store, so a run's
  /// steady-state working set stops reallocating once the high-water mark
  /// is reached.
  [[nodiscard]] std::size_t queue_depth() const noexcept {
    return now_lane_.size() + tail_.size() + heap_.size();
  }
  [[nodiscard]] std::size_t queue_capacity() const noexcept {
    return now_lane_.capacity() + tail_.capacity() + heap_.capacity();
  }
  /// Pre-sizes every pending store for a known event population.
  void reserve(std::size_t events) {
    now_lane_.reserve(events);
    tail_.reserve(events);
    heap_.reserve(events);
    slots_.reserve(events);
    free_slots_.reserve(events);
  }

  static SimTime saturating_add(SimTime a, SimDuration b) noexcept {
    const SimTime s = a + b;
    return s < a ? kTimeInfinity : s;
  }

  // --- sharded (Cluster) operation ---

  /// The Cluster this engine is registered with as a shard, or null when it
  /// runs standalone (the default and the `--shards 1` legacy path).
  [[nodiscard]] Cluster* cluster() const noexcept { return cluster_; }
  /// Shard rank within the cluster (-1 when standalone).
  [[nodiscard]] int rank() const noexcept { return rank_; }

  /// Schedules `fn` on `dst` at absolute time `t`. When both engines are
  /// shards of the same Cluster this routes through the cluster's
  /// deterministic (t, src_rank, seq) cross-shard merge; otherwise (same
  /// engine, or no cluster) it degenerates to dst.schedule_at(t, fn) — so
  /// callers on boundary seams can use it unconditionally.
  void cross_post(Engine& dst, SimTime t, EventFn fn);

  /// Runs all events with timestamp strictly < `horizon` (one conservative
  /// lookahead window). Does NOT advance the clock to the horizon: the next
  /// window's bound is derived from real pending-event times. Returns the
  /// number of events dispatched.
  std::uint64_t run_window(SimTime horizon);

  // --- observers ---

  /// The installed observer of kind `k`, or null (the default).
  [[nodiscard]] Observer* observer(Observer::Kind k) const noexcept {
    return observers_[k];
  }
  void set_observer(Observer::Kind k, Observer* o) noexcept {
    observers_[k] = o;
  }
  /// Calls the kTrace observer's on_sample(b) for each b = now() + k·period
  /// as dispatch first passes it: samples add no event. A zero period
  /// disarms, and so does an uninstalled tracer.
  void set_sample_period(SimDuration period) noexcept {
    sample_period_ = period;
    sample_at_ = period > 0 ? saturating_add(now_, period) : kTimeInfinity;
  }
  /// Calls `f(o)` for every installed observer, in Kind order.
  template <typename F>
  void notify(F&& f) const {
    for (Observer* o : observers_)
      if (o != nullptr) f(*o);
  }

  /// Every live Resource built on this engine, in construction order.
  /// Deterministic: construction order is program order.
  [[nodiscard]] const std::vector<Resource*>& resources() const noexcept {
    return resources_;
  }
  void register_resource(Resource* r) {
    resources_.push_back(r);
    ++resource_epoch_;
  }
  void deregister_resource(Resource* r) noexcept {
    ++resource_epoch_;
    notify([r](Observer& o) { o.on_resource_destroyed(*r); });
    for (auto it = resources_.begin(); it != resources_.end(); ++it)
      if (*it == r) {
        resources_.erase(it);
        return;
      }
  }

  // --- fast-forward contract (see Observer::ff_mark) ---
  // Fans out over the installed observers and resources(); the marks are
  // the engine's, so at most one detector may drive them.

  void ff_mark();
  /// Also false when a Resource was created or destroyed across the last
  /// three marks.
  [[nodiscard]] bool ff_repeats() const;
  void ff_advance(std::uint64_t k);

 private:
  friend class Cluster;  // run_sequential() drives dispatch_one() directly

  static constexpr std::size_t kArity = 4;
  static constexpr std::size_t kInitialReserve = 1024;

  /// Pending-event key: ordering key plus a tagged payload — a coroutine
  /// frame address (low bit 0) or `(slot << 1) | 1` for the EventFn in
  /// slots_. Trivially copyable, so sift moves are plain 24-byte copies.
  struct Event {
    SimTime t;
    std::uint64_t seq;
    std::uint64_t payload;
  };
  static_assert(std::is_trivially_copyable_v<Event>);
  static_assert(sizeof(Event) == 24);
  static_assert(sizeof(std::uintptr_t) <= sizeof(std::uint64_t));
  static constexpr std::uint64_t kClosureTag = 1;

  /// Order on (t, seq): earlier time first, scheduling order within the
  /// same instant. Every store is sorted on it.
  static bool before(const Event& a, const Event& b) noexcept {
    return a.t != b.t ? a.t < b.t : a.seq < b.seq;
  }

  enum class Store : std::uint8_t { kNow, kTail, kHeap };
  /// The least pending event (null when idle) and the store it heads.
  struct Next {
    const Event* event;
    Store store;
  };

  [[nodiscard]] Next peek() const noexcept {
    Next n{nullptr, Store::kHeap};
    if (!now_lane_.empty()) n = {&now_lane_.front(), Store::kNow};
    if (!tail_.empty() &&
        (n.event == nullptr || before(tail_.front(), *n.event)))
      n = {&tail_.front(), Store::kTail};
    if (!heap_.empty() &&
        (n.event == nullptr || before(heap_.front(), *n.event)))
      n = {&heap_.front(), Store::kHeap};
    return n;
  }

  std::uint32_t claim_slot(EventFn&& fn);
  /// Clamps `t`, stamps the next seq and files the key in its store.
  void push(SimTime t, std::uint64_t payload);
  void sift_up(std::size_t i);
  void sift_down(std::size_t i);
  /// Pops `top`, the front of store `s`, and runs it.
  void dispatch(Store s, Event top);
  // Samples every boundary before `t`; kept out of the dispatch loop.
  [[gnu::cold, gnu::noinline]] void sample_until(SimTime t);
  /// Runs the least pending event; one must be pending.
  void dispatch_one() {
    const Next n = peek();
    dispatch(n.store, *n.event);
  }
  void attach_cluster(Cluster* c, int rank) noexcept {
    cluster_ = c;
    rank_ = rank;
  }

  RingQueue<Event> now_lane_;  // t == now() at scheduling
  RingQueue<Event> tail_;      // t >= every earlier tail entry
  std::vector<Event> heap_;
  std::vector<EventFn> slots_;             // closures, indexed by slot
  std::vector<std::uint32_t> free_slots_;  // recycled slot indices
  Observer* observers_[Observer::kKindCount] = {};
  std::vector<Resource*> resources_;
  std::uint64_t resource_epoch_ = 0;  // bumped on every (de)registration
  std::uint64_t ff_epochs_[3] = {};   // resource_epoch_ at the last marks
  std::uint64_t ff_marks_ = 0;
  Cluster* cluster_ = nullptr;
  int rank_ = -1;
  SimTime now_ = 0;
  SimDuration skipped_ = 0;  // modeled time absorbed by skip_time()
  std::uint64_t next_seq_ = 0;
  std::uint64_t events_processed_ = 0;
  std::uint64_t clamped_schedules_ = 0;
  std::uint64_t heap_pushes_ = 0;
  std::uint64_t closure_events_ = 0;
  SimTime sample_at_ = kTimeInfinity;  // next boundary; infinite if none
  SimDuration sample_period_ = 0;
  bool stopped_ = false;
};

}  // namespace e2e::sim
