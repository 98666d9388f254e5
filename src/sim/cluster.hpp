// Conservative parallel simulation over per-shard engines.
//
// A Cluster coordinates several sim::Engine instances ("shards" — one per
// host or host group), each owning its own event heap, EventFn slot pool,
// and trace/stats/check sinks. Shards advance in lockstep windows derived
// from the minimum cross-shard net:: link latency L (the lookahead): every
// window runs each shard's events with t < horizon, where
//
//   horizon = min(next event time across all shards) + L.
//
// Any message a shard emits toward another shard during a window travels a
// net:: link, so it arrives at t_send + link_latency >= min + L = horizon —
// provably after the window every shard is executing. Cross-shard sends are
// therefore buffered in per-source outboxes and merged into the destination
// shard's heap at the next window boundary, sorted by (t, src_shard, seq).
// That key — never wall-clock arrival order — decides the destination
// engine's tie-break sequence numbers, so the executed event schedule is a
// pure function of the seed and the topology: the same run is bit-identical
// with 1 worker thread or 8.
//
// Threading contract (see frame_pool.hpp): shard k is pinned to worker
// k % workers for the whole parallel run, so the thread_local frame/message
// pools behave as per-shard pools — a coroutine frame is always allocated
// and recycled on its shard's worker. Frames allocated during the
// single-threaded setup phase migrate into a worker's pool on first free,
// which is safe (the pools are plain malloc-backed freelists).
#pragma once

#include <cstdint>
#include <exception>
#include <memory>
#include <vector>

#include "sim/engine.hpp"
#include "sim/event_fn.hpp"
#include "sim/time.hpp"

namespace e2e::sim {

class Cluster {
 public:
  /// `workers` parallel worker threads drive the shards (clamped to
  /// [1, shard count] at run() time). The worker count never changes the
  /// executed schedule — only how many shards run concurrently.
  explicit Cluster(int workers);
  ~Cluster();
  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  /// Registers `eng` as the next shard and returns its rank (dense from 0,
  /// registration order). The engine keeps a back-pointer for cross_post().
  int add(Engine& eng);

  /// Retires a dying shard's slot (called from ~Engine, so a Cluster and
  /// its engines may be destroyed in either order). Remaining ranks are
  /// unchanged; the dead rank is skipped by every loop. Must not be called
  /// while run()/run_sequential() is executing.
  void detach(Engine& eng) noexcept;

  /// Declares a cross-shard latency seam of `min_latency` ns (called by
  /// net::Link when its two sides live on different shards). The window
  /// lookahead is the minimum over all declared seams.
  void note_lookahead(SimDuration min_latency) noexcept {
    if (min_latency < lookahead_) lookahead_ = min_latency;
  }
  [[nodiscard]] SimDuration lookahead() const noexcept { return lookahead_; }

  /// Enqueues `fn` to run on shard `dst_rank` at absolute time `t`,
  /// ordered by (t, src_rank, send sequence) against every other
  /// cross-shard message. During run() the message is delivered at the
  /// next window boundary — `t` must be at or past the current horizon,
  /// which the lookahead guarantees for anything sent over a declared
  /// net:: seam. Outside run() (setup/drain phases) it schedules directly.
  void post(int src_rank, int dst_rank, SimTime t, EventFn fn);

  /// Runs every shard to completion in exact global event order: one event
  /// at a time, picking the shard with the earliest (t, rank). Used for
  /// the single-threaded setup/teardown phases where coroutines are
  /// allowed to hop between shards (connection establishment spans hosts).
  void run_sequential();

  /// Runs every shard to completion in conservative lookahead windows,
  /// shards in parallel on the worker pool. Each window ends at one
  /// barrier whose completion step merges the outboxes and sets the next
  /// horizon; the calling thread starts and joins the workers (always at
  /// least one) and runs no shard itself. The executed schedule is
  /// identical for any worker count. Rethrows the first shard exception
  /// (lowest rank wins, deterministically) after the window it was thrown
  /// in, with that window's cross-shard sends merged into their heaps.
  void run();

  /// Static shard->worker pinning (rank % effective worker count).
  [[nodiscard]] int worker_of(int rank) const noexcept {
    return rank % effective_workers();
  }

  /// Windows executed by run() so far (observability/tests).
  [[nodiscard]] std::uint64_t windows() const noexcept { return windows_; }
  /// Cross-shard messages posted so far (observability/tests).
  [[nodiscard]] std::uint64_t cross_posts() const noexcept;
  /// Events dispatched across all shards.
  [[nodiscard]] std::uint64_t events_processed() const;

 private:
  struct Msg {
    SimTime t;
    std::uint64_t seq;  // per-source send order
    int dst;
    EventFn fn;
  };
  /// One per shard; only that shard's pinned worker appends during a
  /// window, and only the window barrier's completion step drains it
  /// between windows (the barrier provides the happens-before edge both
  /// ways).
  struct Outbox {
    std::vector<Msg> msgs;
    std::uint64_t next_seq = 0;
  };
  /// A buffered message's merge key (see deliver_outboxes).
  struct Keyed {
    SimTime t;
    int src;
    std::uint64_t seq;
    Msg* m;
  };

  [[nodiscard]] int effective_workers() const noexcept {
    const int n = static_cast<int>(shards_.size());
    return workers_ < n ? (workers_ < 1 ? 1 : workers_) : (n < 1 ? 1 : n);
  }
  [[nodiscard]] SimTime min_next_event() const noexcept;
  /// Moves every buffered cross-shard message into its destination heap,
  /// sorted by (t, src_rank, seq). Single-threaded (between windows).
  void deliver_outboxes();

  int workers_;
  std::vector<Engine*> shards_;
  std::vector<std::unique_ptr<Outbox>> outboxes_;  // stable addresses
  std::vector<std::exception_ptr> errors_;
  std::vector<Keyed> keyed_;  // deliver_outboxes scratch, kept across windows
  SimDuration lookahead_ = kTimeInfinity;
  SimTime horizon_ = 0;   // current window's exclusive upper bound
  bool parallel_ = false;  // inside run(): post() buffers instead of
                           // scheduling directly
  std::uint64_t windows_ = 0;
};

}  // namespace e2e::sim
