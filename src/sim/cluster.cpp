#include "sim/cluster.hpp"

#include <algorithm>
#include <barrier>
#include <cassert>
#include <thread>
#include <utility>

namespace e2e::sim {

Cluster::Cluster(int workers) : workers_(workers < 1 ? 1 : workers) {}

Cluster::~Cluster() {
  for (Engine* e : shards_)
    if (e != nullptr) e->attach_cluster(nullptr, -1);
}

int Cluster::add(Engine& eng) {
  const int rank = static_cast<int>(shards_.size());
  shards_.push_back(&eng);
  outboxes_.push_back(std::make_unique<Outbox>());
  eng.attach_cluster(this, rank);
  return rank;
}

void Cluster::detach(Engine& eng) noexcept {
  for (Engine*& e : shards_)
    if (e == &eng) e = nullptr;
}

void Cluster::post(int src_rank, int dst_rank, SimTime t, EventFn fn) {
  if (!parallel_) {
    // Setup/teardown phases run single-threaded in exact global order;
    // deliver straight into the destination heap.
    shards_[dst_rank]->schedule_at(t, std::move(fn));
    return;
  }
  // Conservative-lookahead soundness: anything crossing a shard boundary
  // travels a declared net:: seam, so it lands at or past the horizon every
  // shard is currently executing toward.
  assert(t >= horizon_);
  Outbox& ob = *outboxes_[src_rank];
  ob.msgs.push_back(Msg{t, ob.next_seq++, dst_rank, std::move(fn)});
}

SimTime Cluster::min_next_event() const noexcept {
  SimTime m = kTimeInfinity;
  for (const Engine* e : shards_)
    if (e != nullptr && e->next_event_time() < m) m = e->next_event_time();
  return m;
}

void Cluster::deliver_outboxes() {
  // Merge order is (t, src_rank, seq) — the same key that orders event
  // dispatch — never wall-clock arrival order. Destination sequence
  // numbers are assigned here, between windows, so they are a pure
  // function of the logical schedule, not of worker interleaving.
  keyed_.clear();
  for (int src = 0; src < static_cast<int>(outboxes_.size()); ++src)
    for (Msg& m : outboxes_[src]->msgs)
      keyed_.push_back(Keyed{m.t, src, m.seq, &m});
  if (keyed_.empty()) return;
  std::sort(keyed_.begin(), keyed_.end(), [](const Keyed& a, const Keyed& b) {
    if (a.t != b.t) return a.t < b.t;
    if (a.src != b.src) return a.src < b.src;
    return a.seq < b.seq;
  });
  for (Keyed& k : keyed_) {
    if (shards_[k.m->dst] == nullptr) continue;  // dead shard: drop the msg
    Engine& dst = *shards_[k.m->dst];
    assert(k.t >= dst.now());
    dst.schedule_at(k.t, std::move(k.m->fn));
  }
  for (const auto& ob : outboxes_) ob->msgs.clear();
}

void Cluster::run_sequential() {
  if (shards_.empty()) return;
  deliver_outboxes();
  for (;;) {
    Engine* next = nullptr;
    SimTime next_t = kTimeInfinity;
    for (Engine* e : shards_) {  // earliest (t, rank) wins; rank = add order
      if (e == nullptr || e->queue_depth() == 0) continue;
      const SimTime t = e->next_event_time();
      if (next == nullptr || t < next_t) {
        next = e;
        next_t = t;
      }
    }
    if (next == nullptr) return;
    next->dispatch_one();
  }
}

void Cluster::run() {
  if (shards_.empty()) return;
  const int w = effective_workers();
  const int n = static_cast<int>(shards_.size());
  errors_.assign(shards_.size(), nullptr);
  std::exception_ptr merge_error;
  bool stop = false;  // set only by `step`; workers read it after the barrier
  parallel_ = true;

  // The step between windows runs once here, then as the barrier's
  // completion on the last worker to arrive while the others wait in it:
  // the merge is single-threaded and ordered after every shard's window.
  auto step = [this, &merge_error, &stop]() noexcept {
    for (const std::exception_ptr& e : errors_)
      if (e) stop = true;
    SimTime m = kTimeInfinity;
    if (!stop) {
      try {
        deliver_outboxes();
        m = min_next_event();
      } catch (...) {
        merge_error = std::current_exception();
      }
    }
    stop = m == kTimeInfinity;
    if (stop) return;
    horizon_ = Engine::saturating_add(m, lookahead_);  // no seam: infinite
    ++windows_;
  };
  step();
  std::barrier window(w, step);

  std::vector<std::thread> pool;
  for (int wk = 0; wk < w; ++wk) {
    pool.emplace_back([this, wk, w, n, &window, &stop] {
      while (!stop) {
        // Static pinning: shard k always runs on worker k % w, so the
        // thread_local frame/message pools act as per-shard pools.
        for (int r = wk; r < n; r += w) {
          if (shards_[r] == nullptr) continue;
          try {
            shards_[r]->run_window(horizon_);
          } catch (...) {
            errors_[r] = std::current_exception();
          }
        }
        window.arrive_and_wait();
      }
    });
  }
  for (std::thread& t : pool) t.join();
  parallel_ = false;
  if (merge_error) std::rethrow_exception(merge_error);
  deliver_outboxes();  // a failed window's sends, for post-mortem inspection
  for (const std::exception_ptr& e : errors_)  // lowest rank rethrows
    if (e) std::rethrow_exception(e);
}

std::uint64_t Cluster::events_processed() const {
  std::uint64_t total = 0;
  for (const Engine* e : shards_)
    if (e != nullptr) total += e->events_processed();
  return total;
}

std::uint64_t Cluster::cross_posts() const noexcept {
  std::uint64_t total = 0;
  for (const auto& ob : outboxes_) total += ob->next_seq;
  return total;
}

}  // namespace e2e::sim
