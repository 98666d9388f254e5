#include "sim/engine.hpp"

#include <utility>

#include "sim/cluster.hpp"
#include "sim/resource.hpp"

namespace e2e::sim {

Engine::~Engine() {
  if (cluster_ != nullptr) cluster_->detach(*this);
}

void Engine::ff_mark() {
  ff_epochs_[ff_marks_++ % 3] = resource_epoch_;
  notify([](Observer& o) { o.ff_mark(); });
  for (Resource* r : resources_) r->ff_mark();
}

bool Engine::ff_repeats() const {
  if (ff_marks_ < 3 || ff_epochs_[0] != ff_epochs_[1] ||
      ff_epochs_[1] != ff_epochs_[2])
    return false;
  for (const Observer* o : observers_)
    if (o != nullptr && !o->ff_repeats()) return false;
  for (const Resource* r : resources_)
    if (!r->ff_repeats()) return false;
  return true;
}

void Engine::ff_advance(std::uint64_t k) {
  notify([k](Observer& o) { o.ff_advance(k); });
  for (Resource* r : resources_) r->ff_advance(k);
}

// Sift operations move 24-byte POD keys only; closures stay put in slots_
// until dispatch, so reordering the heap never runs a relocate thunk and a
// sift touches at most log4(n) contiguous cache lines. Only events neither
// lane can take reach the heap at all.

std::uint32_t Engine::claim_slot(EventFn&& fn) {
  if (!free_slots_.empty()) {
    const std::uint32_t s = free_slots_.back();
    free_slots_.pop_back();
    slots_[s] = std::move(fn);
    return s;
  }
  const std::uint32_t s = static_cast<std::uint32_t>(slots_.size());
  slots_.push_back(std::move(fn));
  return s;
}

void Engine::sift_up(std::size_t i) {
  const Event e = heap_[i];
  while (i > 0) {
    const std::size_t parent = (i - 1) / kArity;
    if (!before(e, heap_[parent])) break;
    heap_[i] = heap_[parent];
    i = parent;
  }
  heap_[i] = e;
}

void Engine::sift_down(std::size_t i) {
  const std::size_t n = heap_.size();
  const Event e = heap_[i];
  for (;;) {
    const std::size_t first = i * kArity + 1;
    if (first >= n) break;
    std::size_t best = first;
    const std::size_t last = first + kArity < n ? first + kArity : n;
    for (std::size_t c = first + 1; c < last; ++c)
      if (before(heap_[c], heap_[best])) best = c;
    if (!before(heap_[best], e)) break;
    heap_[i] = heap_[best];
    i = best;
  }
  heap_[i] = e;
}

std::uint32_t Engine::schedule_at(SimTime t, EventFn fn) {
  const std::uint32_t slot = claim_slot(std::move(fn));
  push(t, (std::uint64_t{slot} << 1) | kClosureTag);
  return slot;
}

void Engine::push(SimTime t, std::uint64_t payload) {
  if (t < now_) {
    t = now_;
    ++clamped_schedules_;
  }
  const Event e{t, next_seq_++, payload};
  // A lane takes the event only where it stays sorted on (t, seq): seq
  // grows with every call, so the now lane (t == now_, and now_ never
  // decreases) and the tail lane (t >= back) are sorted by construction.
  if (t == now_) {
    now_lane_.push_back(e);
  } else if (tail_.empty() || t >= tail_.back().t) {
    tail_.push_back(e);
  } else {
    heap_.push_back(e);
    sift_up(heap_.size() - 1);
    ++heap_pushes_;
  }
}

void Engine::dispatch(Store s, Event top) {
  if (s == Store::kNow) {
    now_lane_.pop_front();
  } else if (s == Store::kTail) {
    tail_.pop_front();
  } else if (heap_.size() > 1) {
    heap_.front() = heap_.back();
    heap_.pop_back();
    sift_down(0);
  } else {
    heap_.pop_back();
  }
  if (top.t > sample_at_ &&
      ((top.payload & kClosureTag) == 0 || slots_[top.payload >> 1]))
    sample_until(top.t);  // a retracted closure never moves the clock
  if ((top.payload & kClosureTag) == 0) {
    now_ = top.t;
    ++events_processed_;
    std::coroutine_handle<>::from_address(
        reinterpret_cast<void*>(static_cast<std::uintptr_t>(top.payload)))
        .resume();
    return;
  }
  // Move the callback out and free its slot first: fn may schedule events.
  const auto slot = static_cast<std::uint32_t>(top.payload >> 1);
  EventFn fn = std::move(slots_[slot]);
  free_slots_.push_back(slot);
  if (!fn) return;  // retracted
  now_ = top.t;
  ++events_processed_;
  ++closure_events_;
  fn();
}

void Engine::sample_until(SimTime t) {
  Observer* tracer = observers_[Observer::kTrace];
  if (tracer == nullptr) {  // uninstalled: its sampling ends with it
    sample_at_ = kTimeInfinity;
    return;
  }
  for (; sample_at_ < t; sample_at_ += sample_period_)
    tracer->on_sample(sample_at_);
}

void Engine::run() {
  stopped_ = false;
  while (!stopped_) {
    const Next n = peek();
    if (n.event == nullptr) break;
    dispatch(n.store, *n.event);
  }
}

std::uint64_t Engine::run_until(SimTime t) {
  stopped_ = false;
  const std::uint64_t before_count = events_processed_;
  while (!stopped_) {
    const Next n = peek();
    if (n.event == nullptr || n.event->t > t) break;
    dispatch(n.store, *n.event);
  }
  if (!stopped_ && now_ < t) now_ = t;
  return events_processed_ - before_count;
}

std::uint64_t Engine::run_window(SimTime horizon) {
  stopped_ = false;
  const std::uint64_t before_count = events_processed_;
  while (!stopped_) {
    const Next n = peek();
    if (n.event == nullptr || n.event->t >= horizon) break;
    dispatch(n.store, *n.event);
  }
  return events_processed_ - before_count;
}

void Engine::cross_post(Engine& dst, SimTime t, EventFn fn) {
  if (&dst == this || cluster_ == nullptr || dst.cluster_ != cluster_) {
    dst.schedule_at(t, std::move(fn));
    return;
  }
  cluster_->post(rank_, dst.rank_, t, std::move(fn));
}

}  // namespace e2e::sim
