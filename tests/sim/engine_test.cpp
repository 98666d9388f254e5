#include "sim/engine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <coroutine>
#include <cstdint>
#include <exception>
#include <functional>
#include <ostream>
#include <queue>
#include <vector>

namespace e2e::sim {
namespace {

TEST(Engine, StartsAtTimeZero) {
  Engine eng;
  EXPECT_EQ(eng.now(), 0u);
  EXPECT_EQ(eng.queue_depth(), 0u);
  EXPECT_EQ(eng.events_processed(), 0u);
}

TEST(Engine, RunsEventsInTimeOrder) {
  Engine eng;
  std::vector<int> order;
  eng.schedule_at(30, [&] { order.push_back(3); });
  eng.schedule_at(10, [&] { order.push_back(1); });
  eng.schedule_at(20, [&] { order.push_back(2); });
  eng.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(eng.now(), 30u);
}

TEST(Engine, SameTimestampFiresInSchedulingOrder) {
  Engine eng;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i)
    eng.schedule_at(5, [&order, i] { order.push_back(i); });
  eng.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(Engine, PastEventsClampToNow) {
  Engine eng;
  eng.schedule_at(100, [] {});
  eng.run();
  ASSERT_EQ(eng.now(), 100u);
  SimTime fired_at = 0;
  eng.schedule_at(50, [&] { fired_at = eng.now(); });  // in the past
  eng.run();
  EXPECT_EQ(fired_at, 100u);
  EXPECT_EQ(eng.clamped_schedules(), 1u);
}

TEST(Engine, EventsMayScheduleMoreEvents) {
  Engine eng;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 5) eng.schedule_after(10, recurse);
  };
  eng.schedule_after(10, recurse);
  eng.run();
  EXPECT_EQ(depth, 5);
  EXPECT_EQ(eng.now(), 50u);
}

TEST(Engine, RunUntilExecutesOnlyDueEventsAndAdvancesClock) {
  Engine eng;
  int fired = 0;
  eng.schedule_at(10, [&] { ++fired; });
  eng.schedule_at(20, [&] { ++fired; });
  eng.schedule_at(30, [&] { ++fired; });
  EXPECT_EQ(eng.run_until(20), 2u);
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(eng.now(), 20u);
  EXPECT_EQ(eng.next_event_time(), 30u);
}

TEST(Engine, RunUntilAdvancesClockOnEmptyQueue) {
  Engine eng;
  eng.run_until(1000);
  EXPECT_EQ(eng.now(), 1000u);
  EXPECT_EQ(eng.next_event_time(), kTimeInfinity);
}

TEST(Engine, StopHaltsDispatch) {
  Engine eng;
  int fired = 0;
  eng.schedule_at(10, [&] {
    ++fired;
    eng.stop();
  });
  eng.schedule_at(20, [&] { ++fired; });
  eng.run();
  EXPECT_EQ(fired, 1);
  eng.run();  // resumes
  EXPECT_EQ(fired, 2);
}

TEST(Engine, EventsProcessedCounts) {
  Engine eng;
  for (int i = 0; i < 7; ++i) eng.schedule_after(i, [] {});
  eng.run();
  EXPECT_EQ(eng.events_processed(), 7u);
}

TEST(Engine, RetractedEventDrainsWithoutRunningOrMovingTheClock) {
  Engine eng;
  int fired = 0;
  eng.schedule_at(10, [&] { ++fired; });
  eng.retract(eng.schedule_at(30, [&] { fired += 100; }));
  eng.run();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(eng.now(), 10u);
  EXPECT_EQ(eng.events_processed(), 1u);
  EXPECT_EQ(eng.closure_events(), 1u);
  // The drained slot serves later events as usual.
  eng.schedule_at(40, [&] { ++fired; });
  eng.run();
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(eng.now(), 40u);
}

TEST(Engine, IdleIgnoresRetractedEvents) {
  Engine eng;
  int fired = 0;
  eng.schedule_at(10, [&] { ++fired; });
  eng.retract(eng.schedule_at(30, [&] { ++fired; }));
  eng.run_until(10);
  EXPECT_EQ(eng.queue_depth(), 1u);  // only the retracted event is pending
  eng.run();  // drains it without running, moving the clock or counting
  EXPECT_EQ(eng.queue_depth(), 0u);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(eng.now(), 10u);
  EXPECT_EQ(eng.events_processed(), 1u);
}

/// Records the sample boundaries the engine hands it.
class SampleProbe final : public Observer {
 public:
  void on_sample(SimTime at) override { stamps.push_back(at); }
  [[nodiscard]] bool ff_repeats() const override { return true; }
  std::vector<SimTime> stamps;
};

TEST(Engine, SamplesReachOnlyTheTraceSlot) {
  Engine eng;
  SampleProbe trace, stats;
  eng.set_observer(Observer::kTrace, &trace);
  eng.set_observer(Observer::kStats, &stats);
  eng.set_sample_period(10);
  eng.retract(eng.schedule_at(45, [] {}));  // drains without sampling
  eng.schedule_at(35, [] {});
  eng.run();
  EXPECT_EQ(trace.stamps, (std::vector<SimTime>{10, 20, 30}));
  EXPECT_TRUE(stats.stamps.empty());
  EXPECT_EQ(eng.events_processed(), 1u);
  eng.set_observer(Observer::kTrace, nullptr);  // sampling ends with it
  eng.schedule_at(100, [] {});
  eng.run();
  EXPECT_EQ(trace.stamps.size(), 3u);
  EXPECT_TRUE(stats.stamps.empty());
}

TEST(Engine, SaturatingAddCapsAtInfinity) {
  EXPECT_EQ(Engine::saturating_add(kTimeInfinity, 1), kTimeInfinity);
  EXPECT_EQ(Engine::saturating_add(kTimeInfinity - 5, 10), kTimeInfinity);
  EXPECT_EQ(Engine::saturating_add(5, 10), 15u);
}

TEST(Engine, RunForIsRelative) {
  Engine eng;
  eng.run_until(100);
  int fired = 0;
  eng.schedule_after(50, [&] { ++fired; });
  eng.run_for(49);
  EXPECT_EQ(fired, 0);
  eng.run_for(1);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(eng.now(), 150u);
}

TEST(TimeHelpers, Conversions) {
  EXPECT_DOUBLE_EQ(to_seconds(kSecond), 1.0);
  EXPECT_DOUBLE_EQ(to_seconds(500 * kMillisecond), 0.5);
  EXPECT_EQ(from_seconds(2.5), 2'500'000'000ull);
  EXPECT_EQ(from_seconds(-1.0), 0ull);
}

TEST(Engine, RunUntilCountsEventsWhenStopFiresMidRun) {
  Engine eng;
  int fired = 0;
  eng.schedule_at(10, [&] { ++fired; });
  eng.schedule_at(20, [&] {
    ++fired;
    eng.stop();
  });
  eng.schedule_at(30, [&] { ++fired; });
  // The return value is an events_processed() delta, so stopping mid-run
  // still reports both dispatched events.
  EXPECT_EQ(eng.run_until(100), 2u);
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(eng.now(), 20u);  // clock does not jump to the horizon
  EXPECT_EQ(eng.run_until(100), 1u);
  EXPECT_EQ(eng.now(), 100u);
}

TEST(Engine, RunUntilCountStaysCorrectWhenEventReentersRun) {
  Engine eng;
  int inner = 0;
  eng.schedule_at(10, [&] {
    eng.schedule_at(12, [&] { ++inner; });
    eng.run_until(15);  // nested run dispatches the inner event
  });
  eng.schedule_at(20, [&] {});
  const std::uint64_t n = eng.run_until(30);
  EXPECT_EQ(inner, 1);
  // Outer delta includes the nested dispatch exactly once.
  EXPECT_EQ(n, 3u);
  EXPECT_EQ(eng.events_processed(), 3u);
}

TEST(Engine, PastScheduleDuringDispatchRunsSameInstant) {
  Engine eng;
  std::vector<int> order;
  eng.schedule_at(50, [&] {
    order.push_back(1);
    eng.schedule_at(7, [&] { order.push_back(2); });  // clamped to now()=50
  });
  eng.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_EQ(eng.now(), 50u);
}

TEST(Engine, QueueCapacityIsReusedAcrossChurn) {
  Engine eng;
  eng.reserve(512);
  const std::size_t cap = eng.queue_capacity();
  EXPECT_GE(cap, 512u);
  // Push/pop far more events than the reservation, never holding more than
  // the reserved depth: steady-state churn must not grow the vector.
  for (int round = 0; round < 20; ++round) {
    for (int i = 0; i < 500; ++i) eng.schedule_after(1 + i % 13, [] {});
    eng.run();
  }
  EXPECT_EQ(eng.queue_capacity(), cap);
  EXPECT_EQ(eng.events_processed(), 20u * 500u);
}

TEST(Engine, ManyEventsAtOneInstantKeepSchedulingOrder) {
  // Stresses the 4-ary heap's (t, seq) tie-break with a wide same-time
  // cohort interleaved with earlier and later events.
  Engine eng;
  std::vector<int> order;
  eng.schedule_at(200, [&] { order.push_back(-2); });
  for (int i = 0; i < 100; ++i)
    eng.schedule_at(100, [&order, i] { order.push_back(i); });
  eng.schedule_at(50, [&] { order.push_back(-1); });
  eng.run();
  ASSERT_EQ(order.size(), 102u);
  EXPECT_EQ(order.front(), -1);
  EXPECT_EQ(order.back(), -2);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(order[static_cast<size_t>(i) + 1], i);
}

TEST(Engine, DeterministicAcrossRuns) {
  auto run_once = [] {
    Engine eng;
    std::vector<std::pair<SimTime, int>> trace;
    for (int i = 0; i < 50; ++i)
      eng.schedule_at((i * 7919) % 100, [&trace, i, &eng] {
        trace.emplace_back(eng.now(), i);
      });
    eng.run();
    return trace;
  };
  EXPECT_EQ(run_once(), run_once());
}

// --- differential check against a one-priority-queue reference ---

// The engine's contract, written as plainly as possible: one
// std::priority_queue ordered on (t, seq), past times clamped to now.
class RefEngine {
 public:
  [[nodiscard]] SimTime now() const { return now_; }
  void schedule_at(SimTime t, std::function<void()> fn) {
    if (t < now_) {
      t = now_;
      ++clamped_;
    }
    q_.push(Key{t, fns_.size()});
    fns_.push_back(std::move(fn));
  }
  void resume_at(SimTime t, std::coroutine_handle<> h) {
    schedule_at(t, [h] { h.resume(); });
  }
  void run() {
    stopped_ = false;
    while (!q_.empty() && !stopped_) dispatch_one();
  }
  std::uint64_t run_until(SimTime t) {
    stopped_ = false;
    const std::uint64_t n0 = events_;
    while (!q_.empty() && !stopped_ && q_.top().t <= t) dispatch_one();
    if (!stopped_ && now_ < t) now_ = t;
    return events_ - n0;
  }
  std::uint64_t run_window(SimTime horizon) {
    stopped_ = false;
    const std::uint64_t n0 = events_;
    while (!q_.empty() && !stopped_ && q_.top().t < horizon) dispatch_one();
    return events_ - n0;
  }
  void stop() { stopped_ = true; }
  [[nodiscard]] SimTime next_event_time() const {
    return q_.empty() ? kTimeInfinity : q_.top().t;
  }
  [[nodiscard]] std::size_t queue_depth() const { return q_.size(); }
  [[nodiscard]] std::uint64_t clamped_schedules() const { return clamped_; }
  [[nodiscard]] std::uint64_t events_processed() const { return events_; }

 private:
  struct Key {
    SimTime t;
    std::uint64_t seq;  // scheduling order; also the index into fns_
    bool operator>(const Key& o) const {
      return t != o.t ? t > o.t : seq > o.seq;
    }
  };
  void dispatch_one() {
    const Key k = q_.top();
    q_.pop();
    now_ = k.t;
    ++events_;
    std::function<void()> fn = std::move(fns_[k.seq]);
    fn();
  }

  std::priority_queue<Key, std::vector<Key>, std::greater<>> q_;
  std::vector<std::function<void()>> fns_;
  SimTime now_ = 0;
  std::uint64_t events_ = 0, clamped_ = 0;
  bool stopped_ = false;
};

std::uint64_t splitmix(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

// What a script saw at one step: the event that fired (or a driver step,
// id < 0, with the count its run call returned) and the engine's state.
struct Step {
  std::int64_t id;
  std::uint64_t ran;
  SimTime now, next;
  std::size_t depth;
  bool idle;
  bool operator==(const Step&) const = default;
};
void PrintTo(const Step& s, std::ostream* os) {
  *os << "{id " << s.id << " ran " << s.ran << " now " << s.now << " next "
      << s.next << " depth " << s.depth << " idle " << s.idle << "}";
}

// A coroutine that starts suspended and, once resumed, runs its body to the
// end and frees its own frame: exactly one resume event per frame.
struct OneShot {
  struct promise_type {
    OneShot get_return_object() noexcept {
      return {std::coroutine_handle<promise_type>::from_promise(*this)};
    }
    std::suspend_always initial_suspend() noexcept { return {}; }
    std::suspend_never final_suspend() noexcept { return {}; }
    void return_void() noexcept {}
    void unhandled_exception() noexcept { std::terminate(); }
  };
  std::coroutine_handle<> handle;
};

// A seeded random schedule driven through any engine with the Engine API.
// Every choice is a function of the seed, an event's id (ids are handed
// out in scheduling order) and the engine's observed state, so two engines
// with the same dispatch order record the same steps.
template <typename Sim>
class Script {
 public:
  Script(Sim& sim, std::uint64_t seed) : sim_(sim), seed_(seed) {}

  std::vector<Step> play() {
    std::uint64_t r = splitmix(seed_);
    for (int i = 0; i < 8; ++i) spawn(r = splitmix(r));
    for (int round = 0; round < 4000 && (!idle() || ids_ < kBudget);
         ++round) {
      r = splitmix(r);
      const SimTime next = sim_.next_event_time();
      const SimTime at = idle() ? sim_.now() + 50 : next;
      std::uint64_t ran = 0;
      switch (r % 8) {
        case 0:  // horizon exactly on a pending timestamp, or just past it
        case 1:
          ran = sim_.run_until(at + ((r >> 8) % 3) * 10);
          break;
        case 2:  // window bound on a pending timestamp (exclusive)
        case 3:
          ran = sim_.run_window(at + ((r >> 8) % 2) * 10);
          break;
        case 4:
          ran = sim_.run_until(sim_.now() + (r >> 8) % 40);
          break;
        case 5:  // schedule from outside any callback
          for (int i = 0; i < 3; ++i) spawn(r = splitmix(r));
          break;
        case 6:
          if ((r >> 8) % 8 == 0) ran = sim_.run();
          break;
        default:
          ran = sim_.run_window(sim_.now() + (r >> 8) % 100);
          break;
      }
      log(-1 - static_cast<std::int64_t>(r % 8), ran);
    }
    sim_.run();
    log(-100, 0);
    return steps_;
  }

  [[nodiscard]] std::uint64_t resumes() const { return resumes_; }

 private:
  static constexpr std::uint64_t kBudget = 3000;

  [[nodiscard]] bool idle() const { return sim_.queue_depth() == 0; }

  void log(std::int64_t id, std::uint64_t ran) {
    steps_.push_back(Step{id, ran, sim_.now(), sim_.next_event_time(),
                          sim_.queue_depth(), idle()});
  }

  // One new event at a time chosen by `r`: a zero-delay hop, one of two
  // fixed-delay timers, a random delay on a coarse grid (many equal
  // timestamps), a past time (clamped), or exactly the next pending time.
  // About a third of them resume a coroutine frame instead of running a
  // closure, so both payload kinds share every store and tie-break.
  void spawn(std::uint64_t r) {
    if (ids_ >= kBudget) return;
    const SimTime now = sim_.now();
    SimTime t = now;
    switch (r % 6) {
      case 0: break;
      case 1: t = now + 5000; break;
      case 2: t = now + 3000; break;
      case 3: t = now + ((r >> 8) % 30) * 10; break;
      case 4: t = now - std::min<SimTime>(now, (r >> 8) % 100); break;
      default:
        t = idle() ? now + 10 : sim_.next_event_time();
        break;
    }
    const auto id = static_cast<std::int64_t>(ids_++);
    if ((r >> 40) % 3 == 0) {
      const std::coroutine_handle<> h = resumed(id).handle;
      EXPECT_EQ(reinterpret_cast<std::uintptr_t>(h.address()) & 1, 0u)
          << "frame address collides with the closure tag";
      ++resumes_;
      sim_.resume_at(t, h);
    } else {
      sim_.schedule_at(t, [this, id] { fire(id); });
    }
  }

  OneShot resumed(std::int64_t id) {
    fire(id);
    co_return;
  }

  void fire(std::int64_t id) {
    log(id, 0);
    std::uint64_t r =
        splitmix(seed_ ^ splitmix(static_cast<std::uint64_t>(id)));
    const std::uint64_t children = r % 4;
    for (std::uint64_t c = 0; c < children; ++c) spawn(r = splitmix(r));
    if ((r >> 16) % 64 == 0) sim_.stop();
    log(id, 1);
  }

  Sim& sim_;
  std::uint64_t seed_;
  std::uint64_t ids_ = 0, resumes_ = 0;
  std::vector<Step> steps_;
};

// run() returns void; the script logs the events it dispatched.
template <typename Base>
struct Counted : Base {
  std::uint64_t run() {
    const std::uint64_t n0 = Base::events_processed();
    Base::run();
    return Base::events_processed() - n0;
  }
};

TEST(Engine, MatchesPriorityQueueReferenceOnRandomSchedules) {
  std::uint64_t heap = 0, lane = 0, resumes = 0, closures = 0;
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    Counted<Engine> eng;
    Counted<RefEngine> ref;
    Script<Counted<Engine>> script(eng, seed);
    const std::vector<Step> got = script.play();
    const std::vector<Step> want =
        Script<Counted<RefEngine>>(ref, seed).play();
    ASSERT_EQ(got.size(), want.size()) << "seed " << seed;
    for (std::size_t i = 0; i < got.size(); ++i)
      ASSERT_EQ(got[i], want[i]) << "seed " << seed << " step " << i
                                 << " id " << got[i].id;
    EXPECT_EQ(eng.clamped_schedules(), ref.clamped_schedules());
    EXPECT_EQ(eng.queue_depth(), 0u);
    // Every resume key dispatched as a direct resume, every other event
    // through its closure slot.
    EXPECT_EQ(eng.events_processed() - eng.closure_events(), script.resumes())
        << "seed " << seed;
    heap += eng.heap_pushes();
    lane += eng.events_processed() - eng.heap_pushes();
    resumes += script.resumes();
    closures += eng.closure_events();
  }
  // Every store and both payload kinds took part.
  EXPECT_GT(heap, 0u);
  EXPECT_GT(lane, heap);
  EXPECT_GT(resumes, 0u);
  EXPECT_GT(closures, resumes);
}

}  // namespace
}  // namespace e2e::sim
