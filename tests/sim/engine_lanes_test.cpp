// Deterministic performance gate for sim::Engine's pending stores (ctest
// label `perf`). A kv-shaped schedule — every call arms a 5 ms retry timer
// that nearly always fires as a no-op, then hops through zero-delay
// wakeups and a few short service delays — must keep the timers and the
// hops out of the 4-ary heap: only the short delays may sift, so the heap
// holds the few live events, not thousands of dead timers. The hops and
// delays resume the worker coroutine directly (Engine::resume_at), so only
// the timers are closures. Counters, not wall time, are the gate.
#include <gtest/gtest.h>

#include <coroutine>
#include <cstdint>

#include "sim/engine.hpp"
#include "sim/task.hpp"

namespace e2e::sim {
namespace {

constexpr int kWorkers = 8;
constexpr std::uint64_t kCallsPerWorker = 4000;
constexpr int kHops = 9;    // zero-delay wakeups per call
constexpr int kDelays = 3;  // short service delays per call

struct Counts {
  std::uint64_t calls = 0, delays = 0;
  std::size_t peak_depth = 0;
};

// Resumes the awaiting coroutine `d` ns from now through the engine, even
// at d == 0 (a zero-delay wakeup, like a channel or semaphore hand-off).
struct After {
  Engine& eng;
  SimDuration d;
  bool await_ready() const noexcept { return false; }
  void await_suspend(std::coroutine_handle<> h) const {
    eng.resume_at(eng.now() + d, h);
  }
  void await_resume() const noexcept {}
};

// One closed-loop worker: a call is a retry timer, then kHops + kDelays
// steps; every (kHops / kDelays + 1)th step is a delay, the rest are hops.
Task<> worker(Engine& eng, Counts& counts, std::uint64_t rng) {
  for (std::uint64_t call = 0; call < kCallsPerWorker; ++call) {
    eng.schedule_after(5 * kMillisecond, [] {});
    ++counts.calls;
    for (int step = 0; step < kHops + kDelays; ++step) {
      if (eng.queue_depth() > counts.peak_depth)
        counts.peak_depth = eng.queue_depth();
      SimDuration d = 0;
      if (step % (kHops / kDelays + 1) == kHops / kDelays) {
        rng = rng * 6364136223846793005ULL + 1442695040888963407ULL;
        ++counts.delays;
        d = 100 + static_cast<SimDuration>((rng >> 33) % 1900);
      }
      co_await After{eng, d};
    }
  }
}

TEST(EngineLanes, KvShapedScheduleKeepsTimersAndHopsOutOfTheHeap) {
  Engine eng;
  Counts counts;
  for (int w = 0; w < kWorkers; ++w)
    co_spawn(worker(eng, counts, static_cast<std::uint64_t>(w)));
  eng.run();

  const std::uint64_t pushes = eng.events_processed();
  ASSERT_EQ(counts.calls, kWorkers * kCallsPerWorker);
  ASSERT_EQ(pushes, counts.calls * (1 + kHops + kDelays));
  // Thousands of 5 ms timers were pending at once: the shape kv has.
  EXPECT_GT(counts.peak_depth, 1000u);
  // Only the short delays ever reach the heap — never a timer or a hop —
  // so at most kDelays of every 1 + kHops + kDelays pushes sift.
  EXPECT_LE(eng.heap_pushes(), counts.delays);
  EXPECT_LE(eng.heap_pushes() * (1 + kHops + kDelays), pushes * kDelays);
  EXPECT_EQ(eng.clamped_schedules(), 0u);
  // Only the timers went through an EventFn slot.
  EXPECT_EQ(eng.closure_events(), counts.calls);
}

}  // namespace
}  // namespace e2e::sim
