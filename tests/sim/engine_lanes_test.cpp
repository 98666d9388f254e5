// Deterministic performance gate for sim::Engine's pending stores (ctest
// label `perf`). A kv-shaped schedule — every call arms a 5 ms retry timer
// that nearly always fires as a no-op, then hops through zero-delay
// wakeups and a few short service delays — must keep the timers and the
// hops out of the 4-ary heap: only the short delays may sift, so the heap
// holds the few live events, not thousands of dead timers. Counters, not
// wall time, are the gate.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "sim/engine.hpp"

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

// One closed-loop worker: a call is a retry timer, then kHops + kDelays
// steps; every (kHops / kDelays + 1)th step is a delay, the rest are hops.
struct Worker {
  Engine* eng;
  Counts* counts;
  std::uint64_t rng;
  std::uint64_t calls = 0;
  int step = 0;

  void start_call() {
    eng->schedule_after(5 * kMillisecond, [] {});
    ++counts->calls;
    step = 0;
    next();
  }
  void next() {
    if (eng->queue_depth() > counts->peak_depth)
      counts->peak_depth = eng->queue_depth();
    if (step == kHops + kDelays) {
      if (++calls < kCallsPerWorker) start_call();
      return;
    }
    const bool delay = step % (kHops / kDelays + 1) == kHops / kDelays;
    ++step;
    if (delay) {
      rng = rng * 6364136223846793005ULL + 1442695040888963407ULL;
      ++counts->delays;
      eng->schedule_after(100 + (rng >> 33) % 1900, [this] { next(); });
    } else {
      eng->schedule_after(0, [this] { next(); });
    }
  }
};

TEST(EngineLanes, KvShapedScheduleKeepsTimersAndHopsOutOfTheHeap) {
  Engine eng;
  Counts counts;
  std::vector<Worker> workers;
  workers.reserve(kWorkers);
  for (int w = 0; w < kWorkers; ++w)
    workers.push_back(Worker{&eng, &counts, static_cast<std::uint64_t>(w)});
  for (Worker& w : workers) w.start_call();
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
}

}  // namespace
}  // namespace e2e::sim
