#include "exp/runner.hpp"

#include <gtest/gtest.h>

#include <ostream>
#include <stdexcept>

#include "exp/scenarios.hpp"
#include "sim/sim.hpp"

#if defined(__has_feature)
#if __has_feature(address_sanitizer)
#define E2E_HAS_LSAN 1
#endif
#elif defined(__SANITIZE_ADDRESS__)
#define E2E_HAS_LSAN 1
#endif
#ifdef E2E_HAS_LSAN
#include <sanitizer/lsan_interface.h>
#endif

namespace e2e::exp {
namespace {

sim::Task<int> value_after(sim::Engine& eng, sim::SimDuration d, int v) {
  co_await sim::Delay{eng, d};
  co_return v;
}

TEST(Runner, ReturnsTaskValue) {
  sim::Engine eng;
  EXPECT_EQ(run_task(eng, value_after(eng, 100, 42)), 42);
  EXPECT_EQ(eng.now(), 100u);
}

sim::Task<> throws_runtime(sim::Engine& eng) {
  co_await sim::Delay{eng, 10};
  throw std::runtime_error("boom");
}

TEST(Runner, PropagatesExceptions) {
  sim::Engine eng;
  EXPECT_THROW(run_task(eng, throws_runtime(eng)), std::runtime_error);
}

sim::Task<int> throws_with_value(sim::Engine& eng) {
  co_await sim::Delay{eng, 10};
  throw std::logic_error("boom");
  co_return 1;
}

TEST(Runner, PropagatesExceptionsFromValueTasks) {
  sim::Engine eng;
  EXPECT_THROW(run_task(eng, throws_with_value(eng)), std::logic_error);
}

sim::Task<> waits_forever(sim::ManualEvent& ev) { co_await ev.wait(); }

TEST(Runner, DetectsDeadlock) {
  sim::Engine eng;
  sim::ManualEvent never(eng);
  // The deadlocked coroutine frame is never resumed and so never freed —
  // that leak is the scenario under test, not a bug; hide it from LSan.
#ifdef E2E_HAS_LSAN
  __lsan_disable();
#endif
  EXPECT_THROW(run_task(eng, waits_forever(never)), std::runtime_error);
#ifdef E2E_HAS_LSAN
  __lsan_enable();
#endif
}

TEST(Runner, NestedRunTasksCompose) {
  sim::Engine eng;
  const int v = run_task(eng, value_after(eng, 5, 1));
  const int w = run_task(eng, value_after(eng, 5, 2));
  EXPECT_EQ(v + w, 3);
  EXPECT_EQ(eng.now(), 10u);
}

// A scripted receiver crash on the WAN rig goes through run_transfer's
// session attach: one negotiated resume, one MTTR sample, the data intact.
TEST(Runner, WanCrashPlanResumesOnce) {
  const auto r = run_transfer(
      {.rig = Rig::kWan,
       .bytes = 2ull << 30,
       .fault_plan = fault::FaultPlan::parse("crash@300ms:host=1,down=50ms"),
       .obs = {.stats = true}});
  EXPECT_TRUE(r.transfer.complete);
  EXPECT_TRUE(r.transfer.integrity_ok);
  EXPECT_EQ(r.transfer.resumes, 1u);
  EXPECT_EQ(r.mttr_hist.count(), 1u);
}

// A fast-forwarded run's window spans the modeled time it skipped: the
// CPU percentages over it read the same as the event-exact run's.
TEST(Runner, FastForwardWindowMatchesExact) {
  const TransferParams exact{.rig = Rig::kWan, .bytes = 64ull << 30};
  TransferParams ff = exact;
  ff.fast_forward = true;
  const auto e = run_transfer(exact);
  const auto f = run_transfer(ff);
  ASSERT_GT(f.transfer.ff_spans, 0u);
  EXPECT_EQ(f.window, e.window);
  EXPECT_EQ(f.end, e.end);
}

// The window runs from the session's timed start to its completion, so it
// is the transfer's elapsed time exactly. The tracer's sampler adds no
// event, so a traced run ends at the same time with the same stats.
TEST(Runner, TransferWindowEndsAtCompletion) {
  TransferParams p{.rig = Rig::kQuick, .bytes = 1ull << 30};
  p.obs.stats = true;
  const auto plain = run_transfer(p);
  ASSERT_TRUE(plain.transfer.complete);
  EXPECT_EQ(sim::to_seconds(plain.window), plain.transfer.elapsed_s);

  std::ostream discard(nullptr);
  p.obs.trace = &discard;
  const auto traced = run_transfer(p);
  ASSERT_TRUE(traced.transfer.complete);
  EXPECT_EQ(traced.end, plain.end);
  EXPECT_EQ(traced.window, plain.window);
  EXPECT_EQ(traced.stats_dump, plain.stats_dump);
}

}  // namespace
}  // namespace e2e::exp
