// Unit tests for the unified watchdog/deadline hierarchy: the Backoff
// retry schedule (extracted from the iSER supervisor), the grow timeout
// law (extracted from the iSCSI initiator), and the quiet-period Watchdog
// that declares a silent peer dead.
#include "fault/watchdog.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "sim/engine.hpp"

namespace e2e::fault {
namespace {

// ---------------------------------------------------------------------------
// Backoff

TEST(Backoff, GrowsExponentiallyAndRespectsCap) {
  // jitter = 0: the schedule is exactly the multiply-and-cap ladder.
  Backoff b(sim::kMillisecond, 2.0, 8 * sim::kMillisecond, 0.0, 1);
  EXPECT_EQ(b.next(), 1 * sim::kMillisecond);
  EXPECT_EQ(b.next(), 2 * sim::kMillisecond);
  EXPECT_EQ(b.next(), 4 * sim::kMillisecond);
  EXPECT_EQ(b.next(), 8 * sim::kMillisecond);
  EXPECT_EQ(b.next(), 8 * sim::kMillisecond);  // capped forever after
  EXPECT_EQ(b.attempts(), 5);
}

TEST(Backoff, JitterStaysWithinConfiguredFraction) {
  const double jitter = 0.25;
  Backoff b(sim::kMillisecond, 2.0, 50 * sim::kMillisecond, jitter, 42);
  sim::SimDuration expected = sim::kMillisecond;
  for (int i = 0; i < 8; ++i) {
    const auto d = b.next();
    EXPECT_GE(d, expected);
    EXPECT_LE(d, static_cast<sim::SimDuration>(
                     static_cast<double>(expected) * (1.0 + jitter)));
    expected = std::min(expected * 2, 50 * sim::kMillisecond);
  }
}

TEST(Backoff, SameSeedProducesIdenticalSchedule) {
  Backoff a(sim::kMillisecond, 2.0, 50 * sim::kMillisecond, 0.2, 0xC0FFEE);
  Backoff b(sim::kMillisecond, 2.0, 50 * sim::kMillisecond, 0.2, 0xC0FFEE);
  std::vector<sim::SimDuration> sa, sb;
  for (int i = 0; i < 10; ++i) {
    sa.push_back(a.next());
    sb.push_back(b.next());
  }
  EXPECT_EQ(sa, sb);

  Backoff c(sim::kMillisecond, 2.0, 50 * sim::kMillisecond, 0.2, 0xDEAD);
  bool any_diff = false;
  for (const auto d : sa) any_diff |= c.next() != d;
  EXPECT_TRUE(any_diff);
}

TEST(Backoff, ResetRestartsFromBase) {
  Backoff b(sim::kMillisecond, 2.0, 50 * sim::kMillisecond, 0.0, 1);
  (void)b.next();
  (void)b.next();
  EXPECT_EQ(b.attempts(), 2);
  b.reset();
  EXPECT_EQ(b.attempts(), 0);
  EXPECT_EQ(b.next(), sim::kMillisecond);
}

TEST(Backoff, JitterDrawIsUnconditional) {
  // Even with jitter = 0 the RNG advances per next(), so a policy that
  // later enables jitter replays the identical decision stream.
  Backoff z(sim::kMillisecond, 2.0, 50 * sim::kMillisecond, 0.0, 7);
  (void)z.next();
  (void)z.next();
  // No crash / no state divergence to observe directly here beyond the
  // schedule staying deterministic; the property that matters is pinned
  // in the iSER supervisor equivalence (recovery tests).
  EXPECT_EQ(z.attempts(), 2);
}

// ---------------------------------------------------------------------------
// grow (the iSCSI timeout law)

TEST(TimeoutLaws, GrowIsCappedOnlyWhenCapSet) {
  EXPECT_EQ(grow(10 * sim::kMillisecond, 2.0, 0), 20 * sim::kMillisecond);
  EXPECT_EQ(grow(10 * sim::kMillisecond, 2.0, 15 * sim::kMillisecond),
            15 * sim::kMillisecond);
  EXPECT_EQ(grow(10 * sim::kMillisecond, 1.5, 0), 15 * sim::kMillisecond);
}

// ---------------------------------------------------------------------------
// Watchdog

struct WatchdogTest : ::testing::Test {
  sim::Engine eng;
  Watchdog wd{eng};
  int deaths = 0;
  Deadline dl{10 * sim::kMillisecond, 3};

  void arm() {
    wd.arm(dl, [this] { ++deaths; });
  }
};

TEST_F(WatchdogTest, RegularKicksKeepThePeerAlive) {
  arm();
  for (int i = 1; i <= 20; ++i)
    eng.schedule_after(i * 5 * sim::kMillisecond, [this] { wd.kick(); });
  eng.schedule_after(110 * sim::kMillisecond, [this] { wd.disarm(); });
  eng.run();
  EXPECT_EQ(deaths, 0);
  EXPECT_FALSE(wd.declared_dead());
  EXPECT_EQ(wd.suspicions(), 0u);
  EXPECT_EQ(wd.false_suspicions(), 0u);
}

TEST_F(WatchdogTest, ConsecutiveQuietPeriodsDeclareDeadExactlyOnce) {
  arm();
  eng.run();  // no kicks: checks at 10/20/30 ms stack to max_quiet
  EXPECT_EQ(deaths, 1);
  EXPECT_TRUE(wd.declared_dead());
  EXPECT_FALSE(wd.armed());
  EXPECT_EQ(wd.suspicions(), 3u);
  EXPECT_EQ(eng.now(), 30 * sim::kMillisecond);
}

TEST_F(WatchdogTest, SlowPeerIsAFalseSuspicionNotADeath) {
  arm();
  // Check @10ms raises a suspicion; the kick @15ms clears it @20ms.
  eng.schedule_after(15 * sim::kMillisecond, [this] { wd.kick(); });
  eng.schedule_after(25 * sim::kMillisecond, [this] { wd.disarm(); });
  int false_suspects = 0;
  wd.set_false_suspect_handler([&false_suspects] { ++false_suspects; });
  eng.run();
  EXPECT_EQ(deaths, 0);
  EXPECT_FALSE(wd.declared_dead());
  EXPECT_EQ(wd.suspicions(), 1u);
  EXPECT_EQ(wd.false_suspicions(), 1u);
  EXPECT_EQ(false_suspects, 1);
}

TEST_F(WatchdogTest, DisarmStopsChecksAndRearmStartsFresh) {
  arm();
  eng.schedule_after(15 * sim::kMillisecond, [this] { wd.disarm(); });
  eng.run();
  EXPECT_EQ(deaths, 0);
  EXPECT_FALSE(wd.armed());

  // Re-arm after a disarm: full quiet budget again.
  arm();
  EXPECT_TRUE(wd.armed());
  // Arming while armed replaces the pending check: the budget restarts at
  // 20 ms, and one check stacks 30/40/50 ms to it.
  eng.schedule_at(20 * sim::kMillisecond, [this] { arm(); });
  eng.run();
  EXPECT_EQ(deaths, 1);
  EXPECT_TRUE(wd.declared_dead());
  EXPECT_EQ(wd.suspicions(), 4u);  // the first arm's 10 ms check, then 3
  EXPECT_EQ(eng.now(), 50 * sim::kMillisecond);
}

TEST_F(WatchdogTest, KickAfterSuspicionResetsQuietBudget) {
  arm();
  // Suspicions at 10 and 20 ms (budget 3); the kick at 25 ms clears the
  // stack at 30 ms, so death would need three more quiet periods.
  eng.schedule_after(25 * sim::kMillisecond, [this] { wd.kick(); });
  eng.run();
  EXPECT_EQ(deaths, 1);
  // 30 ms clears, then 40/50/60 ms stack to the budget.
  EXPECT_EQ(eng.now(), 60 * sim::kMillisecond);
  EXPECT_EQ(wd.false_suspicions(), 1u);
}

TEST_F(WatchdogTest, DisarmEndsTheRunAtTheDisarm) {
  // The check pending at 20 ms is retracted, not left to drain.
  arm();
  eng.schedule_after(15 * sim::kMillisecond, [this] { wd.disarm(); });
  eng.run();
  EXPECT_EQ(eng.now(), 15 * sim::kMillisecond);
  EXPECT_EQ(eng.queue_depth(), 0u);
  EXPECT_EQ(wd.suspicions(), 1u);  // the 10 ms check
}

}  // namespace
}  // namespace e2e::fault
