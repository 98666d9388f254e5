#include "fault/injector.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "exp/runner.hpp"
#include "fault/plan.hpp"
#include "testutil.hpp"

namespace e2e::fault {
namespace {

using e2e::test::TinyRig;

struct ProbePoint {
  net::Direction dir = net::Direction::kAtoB;
  sim::SimTime at = 0;
};

/// Samples the link's transmit fate at each probe point, all inside one
/// coroutine — run_task drains the whole event queue, so separate tasks
/// could not observe two points inside the same fault window.
sim::Task<> probe_many(sim::Engine& eng, net::Link& link,
                       const std::vector<ProbePoint>& points,
                       std::vector<net::TxFate>& out) {
  for (const auto& p : points) {
    if (p.at > eng.now()) co_await sim::Delay{eng, p.at - eng.now()};
    out.push_back(link.transmit_fate(p.dir, 1500.0));
  }
}

struct InjectorTest : ::testing::Test {
  TinyRig rig;

  std::vector<net::TxFate> probe(const std::vector<ProbePoint>& points) {
    std::vector<net::TxFate> out;
    exp::run_task(rig.eng, probe_many(rig.eng, *rig.link, points, out));
    return out;
  }
};

TEST_F(InjectorTest, LossBurstFailsExactlyNMessagesOneDirection) {
  FaultInjector inj(rig.eng, FaultPlan::parse("loss@1ms:n=2,dir=ab,link=0"));
  inj.attach(*rig.link);
  inj.arm();
  rig.eng.run();

  EXPECT_TRUE(rig.link->transmit_fate(net::Direction::kAtoB, 1500.0).fail);
  // The opposite direction is unaffected mid-burst.
  EXPECT_FALSE(rig.link->transmit_fate(net::Direction::kBtoA, 1500.0).fail);
  EXPECT_TRUE(rig.link->transmit_fate(net::Direction::kAtoB, 1500.0).fail);
  EXPECT_FALSE(rig.link->transmit_fate(net::Direction::kAtoB, 1500.0).fail);

  EXPECT_EQ(inj.faults_injected(), 1u);
  EXPECT_EQ(inj.messages_failed(), 2u);
}

TEST_F(InjectorTest, FlapDropsBothDirectionsForTheWindow) {
  FaultInjector inj(rig.eng, FaultPlan::parse("flap@1ms:dur=2ms,link=0"));
  inj.attach(*rig.link);
  inj.arm();

  const auto fates = probe({{net::Direction::kAtoB, 2 * sim::kMillisecond},
                            {net::Direction::kBtoA, 2 * sim::kMillisecond},
                            {net::Direction::kAtoB, 4 * sim::kMillisecond},
                            {net::Direction::kBtoA, 4 * sim::kMillisecond}});
  ASSERT_EQ(fates.size(), 4u);
  EXPECT_TRUE(fates[0].fail);
  EXPECT_TRUE(fates[1].fail);
  // Window over: the link is back.
  EXPECT_FALSE(fates[2].fail);
  EXPECT_FALSE(fates[3].fail);
}

TEST_F(InjectorTest, SpikeAddsLatencyWithoutDropping) {
  FaultInjector inj(
      rig.eng, FaultPlan::parse("spike@1ms:dur=2ms,add=5ms,link=0"));
  inj.attach(*rig.link);
  inj.arm();

  const auto fates = probe({{net::Direction::kAtoB, 2 * sim::kMillisecond},
                            {net::Direction::kAtoB, 4 * sim::kMillisecond}});
  ASSERT_EQ(fates.size(), 2u);
  EXPECT_FALSE(fates[0].fail);
  EXPECT_EQ(fates[0].extra_latency, 5 * sim::kMillisecond);
  EXPECT_FALSE(fates[1].fail);
  EXPECT_EQ(fates[1].extra_latency, 0u);
}

TEST_F(InjectorTest, BlackholeFailsLateInOneDirectionOnly) {
  FaultInjector inj(rig.eng,
                    FaultPlan::parse("hole@1ms:dur=2ms,dir=ba,link=0"));
  inj.attach(*rig.link);
  inj.arm();

  const auto fates = probe({{net::Direction::kBtoA, 2 * sim::kMillisecond},
                            {net::Direction::kAtoB, 2 * sim::kMillisecond},
                            {net::Direction::kBtoA, 4 * sim::kMillisecond}});
  ASSERT_EQ(fates.size(), 3u);
  EXPECT_TRUE(fates[0].fail);
  // The sender only learns after its transport retries exhaust.
  EXPECT_EQ(fates[0].fail_delay, 4u * rig.link->rtt());
  EXPECT_FALSE(fates[1].fail);  // the other direction is unaffected
  EXPECT_FALSE(fates[2].fail);  // window over
}

TEST_F(InjectorTest, QpKillInvokesHandlerWithIndex) {
  FaultInjector inj(rig.eng, FaultPlan::parse("qpkill@1ms:qp=3"));
  inj.attach(*rig.link);
  std::vector<int> killed;
  inj.set_qp_kill_handler([&killed](int qp) { killed.push_back(qp); });
  inj.arm();
  rig.eng.run();
  ASSERT_EQ(killed.size(), 1u);
  EXPECT_EQ(killed[0], 3);
  EXPECT_EQ(inj.faults_injected(), 1u);
}

TEST_F(InjectorTest, QpKillWithoutHandlerIsCountedSkipped) {
  FaultInjector inj(rig.eng, FaultPlan::parse("qpkill@1ms:qp=0"));
  inj.attach(*rig.link);
  inj.arm();
  rig.eng.run();
  EXPECT_EQ(inj.skipped_events(), 1u);
}

TEST_F(InjectorTest, EventsOnUnattachedLinksAreSkipped) {
  FaultInjector inj(
      rig.eng, FaultPlan::parse("loss@1ms:link=5; flap@2ms:dur=1ms,link=0"));
  inj.attach(*rig.link);
  inj.arm();
  rig.eng.run();
  EXPECT_EQ(inj.skipped_events(), 1u);
  EXPECT_EQ(inj.faults_injected(), 1u);  // the flap still fired
}

TEST_F(InjectorTest, AttachAndArmMisuseThrows) {
  FaultInjector inj(rig.eng, FaultPlan{});
  inj.attach(*rig.link);
  EXPECT_THROW(inj.attach(*rig.link), std::logic_error);
  inj.arm();
  EXPECT_THROW(inj.arm(), std::logic_error);
  auto other = net::make_roce_lan(rig.eng, "other");
  EXPECT_THROW(inj.attach(*other), std::logic_error);
}

TEST_F(InjectorTest, DetachesHookOnDestruction) {
  {
    FaultInjector inj(rig.eng, FaultPlan{});
    inj.attach(*rig.link);
    EXPECT_EQ(rig.link->fault_hook(), &inj);
  }
  EXPECT_EQ(rig.link->fault_hook(), nullptr);
}

}  // namespace
}  // namespace e2e::fault
