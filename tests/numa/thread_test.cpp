#include "numa/thread.hpp"

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "exp/runner.hpp"
#include "numa/process.hpp"
#include "testutil.hpp"

namespace e2e::numa {
namespace {

using metrics::CpuCategory;

struct ThreadRig : ::testing::Test {
  sim::Engine eng;
  Host host{eng, test::tiny_host("h")};
  Process proc{host, "p", NumaBinding::bound(0)};
};

TEST_F(ThreadRig, ComputeTakesCyclesOverGhz) {
  Thread& th = proc.spawn_thread();
  exp::run_task(eng,
                test::as_task(th.compute(2000, CpuCategory::kUserProto)));
  EXPECT_EQ(eng.now(), 1000u);  // 2000 cycles @ 2 GHz
}

TEST_F(ThreadRig, ComputeAccountsToCoreAndProcess) {
  Thread& th = proc.spawn_thread();
  exp::run_task(eng, test::as_task(th.compute(2000, CpuCategory::kLoad)));
  EXPECT_EQ(proc.usage().get(CpuCategory::kLoad), 1000u);
  EXPECT_EQ(host.core(th.core_id()).usage.get(CpuCategory::kLoad), 1000u);
  EXPECT_EQ(host.total_usage().get(CpuCategory::kLoad), 1000u);
}

TEST_F(ThreadRig, ThreadsOnSameCoreSerialize) {
  Thread& t1 = proc.spawn_pinned_thread(0);
  Thread& t2 = proc.spawn_pinned_thread(0);
  sim::co_spawn(test::as_task(t1.compute(2000, CpuCategory::kOther)));
  sim::co_spawn(test::as_task(t2.compute(2000, CpuCategory::kOther)));
  eng.run();
  EXPECT_EQ(eng.now(), 2000u);  // serialized on one core
}

TEST_F(ThreadRig, ThreadsOnDifferentCoresRunInParallel) {
  Thread& t1 = proc.spawn_pinned_thread(0);
  Thread& t2 = proc.spawn_pinned_thread(1);
  sim::co_spawn(test::as_task(t1.compute(2000, CpuCategory::kOther)));
  sim::co_spawn(test::as_task(t2.compute(2000, CpuCategory::kOther)));
  eng.run();
  EXPECT_EQ(eng.now(), 1000u);
}

using Completion = std::pair<int, sim::SimTime>;

// Awaits `booking`, then logs `id` with the completion time.
sim::Task<> await_and_log(sim::Delay booking, int id,
                          std::vector<Completion>& log) {
  co_await booking;
  log.emplace_back(id, booking.engine.now());
}

TEST_F(ThreadRig, BackToBackBookingsCompleteInCallOrder) {
  Thread& th = proc.spawn_thread();
  // Each booking takes its place on the core at the call, so the first
  // call queues first even though the second is awaited first.
  const sim::Delay first = th.compute(2000, CpuCategory::kOther);   // 1000 ns
  const sim::Delay second = th.compute(1000, CpuCategory::kOther);  // 500 ns
  std::vector<Completion> log;
  sim::co_spawn(await_and_log(second, 2, log));
  sim::co_spawn(await_and_log(first, 1, log));
  eng.run();
  EXPECT_EQ(log, (std::vector<Completion>{{1, 1000}, {2, 1500}}));
}

TEST_F(ThreadRig, LocalCopyCostsBaseCycles) {
  Thread& th = proc.spawn_thread();  // node 0
  const auto local = Placement::on(0);
  exp::run_task(eng, test::as_task(th.copy(1'000'000, local, local,
                                           CpuCategory::kCopy)));
  const auto cpb = host.costs().memcpy_cycles_per_byte;
  const auto expect_ns =
      static_cast<sim::SimTime>(1'000'000 * cpb / 2.0);  // 2 GHz
  EXPECT_NEAR(static_cast<double>(proc.usage().get(CpuCategory::kCopy)),
              static_cast<double>(expect_ns), 2.0);
}

TEST_F(ThreadRig, RemoteCopyIsSlowerThanLocal) {
  Thread& th = proc.spawn_thread();  // node 0
  const auto local = Placement::on(0);
  const auto remote = Placement::on(1);
  exp::run_task(
      eng, test::as_task(th.copy(1 << 20, local, local, CpuCategory::kCopy)));
  const auto local_ns = proc.usage().get(CpuCategory::kCopy);
  exp::run_task(
      eng, test::as_task(th.copy(1 << 20, remote, local, CpuCategory::kCopy)));
  const auto remote_ns = proc.usage().get(CpuCategory::kCopy) - local_ns;
  EXPECT_NEAR(static_cast<double>(remote_ns),
              static_cast<double>(local_ns) * host.costs().numa_remote_penalty,
              static_cast<double>(local_ns) * 0.01);
}

TEST_F(ThreadRig, CopyChargesBothChannels) {
  Thread& th = proc.spawn_thread();
  exp::run_task(eng, test::as_task(th.copy(1000, Placement::on(0),
                                           Placement::on(1),
                                           CpuCategory::kCopy)));
  EXPECT_GT(host.channel(0).units_served(), 0.0);
  EXPECT_GT(host.channel(1).units_served(), 0.0);
  // Writing to the remote node pushes data over QPI away from the thread.
  EXPECT_GT(host.interconnect(0, 1).units_served(), 0.0);
}

TEST_F(ThreadRig, CachedSourceCopySkipsSourceTraffic) {
  Thread& th = proc.spawn_thread();
  const auto src = Placement::on(1);
  const auto dst = Placement::on(0);
  exp::run_task(eng, test::as_task(th.copy(1000, src, dst, CpuCategory::kCopy,
                                           Coherence::kPrivate,
                                           /*src_in_cache=*/true)));
  EXPECT_EQ(host.channel(1).units_served(), 0.0);  // no DRAM read
  EXPECT_GT(host.channel(0).units_served(), 0.0);  // destination write
}

TEST_F(ThreadRig, CoherentRemoteWriteCostsExtraCyclesAndQpi) {
  Thread& th = proc.spawn_thread();  // node 0
  const auto remote = Placement::on(1);
  exp::run_task(eng, test::as_task(th.mem_write(1 << 20, remote,
                                                CpuCategory::kOffload,
                                                Coherence::kPrivate)));
  const auto private_ns = proc.usage().get(CpuCategory::kOffload);
  const auto qpi_before = host.interconnect(1, 0).units_served();
  exp::run_task(eng, test::as_task(th.mem_write(1 << 20, remote,
                                                CpuCategory::kOffload,
                                                Coherence::kSharedRemote)));
  const auto shared_ns = proc.usage().get(CpuCategory::kOffload) - private_ns;
  EXPECT_GT(shared_ns, private_ns);
  // Invalidation traffic flows back over the interconnect.
  EXPECT_GT(host.interconnect(1, 0).units_served(), qpi_before);
}

TEST_F(ThreadRig, LocalSharedWriteHasNoCoherencePenalty) {
  Thread& th = proc.spawn_thread();  // node 0
  const auto local = Placement::on(0);
  exp::run_task(eng, test::as_task(th.mem_write(1 << 20, local,
                                                CpuCategory::kOffload,
                                                Coherence::kPrivate)));
  const auto base = proc.usage().get(CpuCategory::kOffload);
  exp::run_task(eng, test::as_task(th.mem_write(1 << 20, local,
                                                CpuCategory::kOffload,
                                                Coherence::kSharedRemote)));
  EXPECT_EQ(proc.usage().get(CpuCategory::kOffload), 2 * base);
}

TEST_F(ThreadRig, ZeroFillChargesWriteTrafficOnly) {
  Thread& th = proc.spawn_thread();
  exp::run_task(eng,
                test::as_task(th.zero_fill(1000, Placement::on(0),
                                           CpuCategory::kLoad)));
  EXPECT_EQ(host.channel(0).units_served(), 1000.0);
  EXPECT_GT(proc.usage().get(CpuCategory::kLoad), 0u);
}

TEST_F(ThreadRig, MemReadIsCheaperThanCopy) {
  Thread& th = proc.spawn_thread();
  const auto p = Placement::on(0);
  exp::run_task(eng,
                test::as_task(th.mem_read(1 << 20, p, CpuCategory::kLoad)));
  const auto read_ns = proc.usage().get(CpuCategory::kLoad);
  exp::run_task(eng,
                test::as_task(th.copy(1 << 20, p, p, CpuCategory::kCopy)));
  EXPECT_LT(read_ns, proc.usage().get(CpuCategory::kCopy));
}

TEST_F(ThreadRig, InterleavedPlacementSplitsChannelTraffic) {
  Thread& th = proc.spawn_thread();
  exp::run_task(eng, test::as_task(th.mem_read(1000, Placement::interleaved(2),
                                               CpuCategory::kLoad)));
  EXPECT_DOUBLE_EQ(host.channel(0).units_served(), 500.0);
  // Remote half is inflated by the remote-stream factor.
  EXPECT_DOUBLE_EQ(host.channel(1).units_served(),
                   500.0 * host.costs().numa_remote_channel_factor);
}

}  // namespace
}  // namespace e2e::numa
