#include "mem/tmpfs.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

#include "exp/runner.hpp"
#include "numa/process.hpp"
#include "testutil.hpp"

namespace e2e::mem {
namespace {

using metrics::CpuCategory;

struct TmpfsRig : ::testing::Test {
  sim::Engine eng;
  numa::Host host{eng, e2e::test::tiny_host("h")};
  Tmpfs fs{host};
  numa::Process proc{host, "p", numa::NumaBinding::bound(0)};
};

TEST_F(TmpfsRig, CreateBindsPlacement) {
  auto& f = fs.create("lun0", 1 << 20, numa::MemPolicy::kBind, 1);
  EXPECT_EQ(f.size, 1u << 20);
  EXPECT_EQ(f.placement.extents[0].node, 1);
  EXPECT_EQ(host.used_bytes(1), 1u << 20);
  EXPECT_EQ(fs.file_count(), 1u);
}

TEST_F(TmpfsRig, ReadCountsBytesAndSharers) {
  auto& f = fs.create("f", 1 << 20, numa::MemPolicy::kBind, 0);
  numa::Thread& th = proc.spawn_thread();
  exp::run_task(eng, fs.read(th, f, 0, 4096, numa::Placement::on(0),
                             CpuCategory::kLoad));
  EXPECT_EQ(f.bytes_read, 4096u);
  EXPECT_TRUE(f.sharers.count(0));
  EXPECT_FALSE(f.shared_beyond(0));
}

TEST_F(TmpfsRig, OutOfRangeIoThrows) {
  auto& f = fs.create("f", 4096, numa::MemPolicy::kBind, 0);
  numa::Thread& th = proc.spawn_thread();
  EXPECT_THROW(exp::run_task(eng, fs.read(th, f, 4000, 1000,
                                          numa::Placement::on(0),
                                          CpuCategory::kLoad)),
               std::out_of_range);
}

TEST_F(TmpfsRig, LocalWriteIsPrivate) {
  auto& f = fs.create("f", 1 << 20, numa::MemPolicy::kBind, 0);
  numa::Thread& th = proc.spawn_thread();  // node 0
  exp::run_task(eng, fs.write(th, f, 0, 1 << 20, numa::Placement::on(0),
                              CpuCategory::kOffload));
  // No coherence traffic: the interconnect stays idle.
  EXPECT_EQ(host.interconnect(0, 1).units_served(), 0.0);
  EXPECT_EQ(host.interconnect(1, 0).units_served(), 0.0);
  EXPECT_EQ(f.bytes_written, 1u << 20);
}

TEST_F(TmpfsRig, WriteAfterRemoteReaderPaysCoherence) {
  auto& f = fs.create("f", 1 << 20, numa::MemPolicy::kInterleave, 0);
  numa::Process proc1(host, "p1", numa::NumaBinding::bound(1));
  numa::Thread& reader = proc1.spawn_thread();  // node 1 touches the file
  exp::run_task(eng, fs.read(reader, f, 0, 4096, numa::Placement::on(1),
                             CpuCategory::kLoad));

  numa::Thread& writer = proc.spawn_thread();  // node 0
  const auto before = proc.usage().get(CpuCategory::kOffload);
  exp::run_task(eng, fs.write(writer, f, 0, 1 << 20, numa::Placement::on(0),
                              CpuCategory::kOffload));
  const auto shared_cost = proc.usage().get(CpuCategory::kOffload) - before;

  // Same write on a file nobody else touched costs less.
  auto& g = fs.create("g", 1 << 20, numa::MemPolicy::kInterleave, 0);
  const auto before2 = proc.usage().get(CpuCategory::kOffload);
  exp::run_task(eng, fs.write(writer, g, 0, 1 << 20, numa::Placement::on(0),
                              CpuCategory::kOffload));
  const auto private_cost = proc.usage().get(CpuCategory::kOffload) - before2;
  EXPECT_GT(shared_cost, private_cost);
}

TEST_F(TmpfsRig, ReadsNeverPayCoherence) {
  auto& f = fs.create("f", 1 << 20, numa::MemPolicy::kBind, 0);
  numa::Process proc1(host, "p1", numa::NumaBinding::bound(1));
  numa::Thread& t0 = proc.spawn_thread();
  numa::Thread& t1 = proc1.spawn_thread();
  exp::run_task(eng, fs.read(t0, f, 0, 4096, numa::Placement::on(0),
                             CpuCategory::kLoad));
  const auto base = proc1.usage().get(CpuCategory::kLoad);
  // Remote read of a shared file: remote-access penalty only, which we
  // verify by comparing against the same read from an unshared file.
  exp::run_task(eng, fs.read(t1, f, 0, 4096, numa::Placement::on(1),
                             CpuCategory::kLoad));
  const auto shared_read = proc1.usage().get(CpuCategory::kLoad) - base;
  auto& g = fs.create("g", 1 << 20, numa::MemPolicy::kBind, 0);
  const auto base2 = proc1.usage().get(CpuCategory::kLoad);
  exp::run_task(eng, fs.read(t1, g, 0, 4096, numa::Placement::on(1),
                             CpuCategory::kLoad));
  EXPECT_EQ(shared_read, proc1.usage().get(CpuCategory::kLoad) - base2);
}

TEST_F(TmpfsRig, DuplicateCreateIsRefused) {
  fs.create("f", 4096, numa::MemPolicy::kBind, 0);
  EXPECT_THROW(fs.create("f", 8192, numa::MemPolicy::kBind, 1),
               std::invalid_argument);
  EXPECT_EQ(fs.file_count(), 1u);
  EXPECT_EQ(host.used_bytes(1), 0u);
}

}  // namespace
}  // namespace e2e::mem
