#include "blk/filesystem.hpp"

#include <gtest/gtest.h>

#include <memory>

#include "exp/runner.hpp"
#include "numa/process.hpp"
#include "testutil.hpp"

namespace e2e::blk {
namespace {

using metrics::CpuCategory;

struct FsRig : ::testing::Test {
  sim::Engine eng;
  numa::Host host{eng, e2e::test::tiny_host("h")};
  mem::Tmpfs tmpfs{host};
  mem::TmpFile* backing = nullptr;
  std::unique_ptr<RamBlockDevice> dev;
  std::unique_ptr<PageCache> cache;
  numa::Process kernel{host, "kernel", numa::NumaBinding::os_default()};
  numa::Process app{host, "app", numa::NumaBinding::bound(0)};

  void SetUp() override {
    backing = &tmpfs.create("disk", 64 << 20, numa::MemPolicy::kBind, 0);
    dev = std::make_unique<RamBlockDevice>(tmpfs, *backing);
  }

  std::vector<numa::Thread*> kernel_pool(int n) {
    std::vector<numa::Thread*> out;
    for (int i = 0; i < n; ++i) out.push_back(&kernel.spawn_thread());
    return out;
  }
};

TEST_F(FsRig, CreateOpenAndReservation) {
  XfsSim fs(host, *dev, nullptr, {});
  File& f = fs.create("a", 1 << 20);
  EXPECT_EQ(f.size, 0u);
  EXPECT_GE(f.reserved, 1u << 20);
  EXPECT_THROW(fs.create("a", 1), std::invalid_argument);
}

TEST_F(FsRig, FilesystemFullThrows) {
  XfsSim fs(host, *dev, nullptr, {});
  fs.create("big", 60 << 20);
  EXPECT_THROW(fs.create("big2", 60 << 20), std::length_error);
}

TEST_F(FsRig, DirectWriteThenReadRoundTrips) {
  XfsSim fs(host, *dev, nullptr, {});
  File& f = fs.create("a", 1 << 20);
  numa::Thread& th = app.spawn_thread();
  const auto buf = numa::Placement::on(0);
  const auto wrote = exp::run_task(
      eng, fs.write(th, f, 0, 512 * 1024, buf, true, CpuCategory::kOffload));
  EXPECT_EQ(wrote, 512u * 1024);
  EXPECT_EQ(f.size, 512u * 1024);
  const auto read = exp::run_task(
      eng, fs.read(th, f, 0, 1 << 20, buf, true, CpuCategory::kLoad));
  EXPECT_EQ(read, 512u * 1024);  // truncated at EOF
}

TEST_F(FsRig, ReadPastEofIsZero) {
  XfsSim fs(host, *dev, nullptr, {});
  File& f = fs.create("a", 1 << 20);
  numa::Thread& th = app.spawn_thread();
  EXPECT_EQ(exp::run_task(eng, fs.read(th, f, 0, 4096, numa::Placement::on(0),
                                       true, CpuCategory::kLoad)),
            0u);
}

TEST_F(FsRig, WriteBeyondReservationThrows) {
  XfsSim fs(host, *dev, nullptr, {});
  File& f = fs.create("a", 4096);
  numa::Thread& th = app.spawn_thread();
  EXPECT_THROW(
      exp::run_task(eng, fs.write(th, f, 0, 1 << 20, numa::Placement::on(0),
                                  true, CpuCategory::kOffload)),
      std::length_error);
}

TEST_F(FsRig, DirectWriteAllocatesExtents) {
  XfsSim fs(host, *dev, nullptr, {}, 8, /*extent_bytes=*/1 << 20);
  File& f = fs.create("a", 4 << 20);
  numa::Thread& th = app.spawn_thread();
  exp::run_task(eng, fs.write(th, f, 0, 4 << 20, numa::Placement::on(0),
                              true, CpuCategory::kOffload));
  EXPECT_EQ(f.extent_count, 4u);
  EXPECT_GE(f.allocated, 4u << 20);
}

TEST_F(FsRig, BufferedWriteGoesThroughCacheAndWritesBack) {
  cache = std::make_unique<PageCache>(host, 32 << 20, 16 << 20);
  XfsSim fs(host, *dev, cache.get(), kernel_pool(2));
  File& f = fs.create("a", 4 << 20);
  numa::Thread& th = app.spawn_thread();
  exp::run_task(eng, fs.write(th, f, 0, 1 << 20, numa::Placement::on(0),
                              false, CpuCategory::kOffload));
  // The copy to kernel pages was charged...
  EXPECT_GT(app.usage().get(CpuCategory::kCopy), 0u);
  // ...and writeback eventually lands on the device.
  eng.run();
  EXPECT_EQ(backing->bytes_written, 1u << 20);
  EXPECT_EQ(cache->total_dirty(), 0u);
}

TEST_F(FsRig, BufferedSequentialReadUsesReadahead) {
  cache = std::make_unique<PageCache>(host, 32 << 20, 16 << 20);
  XfsSim fs(host, *dev, cache.get(), kernel_pool(2));
  File& f = fs.create("a", 8 << 20);
  f.size = f.allocated = 8 << 20;  // pre-existing data
  numa::Thread& th = app.spawn_thread();
  const std::uint64_t chunk = 256 * 1024;
  // Stream the file sequentially.
  exp::run_task(eng, [](FileSystem& xfs, numa::Thread& t, File& file,
                        std::uint64_t c) -> sim::Task<> {
    for (std::uint64_t off = 0; off + c <= file.size; off += c)
      co_await xfs.read(t, file, off, c, numa::Placement::on(0), false,
                        CpuCategory::kLoad);
  }(fs, th, f, chunk));
  // Device saw each byte roughly once (readahead did not duplicate work).
  EXPECT_GE(backing->bytes_read, 8u << 20);
  EXPECT_LE(backing->bytes_read, (8u << 20) + (1u << 20));
}

TEST_F(FsRig, BufferedFsRequiresKernelThreads) {
  cache = std::make_unique<PageCache>(host, 1 << 20, 1 << 20);
  EXPECT_THROW(XfsSim(host, *dev, cache.get(), {}), std::invalid_argument);
}

TEST_F(FsRig, XfsParallelWritersBeatExt4Journal) {
  // Many small files written concurrently: XFS spreads allocations over
  // AGs; ext4 serializes every extent on the journal.
  auto run_fs = [&](FileSystem& fs) {
    sim::WaitGroup wg(eng);
    for (int i = 0; i < 8; ++i) {
      std::string name = "f";
      name += std::to_string(i);
      File& f = fs.create(name, 2 << 20);
      numa::Thread& th = app.spawn_thread(i % 2);
      wg.add();
      sim::co_spawn([](FileSystem& xfs, numa::Thread& t, File& file,
                       sim::WaitGroup* w) -> sim::Task<> {
        for (int k = 0; k < 8; ++k)
          co_await xfs.write(t, file, static_cast<std::uint64_t>(k) * 256 *
                                          1024,
                             256 * 1024, numa::Placement::on(t.node()), true,
                             CpuCategory::kOffload);
        w->done();
      }(fs, th, f, &wg));
    }
    const auto t0 = eng.now();
    eng.run();
    return eng.now() - t0;
  };

  XfsSim xfs(host, *dev, nullptr, {}, 8, /*extent=*/256 * 1024);
  const auto xfs_time = run_fs(xfs);

  mem::TmpFile& backing2 =
      tmpfs.create("disk2", 64 << 20, numa::MemPolicy::kBind, 0);
  RamBlockDevice dev2(tmpfs, backing2);
  Ext4Sim ext4(host, dev2, nullptr, {}, /*extent=*/256 * 1024);
  const auto ext4_time = run_fs(ext4);

  EXPECT_LT(xfs_time, ext4_time);
}

}  // namespace
}  // namespace e2e::blk
