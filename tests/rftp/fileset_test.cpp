#include "rftp/fileset.hpp"

#include <gtest/gtest.h>

#include <memory>

#include "exp/runner.hpp"
#include "rftp/session.hpp"
#include "testutil.hpp"

namespace e2e::rftp {
namespace {

using e2e::test::TinyRig;

struct FileSetRig : ::testing::Test {
  TinyRig rig;
  std::unique_ptr<mem::Tmpfs> src_store;
  std::unique_ptr<mem::Tmpfs> dst_store;
  std::unique_ptr<blk::RamBlockDevice> src_dev;
  std::unique_ptr<blk::RamBlockDevice> dst_dev;
  std::unique_ptr<blk::XfsSim> src_fs;
  std::unique_ptr<blk::XfsSim> dst_fs;

  void SetUp() override {
    src_store = std::make_unique<mem::Tmpfs>(*rig.a);
    dst_store = std::make_unique<mem::Tmpfs>(*rig.b);
    auto& sb = src_store->create("d", 64 << 20, numa::MemPolicy::kBind, 0);
    auto& db = dst_store->create("d", 64 << 20, numa::MemPolicy::kBind, 0);
    src_dev = std::make_unique<blk::RamBlockDevice>(*src_store, sb);
    dst_dev = std::make_unique<blk::RamBlockDevice>(*dst_store, db);
    src_fs = std::make_unique<blk::XfsSim>(*rig.a, *src_dev, nullptr,
                                           std::vector<numa::Thread*>{});
    dst_fs = std::make_unique<blk::XfsSim>(*rig.b, *dst_dev, nullptr,
                                           std::vector<numa::Thread*>{});
  }
};

TEST_F(FileSetRig, MapWithinOneFile) {
  FileSet set(*src_fs);
  set.create_filled("f", 3, 1 << 20);
  EXPECT_EQ(set.total_bytes(), 3u << 20);
  EXPECT_EQ(set.file_count(), 3u);
  const auto pieces = set.map(0, 4096);
  ASSERT_EQ(pieces.size(), 1u);
  EXPECT_EQ(pieces[0].file_offset, 0u);
  EXPECT_EQ(pieces[0].len, 4096u);
}

TEST_F(FileSetRig, MapStraddlesFileBoundary) {
  FileSet set(*src_fs);
  set.create_filled("f", 2, 1 << 20);
  const auto pieces = set.map((1 << 20) - 1024, 4096);
  ASSERT_EQ(pieces.size(), 2u);
  EXPECT_EQ(pieces[0].len, 1024u);
  EXPECT_EQ(pieces[0].file_offset, (1u << 20) - 1024);
  EXPECT_EQ(pieces[1].len, 3072u);
  EXPECT_EQ(pieces[1].file_offset, 0u);
}

TEST_F(FileSetRig, MapClampsAtEnd) {
  FileSet set(*src_fs);
  set.create_filled("f", 1, 4096);
  EXPECT_TRUE(set.map(4096, 100).empty());
  const auto pieces = set.map(2048, 1 << 20);
  ASSERT_EQ(pieces.size(), 1u);
  EXPECT_EQ(pieces[0].len, 2048u);
}

TEST_F(FileSetRig, MapSpansManySmallFiles) {
  FileSet set(*src_fs);
  set.create_filled("s", 16, 64 << 10);
  const auto pieces = set.map(0, 1 << 20);  // all 16 files
  EXPECT_EQ(pieces.size(), 16u);
  std::uint64_t total = 0;
  for (const auto& p : pieces) total += p.len;
  EXPECT_EQ(total, 1u << 20);
}

TEST_F(FileSetRig, RftpTransfersAWholeDirectory) {
  FileSet src_set(*src_fs);
  src_set.create_filled("data", 8, 2 << 20);
  FileSet dst_set(*dst_fs);
  dst_set.create_empty("copy", 8, 2 << 20);

  RftpConfig cfg;
  cfg.streams = 1;
  cfg.block_bytes = 1 << 20;
  RftpSession sess({rig.proc_a.get(), {rig.dev_a.get()}},
                   {rig.proc_b.get(), {rig.dev_b.get()}},
                   {rig.link.get()}, cfg);
  FileSetSource src(src_set);
  FileSetSink dst(dst_set);
  const auto r =
      exp::run_task(rig.eng, sess.run(src, dst, src_set.total_bytes()));
  EXPECT_EQ(r.bytes, 16u << 20);
  // Every destination file was fully written.
  const auto pieces = dst_set.map(0, dst_set.total_bytes());
  ASSERT_EQ(pieces.size(), 8u);
  for (const auto& p : pieces) EXPECT_EQ(p.file->size, 2u << 20);
}

struct OverheadResult {
  rftp::TransferResult transfer;
  std::uint64_t cpu_ns = 0;  // both hosts
};

TEST(FileSetOverhead, SmallFilesCostMoreCpuThanOneBigFile) {
  // Same bytes, 2048 files vs 1 file: per-file VFS calls, extent setup
  // and split block I/O cost extra CPU (the deep pipeline hides most of
  // the latency, so the toll shows up in cycles, not goodput).
  auto run_transfer = [](int files, std::uint64_t file_bytes) {
    TinyRig r;
    mem::Tmpfs src_store(*r.a), dst_store(*r.b);
    auto& sb = src_store.create("d", 256 << 20, numa::MemPolicy::kBind, 0);
    auto& db = dst_store.create("d", 256 << 20, numa::MemPolicy::kBind, 0);
    blk::RamBlockDevice sdev(src_store, sb), ddev(dst_store, db);
    blk::XfsSim sfs(*r.a, sdev, nullptr, std::vector<numa::Thread*>{});
    blk::XfsSim dfs(*r.b, ddev, nullptr, std::vector<numa::Thread*>{});
    FileSet sset(sfs), dset(dfs);
    sset.create_filled("f", files, file_bytes);
    dset.create_empty("c", files, file_bytes);
    RftpConfig cfg;
    cfg.streams = 1;
    cfg.block_bytes = 1 << 20;
    RftpSession sess({r.proc_a.get(), {r.dev_a.get()}},
                     {r.proc_b.get(), {r.dev_b.get()}},
                     {r.link.get()}, cfg);
    FileSetSource src(sset);
    FileSetSink dst(dset);
    OverheadResult out;
    out.transfer =
        exp::run_task(r.eng, sess.run(src, dst, sset.total_bytes()));
    out.cpu_ns = r.a->total_usage().total() + r.b->total_usage().total();
    return out;
  };
  const auto small = run_transfer(2048, 64 << 10);
  const auto big = run_transfer(1, 128 << 20);
  EXPECT_EQ(small.transfer.bytes, big.transfer.bytes);
  EXPECT_GT(small.cpu_ns, 1.2 * static_cast<double>(big.cpu_ns));
  // Goodput stays in the same ballpark: the pipeline absorbs the latency.
  EXPECT_NEAR(small.transfer.goodput_gbps, big.transfer.goodput_gbps,
              0.15 * big.transfer.goodput_gbps);
}

}  // namespace
}  // namespace e2e::rftp
