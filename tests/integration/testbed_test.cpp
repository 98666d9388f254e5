#include <gtest/gtest.h>

#include "exp/exp.hpp"
#include "rftp/rftp.hpp"

namespace e2e::exp {
namespace {

TEST(SanTestbed, BringsUpSessionsAndServesIo) {
  SanConfig cfg;
  cfg.lun_bytes = 1ull << 30;
  SanTestbed tb(cfg);
  tb.start();
  apps::FioOptions opts;
  opts.block_bytes = 1 << 20;
  opts.duration = sim::kSecond / 4;
  const auto r = tb.run_fio(opts, 2);
  EXPECT_GT(r.gbps, 10.0);
  EXPECT_GT(r.ios, 0u);
  EXPECT_GT(r.target_cpu_pct, 0.0);
}

TEST(SanTestbed, StripedVolumeCoversAllLuns) {
  SanConfig cfg;
  cfg.lun_bytes = 1ull << 30;
  SanTestbed tb(cfg);
  EXPECT_EQ(tb.san->striped().member_count(), 6u);
  EXPECT_EQ(tb.san->striped().capacity_bytes(), 6ull << 30);
}

TEST(SanTestbed, LunsAlternateFrontEndNodes) {
  SanConfig cfg;
  cfg.lun_bytes = 1ull << 30;
  SanTestbed tb(cfg);
  EXPECT_EQ(tb.san->lun_fe_node(0), 0);
  EXPECT_EQ(tb.san->lun_fe_node(1), 1);
  EXPECT_EQ(tb.san->lun_fe_node(2), 0);
}

TEST(SanTestbed, UntunedUsesSingleTargetProcess) {
  SanConfig tuned_cfg;
  tuned_cfg.lun_bytes = 1ull << 30;
  SanTestbed tuned(tuned_cfg);
  SanConfig untuned_cfg = tuned_cfg;
  untuned_cfg.numa_tuned = false;
  SanTestbed untuned(untuned_cfg);
  tuned.start();
  untuned.start();
  // Both serve I/O correctly regardless of binding.
  apps::FioOptions opts;
  opts.block_bytes = 1 << 20;
  opts.duration = sim::kSecond / 4;
  EXPECT_GT(tuned.run_fio(opts, 2).gbps, 10.0);
  EXPECT_GT(untuned.run_fio(opts, 2).gbps, 10.0);
}

TEST(SanTestbed, LibnumaDynamicSchedulerServesIoEfficiently) {
  SanConfig untuned_cfg;
  untuned_cfg.numa_tuned = false;
  untuned_cfg.lun_bytes = 2ull << 30;
  SanConfig routed_cfg = untuned_cfg;
  routed_cfg.libnuma_dynamic = true;
  SanTestbed untuned(untuned_cfg);
  SanTestbed routed(routed_cfg);
  untuned.start();
  routed.start();
  apps::FioOptions opts;
  opts.block_bytes = 4ull << 20;
  opts.write = true;
  opts.duration = 2 * sim::kSecond;
  const auto u = untuned.run_fio(opts, 4);
  const auto r = routed.run_fio(opts, 4);
  // The dynamic scheduler recovers bandwidth and CPU vs the untuned
  // baseline (the paper's deferred future work, built as an extension).
  EXPECT_GT(r.gbps, 1.1 * u.gbps);
  EXPECT_LT(r.target_cpu_pct, 0.6 * u.target_cpu_pct);
}

TEST(EndToEndTestbed, TransfersFileOverFullPath) {
  EndToEndTestbed tb(true, 2ull << 30);
  tb.start();
  numa::Process sp(*tb.src_fe, "rftp-c", numa::NumaBinding::os_default());
  numa::Process rp(*tb.dst_fe, "rftp-s", numa::NumaBinding::os_default());
  rftp::RftpConfig cfg;
  rftp::RftpSession sess({&sp, tb.src_roce()}, {&rp, tb.dst_roce()},
                         tb.links(), cfg);
  rftp::FileSource src(*tb.src_fs, *tb.src_file);
  rftp::FileSink dst(*tb.dst_fs, *tb.dst_file);
  const auto r = run_task(tb.eng, sess.run(src, dst, tb.dataset_bytes));
  EXPECT_EQ(r.bytes, tb.dataset_bytes);
  EXPECT_EQ(tb.dst_file->size, tb.dataset_bytes);
  EXPECT_GT(r.goodput_gbps, 40.0);  // well past any single link
}

TEST(EndToEndTestbed, ReverseFilesForBidirectional) {
  EndToEndTestbed tb(true, 1ull << 30);
  tb.add_reverse_files();
  ASSERT_NE(tb.rev_src_file, nullptr);
  ASSERT_NE(tb.rev_dst_file, nullptr);
  EXPECT_EQ(tb.rev_src_file->size, 1ull << 30);
  EXPECT_EQ(tb.rev_dst_file->size, 0u);
}

TEST(WanTestbed, HasAniLoopParameters) {
  WanTestbed tb;
  EXPECT_EQ(tb.link->rtt(), model::kWanRtt);
  EXPECT_DOUBLE_EQ(tb.link->rate_gbps(), 40.0);
  EXPECT_EQ(tb.a->profile().total_cores(), 12);
}

TEST(FrontEndPair, ThreeRoceLinks) {
  FrontEndPair pair;
  EXPECT_EQ(pair.links.size(), 3u);
  EXPECT_EQ(pair.iperf_links().size(), 3u);
  EXPECT_EQ(pair.a_roce.size(), 3u);
}

TEST(FrontEndWithIb, HasFiveNics) {
  const auto prof = front_end_with_ib("fe");
  ASSERT_EQ(prof.nics.size(), 5u);
  EXPECT_EQ(prof.nics[3].type, model::LinkType::kInfiniBand);
  EXPECT_EQ(prof.nics[4].type, model::LinkType::kInfiniBand);
}

}  // namespace
}  // namespace e2e::exp
