// Paper-shape regression suite.
//
// Each test pins one qualitative claim from the paper's evaluation. They
// call the exp runners the bench_figures rows print, at shortened sizes
// where a runner takes one. If calibration drifts, these tests catch it.
#include <gtest/gtest.h>

#include "exp/scenarios.hpp"

namespace e2e {
namespace {

using metrics::CpuCategory;

// §2.3: STREAM triad on the front-end host peaks at ~50 GB/s.
TEST(PaperShapes, StreamTriadPeak) {
  EXPECT_NEAR(exp::run_stream_triad(true), 50.0, 2.5);
}

// §2.3: NUMA-tuned iperf beats the default scheduler (83.5 -> 91.8 Gbps).
TEST(PaperShapes, MotivatingIperfNumaGain) {
  const auto r = exp::run_motivating({});
  const auto& def = r.stock;
  const auto& tuned = r.tuned;
  EXPECT_NEAR(def.aggregate_gbps, 83.5, 12.0);
  EXPECT_NEAR(tuned.aggregate_gbps, 91.8, 12.0);
  EXPECT_GT(tuned.aggregate_gbps / def.aggregate_gbps, 1.04);
  // copy_user-style routines consume a large share (paper: ~35%).
  const double copy_share =
      static_cast<double>(def.usage_a.get(CpuCategory::kCopy)) /
      static_cast<double>(def.usage_a.total());
  EXPECT_GT(copy_share, 0.2);
  EXPECT_LT(copy_share, 0.5);
}

// Fig. 4: at the same 39 Gbps, RDMA costs ~1.2 cores vs TCP's ~6.4, and
// the category split matches (zero copy cost, no kernel protocol cost).
TEST(PaperShapes, Fig4CostBreakdown) {
  const auto [rftp, tcp] = exp::run_fig4(6ull << 30, sim::kSecond);
  const auto& rdma = rftp.both_ends;
  const auto w = rftp.window;
  EXPECT_NEAR(rftp.gbps, 39.0, 2.5);
  EXPECT_NEAR(rdma.total_percent(w), 122.0, 30.0);
  EXPECT_NEAR(rdma.percent(CpuCategory::kLoad, w), 70.0, 12.0);
  EXPECT_EQ(rdma.get(CpuCategory::kCopy), 0u);        // zero-copy
  EXPECT_EQ(rdma.get(CpuCategory::kKernelProto), 0u);  // kernel bypass

  // TCP at the same rate.
  EXPECT_NEAR(tcp.gbps, 39.0, 4.0);
  const auto& tcpu = tcp.both_ends;
  // TCP needs several times the CPU of RDMA (paper: 642% vs 122%).
  EXPECT_GT(tcpu.total_percent(tcp.window), 3.5 * rdma.total_percent(w));
  EXPECT_GT(tcpu.percent(CpuCategory::kKernelProto, tcp.window), 200.0);
  EXPECT_GT(tcpu.percent(CpuCategory::kCopy, tcp.window), 120.0);
}

// The four 4 MiB fio points Figs. 7/8 compare: NUMA-tuned and default
// binding, each reading and writing.
struct IserSweep {
  exp::SanTestbed::FioReport tuned_read, tuned_write, def_read, def_write;
};

IserSweep run_iser_sweep() {
  auto run_iser = [](bool tuned, bool write) {
    exp::SanParams p;
    p.san.numa_tuned = tuned;
    p.san.lun_bytes = 2ull << 30;
    p.fio.write = write;
    return exp::run_san(p).fio;
  };
  return {run_iser(true, false), run_iser(true, true),
          run_iser(false, false), run_iser(false, true)};
}

// Fig. 7: the iSER bandwidth ordering.
TEST(PaperShapes, Fig7IserBandwidthOrdering) {
  const auto s = run_iser_sweep();
  // Reads (RDMA Write) outperform writes (RDMA Read) when tuned.
  EXPECT_GT(s.tuned_read.gbps, s.tuned_write.gbps);
  // Writes collapse without NUMA tuning (paper: -19%); reads barely move.
  EXPECT_LT(s.def_write.gbps, 0.88 * s.tuned_write.gbps);
  EXPECT_GT(s.def_read.gbps, 0.90 * s.tuned_read.gbps);
  // Absolute anchor: tuned write ~94.8 Gbps (the path limit of Fig. 9).
  EXPECT_NEAR(s.tuned_write.gbps, 94.8, 6.0);
}

// Fig. 8: default binding costs ~3x CPU for writes; reads see a far
// smaller penalty.
TEST(PaperShapes, Fig8IserCpuOrdering) {
  const auto s = run_iser_sweep();
  EXPECT_GT(s.def_write.target_cpu_pct, 2.0 * s.tuned_write.target_cpu_pct);
  EXPECT_LT(s.def_read.target_cpu_pct, 1.7 * s.tuned_read.target_cpu_pct);
}

// Fig. 9/10: end-to-end RFTP ~91 Gbps (~96% of the 94.8 path limit);
// GridFTP ~29 Gbps with a kernel-heavy profile.
TEST(PaperShapes, Fig9EndToEndThroughput) {
  const auto rftp =
      exp::run_transfer({.rig = exp::Rig::kE2e, .bytes = 12ull << 30});
  EXPECT_NEAR(rftp.transfer.goodput_gbps, 91.0, 8.0);

  const auto grid = exp::run_e2e_gridftp(4ull << 30);
  EXPECT_NEAR(grid.transfer.goodput_gbps, 29.0, 7.0);
  // Paper: ~3x RFTP advantage.
  EXPECT_GT(rftp.transfer.goodput_gbps / grid.transfer.goodput_gbps, 2.3);
  // Fig. 10: GridFTP's sys CPU dominates its user CPU.
  EXPECT_GT(grid.src_usage.get(CpuCategory::kKernelProto),
            grid.src_usage.get(CpuCategory::kUserProto));
}

// Fig. 11: both directions at once gain more for RFTP, which has CPU to
// spare, than for CPU-bound GridFTP, whose gain is still positive.
TEST(PaperShapes, Fig11BidirGainRftpOverGridFtp) {
  const auto rftp_uni =
      exp::run_transfer({.rig = exp::Rig::kE2e, .bytes = 2ull << 30})
          .transfer.goodput_gbps;
  const auto rftp = exp::run_e2e_bidir(exp::App::kRftp, 2ull << 30);
  const auto grid_uni =
      exp::run_e2e_gridftp(1ull << 30).transfer.goodput_gbps;
  const auto grid = exp::run_e2e_bidir(exp::App::kGridFtp, 1ull << 30);
  const double grid_gain = grid.aggregate_gbps - grid_uni;
  EXPECT_GT(rftp.aggregate_gbps - rftp_uni, grid_gain);
  EXPECT_GT(grid_gain, 0.0);
}

// Fig. 13: WAN RFTP reaches ~97% utilization with enough streams and
// large blocks, and is window-limited with few/small ones.
TEST(PaperShapes, Fig13WanBandwidth) {
  const auto wide = exp::run_transfer({.rig = exp::Rig::kWan,
                                       .bytes = 12ull << 30,
                                       .streams = 4,
                                       .block_bytes = 8ull << 20});
  EXPECT_GT(wide.transfer.goodput_gbps, 0.95 * 40.0);
  const auto narrow = exp::run_transfer({.rig = exp::Rig::kWan,
                                         .bytes = 1ull << 30,
                                         .streams = 1,
                                         .block_bytes = 1 << 20});
  // Window-bound: ~16 MiB / 95 ms ~= 1.4 Gbps.
  EXPECT_LT(narrow.transfer.goodput_gbps, 3.0);
}

// Fig. 14: WAN CPU per gigabit falls as block size grows.
TEST(PaperShapes, Fig14WanCpuFallsWithBlockSize) {
  auto cpu_per_gbps = [](std::uint64_t block) {
    const auto r = exp::run_transfer({.rig = exp::Rig::kWan,
                                      .bytes = 6ull << 30,
                                      .streams = 4,
                                      .block_bytes = block});
    return r.src_usage.percent(CpuCategory::kUserProto, r.window) /
           r.transfer.goodput_gbps;
  };
  EXPECT_GT(cpu_per_gbps(1 << 20), 1.5 * cpu_per_gbps(8 << 20));
}

}  // namespace
}  // namespace e2e
