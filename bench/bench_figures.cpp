// Every table, figure and ablation of the evaluation, one row each.
//
//   bench_figures                      runs every row, in table order
//   bench_figures fig09 crash_restart  runs the named rows
//
// A row sweeps the exp runners (exp/scenarios.hpp, exp/kv_scenario.hpp),
// each on fresh testbeds, and prints its paper-vs-measured tables on
// stdout; an unknown row name prints the row names and exits 2. To trace
// or dump the stats of an end-to-end transfer, run the CLI
// (`e2e_transfer_sim e2e --trace F --stats-out F`).
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <optional>
#include <string>
#include <tuple>
#include <vector>

#include "bench_util.hpp"
#include "exp/kv_scenario.hpp"
#include "exp/scenarios.hpp"
#include "fault/plan.hpp"
#include "metrics/table.hpp"

namespace e2e::bench {
namespace {

using metrics::CpuCategory;
using metrics::Table;

void print_table(const Table& t) {
  std::fputs(t.to_string().c_str(), stdout);
  std::fputc('\n', stdout);
}

// The exp runners' points as the rows sweep them.

exp::TransferRun wan_point(int streams, std::uint64_t block,
                           std::uint64_t dataset, int credits = 16) {
  return exp::run_transfer({.rig = exp::Rig::kWan,
                            .bytes = dataset,
                            .streams = streams,
                            .block_bytes = block,
                            .credits = credits});
}

/// User-space protocol CPU of the sending (or receiving) WAN host.
double proto_cpu(const exp::TransferRun& r, bool receiver) {
  return (receiver ? r.dst_usage : r.src_usage)
      .percent(CpuCategory::kUserProto, r.window);
}

using FioReport = decltype(exp::SanRun::fio);

FioReport fio_point(bool numa_tuned, bool write, std::uint64_t block,
                    int threads_per_lun = 4) {
  exp::SanParams p;
  p.san.numa_tuned = numa_tuned;
  p.fio.block_bytes = block;
  p.fio.write = write;
  p.threads_per_lun = threads_per_lun;
  return exp::run_san(p).fio;
}

// §2.3 motivating experiment: STREAM triad peak and bi-directional iperf
// over three 40G RoCE links, stock scheduler vs NUMA tuning.
//
// Paper numbers: Triad 50 GB/s; iperf 83.5 Gbps (default) -> 91.8 Gbps
// (tuned), with the kernel copy routine at ~35% of overall CPU.
void motivating() {
  const auto iperf = exp::run_motivating({});
  const auto& dflt = iperf.stock;
  const auto& tuned = iperf.tuned;
  const auto& host = dflt.usage_a;
  print_comparison(
      "Sec 2.3 motivating experiment",
      {
          {"STREAM triad (local)", 50.0, exp::run_stream_triad(true),
           "GB/s"},
          {"STREAM triad (interleaved)", 0.0, exp::run_stream_triad(false),
           "GB/s"},
          {"iperf bidir, default sched", 83.5, dflt.aggregate_gbps, "Gbps"},
          {"iperf bidir, NUMA tuned", 91.8, tuned.aggregate_gbps, "Gbps"},
          {"NUMA tuning gain", 9.9,
           100.0 * (tuned.aggregate_gbps / dflt.aggregate_gbps - 1.0), "%"},
          {"copy routines' CPU share", 35.0,
           100.0 * (static_cast<double>(host.get(CpuCategory::kCopy)) /
                    static_cast<double>(host.total())),
           "%"},
      });
  print_cpu_breakdown("host CPU, default scheduler", host, dflt.window);
}

// Table 1: testbed host configurations.
void table1() {
  Table t("Table 1: testbed host configurations (as modelled)");
  t.header({"role", "CPU", "clock", "NUMA", "memory", "NICs", "MTU", "RTT"});
  auto profile = [&t](const model::HostProfile& h, const char* role,
                      const char* rtt) {
    std::string nics;
    for (const auto& n : h.nics) {
      if (!nics.empty()) nics += '+';
      nics += std::to_string(static_cast<int>(n.rate_gbps)) + "G";
    }
    t.row({role, std::to_string(h.total_cores()) + " cores",
           Table::num(h.core_ghz, 2) + " GHz",
           std::to_string(h.numa_nodes) + " nodes",
           Table::num(h.mem_gbytes, 0) + " GB", nics,
           std::to_string(h.nics.empty() ? 0 : h.nics[0].mtu), rtt});
  };
  profile(model::front_end_lan_host("fe"), "front-end LAN", "0.166 ms");
  profile(model::back_end_lan_host("be"), "back-end LAN", "0.144 ms");
  profile(model::wan_host("wan"), "front-end WAN", "95 ms");
  std::fputs(t.to_string().c_str(), stdout);
}

// Fig. 4: CPU cost breakdown of a 39 Gbps /dev/zero -> /dev/null transfer
// over one 40G RoCE link, RDMA-based RFTP vs TCP-based iperf.
//
// Paper numbers (absolute CPU, both ends combined):
//   RFTP: 122% total — 56% user-space protocol, ~70% data load, 0% copy,
//         0% kernel protocol (offloaded).
//   TCP:  642% total — 311% kernel protocol, 213% copies, ~70% load.
void fig04() {
  const auto [rftp, tcp] = exp::run_fig4();
  const auto& ru = rftp.both_ends;
  const auto& tu = tcp.both_ends;
  const auto rw = rftp.window;
  const auto tw = tcp.window;
  print_comparison(
      "Fig. 4 cost breakdown at ~39 Gbps (both ends combined)",
      {
          {"RFTP throughput", 39.0, rftp.gbps, "Gbps"},
          {"RFTP total CPU", 122.0, ru.total_percent(rw), "%"},
          {"RFTP user protocol", 56.0,
           ru.percent(CpuCategory::kUserProto, rw), "%"},
          {"RFTP copies", 0.0, ru.percent(CpuCategory::kCopy, rw), "%"},
          {"RFTP kernel protocol", 0.0,
           ru.percent(CpuCategory::kKernelProto, rw), "%"},
          {"RFTP data load (/dev/zero)", 70.0,
           ru.percent(CpuCategory::kLoad, rw), "%"},
          {"TCP throughput", 39.0, tcp.gbps, "Gbps"},
          {"TCP total CPU", 642.0, tu.total_percent(tw), "%"},
          {"TCP kernel protocol", 311.0,
           tu.percent(CpuCategory::kKernelProto, tw), "%"},
          {"TCP copies", 213.0, tu.percent(CpuCategory::kCopy, tw), "%"},
          {"TCP/RDMA total CPU ratio", 5.3,
           tu.total_percent(tw) / ru.total_percent(rw), "x"},
      });
  print_cpu_breakdown("RFTP (RDMA) breakdown", ru, rw);
  print_cpu_breakdown("iperf (TCP) breakdown", tu, tw);
}

// Figs. 7/8: iSER bandwidth and target CPU, default Linux scheduling vs
// NUMA tuning, for read and write fio workloads across block sizes (6 LUNs
// x 4 threads, two IB FDR links, tmpfs-backed target). Fig. 8 plots a
// subset of Fig. 7's points, so one sweep feeds both.
//
// Paper shape (Fig. 7): reads gain ~7.6% from tuning; writes gain up to
// ~19% for blocks > 4 MB; tuned reads run ~7.5% above tuned writes (RDMA
// Write vs RDMA Read); tuned write lands at ~94.8 Gbps (the Fig. 9 path
// limit). (Fig. 8): the un-tuned write path costs ~3x the CPU of the tuned
// one (write-invalidate coherence storms); reads see only a modest penalty.
void fig07_08() {
  const std::uint64_t blocks[] = {256ull << 10, 1ull << 20, 4ull << 20,
                                  8ull << 20};
  std::map<std::tuple<bool, bool, std::uint64_t>, FioReport> pts;
  for (const bool tuned : {false, true})
    for (const bool write : {false, true})
      for (const auto block : blocks)
        pts[{tuned, write, block}] = fio_point(tuned, write, block);

  Table t("Fig. 7 iSER bandwidth (Gbps) vs block size");
  t.header({"block", "read/default", "read/tuned", "write/default",
            "write/tuned"});
  for (const auto block : blocks)
    t.row({std::to_string(block >> 10) + " KiB",
           Table::num(pts[{false, false, block}].gbps),
           Table::num(pts[{true, false, block}].gbps),
           Table::num(pts[{false, true, block}].gbps),
           Table::num(pts[{true, true, block}].gbps)});
  print_table(t);

  const auto& tr = pts[{true, false, 4ull << 20}];
  const auto& tw = pts[{true, true, 4ull << 20}];
  const auto& dr = pts[{false, false, 4ull << 20}];
  const auto& dw = pts[{false, true, 4ull << 20}];
  print_comparison(
      "Fig. 7 headline shapes (4 MiB blocks)",
      {
          {"tuned write (path limit)", 94.8, tw.gbps, "Gbps"},
          {"read advantage over write (tuned)", 7.5,
           100.0 * (tr.gbps / tw.gbps - 1.0), "%"},
          {"write loss without tuning", -19.0,
           100.0 * (dw.gbps / tw.gbps - 1.0), "%"},
          {"read loss without tuning", -7.1,
           100.0 * (dr.gbps / tr.gbps - 1.0), "%"},
      });

  Table c("Fig. 8 iSER target CPU (%, 100 == one core)");
  c.header({"block", "read/default", "read/tuned", "write/default",
            "write/tuned"});
  for (const auto block : {1ull << 20, 4ull << 20, 8ull << 20})
    c.row({std::to_string(block >> 20) + " MiB",
           Table::num(pts[{false, false, block}].target_cpu_pct, 0),
           Table::num(pts[{true, false, block}].target_cpu_pct, 0),
           Table::num(pts[{false, true, block}].target_cpu_pct, 0),
           Table::num(pts[{true, true, block}].target_cpu_pct, 0)});
  print_table(c);
  print_comparison(
      "Fig. 8 headline shapes (4 MiB blocks)",
      {
          {"write CPU ratio default/tuned", 3.0,
           dw.target_cpu_pct / tw.target_cpu_pct, "x"},
          {"read CPU ratio default/tuned", 1.2,
           dr.target_cpu_pct / tr.target_cpu_pct, "x"},
      });
}

// Fig. 9: end-to-end throughput over time, RFTP vs GridFTP, across the
// full SAN -> 3x40G RoCE -> SAN path with XFS over iSER on both sides.
//
// Paper numbers: path limit 94.8 Gbps (fio write); RFTP 91 Gbps (96% of
// the limit); GridFTP 29 Gbps (~30%). The paper plots 25 minutes; this
// row transfers a dataset sized for tens of simulated seconds — the
// steady-state level is the reproduced quantity.
void fig09() {
  constexpr double kPathLimitGbps = 94.8;  // the paper's fio write limit
  const auto rftp = exp::run_transfer(
      {.rig = exp::Rig::kE2e, .bytes = 64ull << 30, .obs = {.stats = true}});
  const auto grid = exp::run_e2e_gridftp(16ull << 30);
  print_comparison(
      "Fig. 9 end-to-end throughput",
      {
          {"path limit (fio write)", 94.8, kPathLimitGbps, "Gbps"},
          {"RFTP", 91.0, rftp.transfer.goodput_gbps, "Gbps"},
          {"RFTP share of path limit", 96.0,
           100.0 * rftp.transfer.goodput_gbps / kPathLimitGbps, "%"},
          {"GridFTP", 29.0, grid.transfer.goodput_gbps, "Gbps"},
          {"RFTP / GridFTP", 3.1,
           rftp.transfer.goodput_gbps / grid.transfer.goodput_gbps, "x"},
      });

  // Throughput-over-time series (the figure's curves), 1-second bins.
  Table t("throughput over time (Gbps per 1 s bin)");
  t.header({"t(s)", "RFTP", "GridFTP"});
  const std::size_t bins =
      std::max(rftp.series_gbps.size(), grid.series_gbps.size());
  for (std::size_t i = 0; i < bins; ++i) {
    auto val = [](const std::vector<double>& v, std::size_t k) {
      return k < v.size() ? Table::num(v[k]) : std::string("-");
    };
    t.row({std::to_string(i), val(rftp.series_gbps, i),
           val(grid.series_gbps, i)});
  }
  std::fputs(t.to_csv().c_str(), stdout);

  // Per-block drain latency percentiles (stats::Histogram — the same
  // implementation every scenario report uses).
  print_hist_percentiles("RFTP block drain latency (us)",
                         {{"drain", &rftp.drain_hist}});
}

// Fig. 10: CPU utilization breakdown of the Fig. 9 end-to-end transfers.
//
// Paper shape: GridFTP's "sys" (kernel TCP/IP + copies) dominates its
// profile; RFTP spends its (much smaller) budget in user-space protocol
// and storage I/O.
void fig10() {
  const auto rftp =
      exp::run_transfer({.rig = exp::Rig::kE2e, .bytes = 32ull << 30});
  const auto grid = exp::run_e2e_gridftp(8ull << 30);
  print_cpu_breakdown("RFTP source host", rftp.src_usage, rftp.window);
  print_cpu_breakdown("RFTP destination host", rftp.dst_usage, rftp.window);
  print_cpu_breakdown("GridFTP source host", grid.src_usage, grid.window);
  print_cpu_breakdown("GridFTP destination host", grid.dst_usage,
                      grid.window);

  const double grid_sys =
      grid.src_usage.percent(CpuCategory::kKernelProto, grid.window) +
      grid.src_usage.percent(CpuCategory::kCopy, grid.window);
  const double grid_user =
      grid.src_usage.percent(CpuCategory::kUserProto, grid.window);
  const double rftp_kernel =
      rftp.src_usage.percent(CpuCategory::kKernelProto, rftp.window);
  print_comparison(
      "Fig. 10 shapes",
      {
          {"GridFTP sys share of (sys+user)", 80.0,
           100.0 * grid_sys / (grid_sys + grid_user), "%"},
          {"RFTP kernel-protocol CPU", 0.0, rftp_kernel, "%"},
          {"GridFTP CPU per Gbps / RFTP CPU per Gbps", 3.0,
           (grid.src_usage.total_percent(grid.window) /
            grid.transfer.goodput_gbps) /
               (rftp.src_usage.total_percent(rftp.window) /
                rftp.transfer.goodput_gbps),
           "x"},
      });
}

// Fig. 11: bi-directional end-to-end throughput.
//
// Paper numbers: RFTP improves 83% over its unidirectional rate (just shy
// of the ideal 2x due to back-end and memory contention); GridFTP gains
// only ~33% because it is already CPU-saturated.
void fig11() {
  constexpr std::uint64_t kRftpBytes = 24ull << 30, kGridBytes = 6ull << 30;
  const double rftp_uni =
      exp::run_transfer({.rig = exp::Rig::kE2e, .bytes = kRftpBytes})
          .transfer.goodput_gbps;
  const auto rftp = exp::run_e2e_bidir(exp::App::kRftp, kRftpBytes);
  const double grid_uni =
      exp::run_e2e_gridftp(kGridBytes).transfer.goodput_gbps;
  const auto grid = exp::run_e2e_bidir(exp::App::kGridFtp, kGridBytes);
  print_comparison(
      "Fig. 11 bi-directional end-to-end throughput",
      {
          {"RFTP unidirectional", 91.0, rftp_uni, "Gbps"},
          {"RFTP bidirectional aggregate", 166.0, rftp.aggregate_gbps,
           "Gbps"},
          {"RFTP improvement", 83.0,
           100.0 * (rftp.aggregate_gbps / rftp_uni - 1.0), "%"},
          {"GridFTP unidirectional", 29.0, grid_uni, "Gbps"},
          {"GridFTP bidirectional aggregate", 38.6, grid.aggregate_gbps,
           "Gbps"},
          {"GridFTP improvement", 33.0,
           100.0 * (grid.aggregate_gbps / grid_uni - 1.0), "%"},
      });
}

// Fig. 12: CPU utilization breakdown of the bi-directional Fig. 11 runs.
//
// Paper shape: GridFTP's bidirectional CPU saturates (its scaling limit);
// RFTP's CPU roughly doubles but stays far below saturation.
void fig12() {
  const auto rftp = exp::run_e2e_bidir(exp::App::kRftp, 16ull << 30);
  const auto grid = exp::run_e2e_bidir(exp::App::kGridFtp, 4ull << 30);
  print_cpu_breakdown("RFTP host (bi-directional)", rftp.src_usage,
                      rftp.window);
  print_cpu_breakdown("GridFTP host (bi-directional)", grid.src_usage,
                      grid.window);
  print_comparison(
      "Fig. 12 shapes",
      {
          {"GridFTP CPU per aggregate Gbps", 0.0,
           grid.src_usage.total_percent(grid.window) / grid.aggregate_gbps,
           "%/Gbps"},
          {"RFTP CPU per aggregate Gbps", 0.0,
           rftp.src_usage.total_percent(rftp.window) / rftp.aggregate_gbps,
           "%/Gbps"},
      });
}

// Fig. 13: RFTP payload bandwidth on the 40G, 95 ms ANI WAN loop as a
// function of block size and number of parallel streams.
//
// Paper shape: small blocks / few streams cannot cover the ~475 MB
// bandwidth-delay product and run window-limited; with enough outstanding
// data RFTP reaches ~97% of the raw link.
void fig13() {
  const std::uint64_t blocks[] = {1ull << 20, 4ull << 20, 16ull << 20,
                                  64ull << 20};
  const int streams[] = {1, 2, 4, 8};
  std::map<std::pair<int, std::uint64_t>, double> gbps;
  for (const int s : streams)
    for (const auto block : blocks)
      // Long enough that the window-fill ramp and drain tail are noise.
      gbps[{s, block}] =
          wan_point(s, block,
                    std::max<std::uint64_t>(64ull * block * s, 24ull << 30))
              .transfer.goodput_gbps;

  Table t("Fig. 13 WAN RFTP payload bandwidth (Gbps), RTT 95 ms, 16 credits");
  t.header({"block", "1 stream", "2 streams", "4 streams", "8 streams"});
  for (const auto block : blocks) {
    std::vector<std::string> row{std::to_string(block >> 20) + " MiB"};
    for (const int s : streams) row.push_back(Table::num(gbps[{s, block}]));
    t.row(row);
  }
  print_table(t);

  print_comparison(
      "Fig. 13 headline",
      {
          {"peak utilization of 40G link", 97.0,
           100.0 * (gbps[{8, 16ull << 20}] / 40.0), "%"},
          {"window-limited point (1 stream, 1 MiB)", 1.4,
           gbps[{1, 1ull << 20}], "Gbps"},
      });
}

// Fig. 14: RFTP CPU utilization on the WAN path — (a) sender, (b)
// receiver — versus block size and stream count. Its own sweep: the
// dataset floor is 2 GiB, not Fig. 13's 24 GiB.
//
// Paper shape: per-block protocol costs dominate, so CPU falls as the
// block size grows and rises with stream count; both sides stay far below
// one core even at line rate.
void fig14() {
  const std::uint64_t blocks[] = {1ull << 20, 4ull << 20, 16ull << 20};
  const int streams[] = {1, 4, 8};
  std::map<std::pair<int, std::uint64_t>, exp::TransferRun> pts;
  for (const int s : streams)
    for (const auto block : blocks)
      pts[{s, block}] = wan_point(
          s, block, std::max<std::uint64_t>(64ull * block * s, 2ull << 30));

  for (const bool receiver : {false, true}) {
    Table t(receiver ? "Fig. 14(b) receiver protocol CPU (%)"
                     : "Fig. 14(a) sender protocol CPU (%)");
    t.header({"block", "1 stream", "4 streams", "8 streams"});
    for (const auto block : blocks) {
      std::vector<std::string> row{std::to_string(block >> 20) + " MiB"};
      for (const int s : streams) {
        row.push_back(Table::num(proto_cpu(pts[{s, block}], receiver)));
      }
      t.row(row);
    }
    print_table(t);
  }

  print_comparison(
      "Fig. 14 shape: CPU per Gbps falls with block size (4 streams)",
      {
          {"sender CPU/Gbps at 1 MiB vs 16 MiB", 0.0,
           (proto_cpu(pts[{4, 1ull << 20}], false) /
            pts[{4, 1ull << 20}].transfer.goodput_gbps) /
               (proto_cpu(pts[{4, 16ull << 20}], false) /
                pts[{4, 16ull << 20}].transfer.goodput_gbps),
           "x"},
      });
}

// Verbs-layer validation: the perftest suite (ib_send_bw / ib_write_bw /
// ib_read_bw / ib_send_lat analogues) over one 40G RoCE LAN link.
//
// Not a paper figure — this is the sanity table every RDMA stack ships,
// pinning the verbs layer to its analytic targets: large messages reach
// ~99% of line rate, RDMA Read trails Write by the read-efficiency factor,
// and small-message tests are message-rate / latency bound.
void perftest() {
  const std::uint64_t sizes[] = {4096, 65536, 1ull << 20, 4ull << 20};
  const apps::PerftestOp ops[] = {apps::PerftestOp::kSend,
                                  apps::PerftestOp::kWrite,
                                  apps::PerftestOp::kRead};
  std::map<std::pair<apps::PerftestOp, std::uint64_t>, double> gbps;
  for (const auto op : ops)
    for (const auto size : sizes) {
      apps::PerftestConfig cfg;
      cfg.op = op;
      cfg.msg_bytes = size;
      cfg.iterations = 2000;
      gbps[{op, size}] = exp::run_perftest(cfg, false).gbps;
    }
  apps::PerftestConfig lat_cfg;
  lat_cfg.msg_bytes = 64;
  lat_cfg.iterations = 500;
  const auto lat = exp::run_perftest(lat_cfg, true);

  Table t("perftest: single-QP bandwidth (Gbps), 40G RoCE");
  t.header({"message", "SEND", "RDMA WRITE", "RDMA READ"});
  for (const auto s : sizes) {
    std::vector<std::string> row{std::to_string(s) + " B"};
    for (const auto op : ops) row.push_back(Table::num(gbps[{op, s}]));
    t.row(row);
  }
  std::fputs(t.to_string().c_str(), stdout);
  std::printf("\nping-pong latency (64 B): %.1f us (wire RTT/2 = 83 us)\n",
              lat.avg_lat_us);
}

// Ablation (§4.2): fio threads per LUN.
//
// The paper reports throughput levels off at 4 threads/LUN and degrades
// beyond that from contention; this sweep regenerates that knee.
void threads_per_lun() {
  const int threads[] = {1, 2, 4, 8, 16};
  std::map<int, FioReport> rd, wr;
  for (const int thr : threads)
    for (const bool write : {false, true})
      (write ? wr : rd)[thr] = fio_point(true, write, 4ull << 20, thr);

  Table t("Ablation: fio threads per LUN (tuned, 4 MiB)");
  t.header({"threads/LUN", "read Gbps", "write Gbps", "target CPU% (write)"});
  for (const int thr : threads)
    t.row({std::to_string(thr), Table::num(rd[thr].gbps),
           Table::num(wr[thr].gbps), Table::num(wr[thr].target_cpu_pct, 0)});
  std::fputs(t.to_string().c_str(), stdout);
  std::printf(
      "\npaper: gains level off at 4 threads/LUN; more adds contention\n");
}

// Ablations of RFTP's own design choices (DESIGN.md §4): credit depth vs
// the WAN bandwidth-delay product, and NUMA-aware pinning on/off on the
// LAN end-to-end path.
void rftp() {
  const int credits[] = {2, 4, 8, 16, 32};
  std::map<int, double> by_credits;
  for (const int c : credits)
    by_credits[c] =
        wan_point(4, 4ull << 20, 8ull << 30, c).transfer.goodput_gbps;
  const auto untuned = exp::run_transfer(
      {.rig = exp::Rig::kE2e, .bytes = 24ull << 30, .numa = false});
  const auto tuned =
      exp::run_transfer({.rig = exp::Rig::kE2e, .bytes = 24ull << 30});

  Table t("Ablation: WAN credit depth (4 streams, 4 MiB blocks, BDP ~475 MB)");
  t.header({"credits/stream", "in-flight", "Gbps", "link util"});
  for (const int c : credits) {
    const double mb = 4.0 * c * 4.0;
    t.row({std::to_string(c), Table::num(mb, 0) + " MiB",
           Table::num(by_credits[c]),
           Table::num(100.0 * (by_credits[c] / 40.0), 0) + "%"});
  }
  std::fputs(t.to_string().c_str(), stdout);

  print_comparison(
      "Ablation: RFTP NUMA awareness on the LAN end-to-end path",
      {
          {"numa-aware", 91.0, tuned.transfer.goodput_gbps, "Gbps"},
          {"untuned (stock scheduler + interleaved pools)", 0.0,
           untuned.transfer.goodput_gbps, "Gbps"},
          {"gain", 0.0,
           100.0 * (tuned.transfer.goodput_gbps /
                        untuned.transfer.goodput_gbps -
                    1.0),
           "%"},
      });
}

// Ablation (§4.3): filesystem choice over the exported iSER volume.
//
// The paper found raw device, ext4 and XFS comparable for this streaming
// workload, chose XFS for its parallel-I/O behaviour, and blames part of
// GridFTP's loss on buffered (non-direct) I/O. This row quantifies all
// three choices on the front-end write path.
void filesystems() {
  Table t("Ablation: destination filesystem (RFTP sink path)");
  t.header({"variant", "Gbps"});
  const std::pair<exp::SinkFs, const char*> variants[] = {
      {exp::SinkFs::kRaw, "raw device"},
      {exp::SinkFs::kExt4, "ext4 (journal)"},
      {exp::SinkFs::kXfs, "XFS (parallel AGs)"},
      {exp::SinkFs::kXfsBuffered, "XFS buffered (no direct I/O)"}};
  for (const auto& [kind, name] : variants)
    t.row({name, Table::num(exp::run_sink_fs(kind))});
  std::fputs(t.to_string().c_str(), stdout);
  std::printf(
      "\npaper: raw/ext4/XFS comparable for streaming; direct I/O matters\n");
}

// Ablation / extension: NUMA policies inside the iSER target.
//
// The paper evaluates static numactl binding and names the alternative —
// "integrate the libnuma programming interface into the target ... relies
// on a scheduling algorithm for each I/O request" — as beyond its scope.
// This row builds and measures that alternative: a single un-bound target
// process whose dispatcher routes every SCSI task to a worker on the LUN's
// home node (iscsi::TargetSched::kNumaRouted).
//
// Expected shape: dynamic routing recovers most of the static binding's
// bandwidth and CPU savings without per-process numactl configuration.
void numa_scheduler() {
  enum class Mode { kDefault, kNumactl, kLibnuma };
  const std::pair<Mode, const char*> modes[] = {
      {Mode::kDefault, "default scheduler"},
      {Mode::kNumactl, "numactl (static, paper)"},
      {Mode::kLibnuma, "libnuma (dynamic, extension)"}};
  Table t("Ablation: target NUMA policy (fio, 4 MiB blocks, 4 threads/LUN)");
  t.header({"policy", "read Gbps", "read CPU", "write Gbps", "write CPU"});
  for (const auto& [mode, name] : modes) {
    std::vector<std::string> row{name};
    for (const bool write : {false, true}) {
      exp::SanParams p;
      p.san.numa_tuned = mode == Mode::kNumactl;
      p.san.libnuma_dynamic = mode == Mode::kLibnuma;
      p.fio.write = write;
      const auto r = exp::run_san(p).fio;
      row.push_back(Table::num(r.gbps));
      row.push_back(Table::num(r.target_cpu_pct, 0) + "%");
    }
    t.row(row);
  }
  std::fputs(t.to_string().c_str(), stdout);
  std::printf(
      "\npaper evaluated the static policy; the dynamic per-request\n"
      "scheduler is the future work it deferred (built here to compare).\n");
}

// Ablation: iSER vs traditional iSCSI-over-TCP on the back-end SAN.
//
// The paper adopts iSER for its storage network (§2.2, §3.1) on the
// grounds that TCP's copies and kernel processing would consume the hosts
// long before the wire saturates. This row runs the same SCSI workload
// over both datamovers on one 56G IB link and reports bandwidth and CPU
// on both hosts.
void iser_vs_tcp() {
  Table t("Ablation: SAN transport, one 56G IB link, 8 jobs x 4 MiB");
  t.header({"transport", "op", "Gbps", "initiator CPU", "target CPU",
            "copy CPU (both)"});
  for (const bool tcp : {false, true})
    for (const bool write : {false, true}) {
      exp::SanLinkOptions o;
      o.tcp = tcp;
      o.write = write;
      const auto r = exp::run_san_link(o);
      t.row({tcp ? "iSCSI/TCP" : "iSER (RDMA)", write ? "write" : "read",
             Table::num(r.gbps), Table::num(r.initiator_cpu, 0) + "%",
             Table::num(r.target_cpu, 0) + "%",
             Table::num(r.copy_cpu, 0) + "%"});
    }
  std::fputs(t.to_string().c_str(), stdout);
  std::printf(
      "\nwhy the paper picked iSER: TCP pays payload copies + per-packet\n"
      "kernel work on both hosts; RDMA offloads both to the adapters.\n");
}

// Ablation: goodput under injected faults, iSER vs iSCSI-over-TCP.
//
// The robustness layer (src/fault) injects seeded loss bursts, flaps,
// latency spikes, blackholes and QP kills while the same 8-job write
// workload runs over both SAN datamovers. TCP hides wire faults inside
// transport retransmission; iSER surfaces them as failed completions and
// leans on the layered recovery stack (command retries -> QP reset ->
// session re-login). This row quantifies what each layer costs: goodput
// retained per fault intensity, plus the retry/recovery work expended.
void fault_recovery() {
  // Fault mixes over the 2 s measurement window (seed 7), from none (an
  // empty plan) to a storm.
  using Mix = fault::FaultPlan::RandomParams;
  const std::pair<const char*, std::optional<Mix>> levels[] = {
      {"clean", std::nullopt},
      {"light", Mix{.horizon = exp::kSanLinkWindow, .loss_bursts = 4,
                    .flaps = 0, .spikes = 1, .holes = 0, .qp_kills = 0}},
      {"heavy", Mix{.horizon = exp::kSanLinkWindow, .loss_bursts = 16,
                    .flaps = 2, .spikes = 2, .holes = 2, .qp_kills = 0}},
      // One QP kill mid-run: iSER recovers the session.
      {"storm", Mix{.horizon = exp::kSanLinkWindow, .qps = 1,
                    .loss_bursts = 48, .max_burst = 8, .flaps = 4,
                    .spikes = 4, .holes = 4, .qp_kills = 1}},
  };

  Table t(
      "Ablation: goodput under injected faults (seed 7, 2 s window, "
      "8 jobs x 4 MiB writes)");
  t.header({"faults", "transport", "Gbps", "injected", "msgs failed",
            "cmd retries", "recoveries", "terminal"});
  std::vector<std::pair<std::string, stats::Histogram>> hists;
  for (const auto& [name, mix] : levels)
    for (const bool tcp : {false, true}) {
      exp::SanLinkOptions o;
      o.tcp = tcp;
      // TCP's transport retransmits absorb wire faults, so its initiator
      // runs without a command timer; iSER sees failed completions and
      // needs the command-retry layer armed. The timer sits above the
      // ~7 ms queueing latency of 8 concurrent 4 MiB commands so clean
      // runs never retry.
      o.cmd_timer = tcp ? 0 : 25 * sim::kMillisecond;
      o.recovery = !tcp;
      if (mix) o.faults = fault::FaultPlan::random(7, *mix);
      auto r = exp::run_san_link(o);
      t.row({name, tcp ? "iSCSI/TCP" : "iSER (RDMA)", Table::num(r.gbps),
             std::to_string(r.faults), std::to_string(r.messages_failed),
             std::to_string(r.command_retries), std::to_string(r.recoveries),
             std::to_string(r.command_failures)});
      hists.emplace_back(std::string(tcp ? "iSCSI/TCP " : "iSER ") + name,
                         std::move(r.cmd_hist));
    }
  std::fputs(t.to_string().c_str(), stdout);

  // Command round-trip latency percentiles per case: fault recovery shows
  // up in the tail long before it dents the goodput column above.
  std::vector<std::pair<std::string, const stats::Histogram*>> rows;
  for (const auto& [label, h] : hists) rows.emplace_back(label, &h);
  print_hist_percentiles("iSCSI command latency (us)", rows);
  std::printf(
      "\nTCP buries wire faults in transport retransmission (goodput dips,\n"
      "no visible recovery work); iSER surfaces them and pays with command\n"
      "retries and, for QP kills, a session re-login -- but keeps RDMA\n"
      "zero-copy goodput everywhere the wire is clean.\n");
}

// Ablation: crash-stop fault domains on the RFTP WAN path (DESIGN.md §9).
//
// Two sweeps over the same 4 GiB transfer on the 95 ms ANI 40G loop:
//
//  * crash frequency — 0/1/2/4 scripted host crashes (50 ms downtime,
//    alternating sender/receiver). Measures goodput retained, MTTR
//    (crash to negotiated resume, RTT-dominated on the WAN) and
//    time-to-first-drain after each resume.
//  * checkpoint interval — one receiver crash mid-drain-burst with the
//    durable ledger checkpointing every 1/8/64 fresh drains, plus the
//    ledger disabled (restart from byte zero). Measures the rollback
//    the ledger buys back: blocks re-sent because their acks were
//    volatile when the receiver died.
/// One 4 GiB transfer under `plan`, checkpointing every
/// `checkpoint_blocks` fresh drains.
exp::TransferRun crash_case(const char* plan, int checkpoint_blocks) {
  return exp::run_transfer({.rig = exp::Rig::kWan,
                            .bytes = 4ull << 30,
                            .streams = 4,
                            .checkpoint_blocks = checkpoint_blocks,
                            .fault_plan = fault::FaultPlan::parse(plan),
                            .obs = {.stats = true}});
}

/// Complete with integrity intact.
bool crash_ok(const exp::TransferRun& r) {
  return r.transfer.complete && r.transfer.integrity_ok;
}

void crash_restart() {
  // 0..4 crashes across the ~1.4 s transfer, alternating hosts, 50 ms down.
  const std::pair<const char*, const char*> schedules[] = {
      {"clean", ""},
      {"1 crash", "crash@600ms:host=1,down=50ms"},
      {"2 crashes",
       "crash@400ms:host=0,down=50ms; crash@800ms:host=1,down=50ms"},
      {"4 crashes",
       "crash@300ms:host=0,down=50ms; crash@600ms:host=1,down=50ms; "
       "crash@900ms:host=0,down=50ms; crash@1200ms:host=1,down=50ms"},
  };
  const int ckpt_blocks[] = {1, 8, 64, 0};  // 0 = ledger disabled
  std::vector<exp::TransferRun> freq, ckpt;
  for (const auto& [name, plan] : schedules)
    freq.push_back(crash_case(plan, 8));
  for (const int every : ckpt_blocks)
    ckpt.push_back(crash_case("crash@760ms:host=1,down=20ms", every));

  Table t(
      "Ablation: crash frequency (4 GiB over the 95 ms WAN loop, 4 streams, "
      "50 ms downtime, ledger every 8 blocks)");
  t.header({"schedule", "Gbps", "resumes", "rolled back", "blk retx",
            "grant retx", "MTTR ms (mean)", "ok"});
  for (std::size_t i = 0; i < freq.size(); ++i) {
    const auto& p = freq[i];
    t.row({schedules[i].first, Table::num(p.transfer.goodput_gbps),
           std::to_string(p.transfer.resumes),
           std::to_string(p.rolled_back_blocks),
           std::to_string(p.retransmissions),
           std::to_string(p.grant_retransmissions),
           p.mttr_hist.count() > 0 ? Table::num(p.mttr_hist.mean() * 1e-6, 1)
                                   : std::string("-"),
           crash_ok(p) ? "yes" : "NO"});
  }
  std::fputs(t.to_string().c_str(), stdout);

  Table c(
      "Ablation: ledger checkpoint interval (one receiver crash at 760 ms, "
      "20 ms downtime)");
  c.header({"interval", "Gbps", "checkpoints", "rolled back", "re-sent MiB",
            "ok"});
  for (std::size_t i = 0; i < ckpt.size(); ++i) {
    const auto& p = ckpt[i];
    c.row({ckpt_blocks[i] == 0 ? "ledger off"
                               : "every " + std::to_string(ckpt_blocks[i]),
           Table::num(p.transfer.goodput_gbps), std::to_string(p.checkpoints),
           std::to_string(p.rolled_back_blocks),
           std::to_string(p.rolled_back_blocks * 4),  // 4 MiB blocks
           crash_ok(p) ? "yes" : "NO"});
  }
  std::fputs(c.to_string().c_str(), stdout);

  // MTTR decomposition: re-establish + MR re-pin + resume negotiation is
  // RTT-dominated on the WAN; time-to-first-drain adds the refill of the
  // credit pipeline.
  std::vector<std::pair<std::string, const stats::Histogram*>> hists;
  for (std::size_t i = 1; i < freq.size(); ++i) {
    hists.push_back(
        {std::string(schedules[i].first) + " MTTR", &freq[i].mttr_hist});
    hists.push_back({std::string(schedules[i].first) + " first-drain",
                     &freq[i].resume_hist});
  }
  print_hist_percentiles("Crash recovery latency (ms)", hists, 1e-6, 1);
  std::printf(
      "\nThe ledger turns a receiver crash from a full restart into a\n"
      "bounded rollback (at most interval-1 blocks per stream re-sent);\n"
      "MTTR itself is wire-bound -- re-login, MR re-pin and the resume\n"
      "handshake all ride the 95 ms RTT, not the checkpoint cadence.\n");
}

// Small-message tier: two-sided rpc vs one-sided READ GETs.
//
// The kv scenario on one client/server pair over a rack-scale 40G RoCE
// link, value size swept from 64 B to 256 KiB in both GET modes. rpc is
// one round trip plus server CPU per call (dispatch, lookup, a memcpy of
// the value into the reply staging region); read is two chained one-sided
// READs (index entry, then value): two round trips, no server CPU, and the
// READ-efficiency wire factor on the payload. Mops/s is closed-loop at
// depth 8; the GET percentiles are unloaded at depth 1, because under
// pipelining the server copy overlaps the wire and only the unloaded round
// trip exposes it. The crossover is the smallest swept value size where
// read matches or beats rpc on unloaded median GET latency: ~16 KiB on the
// default cost model, where the one-sided path's saved dispatch, lookup
// and 0.241 ns/B copy outweigh its extra 4 us RTT. KvParams defaults
// otherwise (one pair, 16384 keys, 4096 ops, Zipf 0.99, seed 1), with
// pure GETs, no cross-pair ring and audits off.
void rpc_crossover() {
  auto run = [](bool via_read, std::uint64_t value_bytes, int depth) {
    exp::KvParams p;
    p.value_bytes = value_bytes;
    p.depth = depth;
    p.get_via_read = via_read;
    p.put_frac = 0.0;
    p.remote_every = 0;
    p.audit = false;
    auto r = exp::run_kv(p);
    if (!r.complete) {
      std::fprintf(stderr, "rpc_crossover: %s @ %llu B depth %d did not "
                   "complete\n", via_read ? "read" : "rpc",
                   static_cast<unsigned long long>(value_bytes), depth);
      std::exit(1);
    }
    return r;
  };
  const std::uint64_t sizes[] = {64, 256, 1024, 4096, 16384, 65536, 262144};

  Table t(
      "rpc crossover: kv GETs, two-sided rpc vs one-sided READ (1 pair, 40G "
      "RoCE rack link, 4096 ops, Zipf 0.99)");
  t.header({"value", "GET via", "Mops/s (depth 8)", "p50 ns (depth 1)",
            "p99 ns", "p999 ns"});
  std::uint64_t crossover = 0;
  for (const auto v : sizes) {
    std::uint64_t rpc_p50 = 0;
    for (const bool via_read : {false, true}) {
      const auto bw = run(via_read, v, 8);
      const auto lat = run(via_read, v, 1);
      char mops[32];
      std::snprintf(mops, sizeof mops, "%.6g", bw.aggregate_mops);
      t.row({std::to_string(v) + " B", via_read ? "read" : "rpc", mops,
             std::to_string(lat.get_p50_ns), std::to_string(lat.get_p99_ns),
             std::to_string(lat.get_p999_ns)});
      if (!via_read)
        rpc_p50 = lat.get_p50_ns;
      else if (crossover == 0 && lat.get_p50_ns <= rpc_p50)
        crossover = v;
    }
  }
  print_table(t);
  std::printf("crossover: %llu B\n",
              static_cast<unsigned long long>(crossover));
}

struct Row {
  const char* name;
  const char* ref;  // where the paper (or this reproduction) reports it
  void (*run)();
};

constexpr Row kRows[] = {
    {"motivating", "Sec. 2.3", motivating},
    {"table1", "Table 1", table1},
    {"fig04", "Fig. 4", fig04},
    {"fig07_08", "Figs. 7 and 8", fig07_08},
    {"fig09", "Fig. 9", fig09},
    {"fig10", "Fig. 10", fig10},
    {"fig11", "Fig. 11", fig11},
    {"fig12", "Fig. 12", fig12},
    {"fig13", "Fig. 13", fig13},
    {"fig14", "Fig. 14", fig14},
    {"perftest", "verbs perftest, not a paper figure", perftest},
    {"threads_per_lun", "ablation, Sec. 4.2", threads_per_lun},
    {"rftp", "ablation, RFTP design choices", rftp},
    {"filesystems", "ablation, Sec. 4.3", filesystems},
    {"numa_scheduler", "ablation, libnuma target", numa_scheduler},
    {"iser_vs_tcp", "ablation, SAN transport", iser_vs_tcp},
    {"fault_recovery", "ablation, faults vs recovery", fault_recovery},
    {"crash_restart", "ablation, crash-stop and resume", crash_restart},
    {"rpc_crossover", "small-message tier, not a paper figure",
     rpc_crossover},
};

}  // namespace
}  // namespace e2e::bench

int main(int argc, char** argv) {
  using e2e::bench::kRows;
  std::vector<const e2e::bench::Row*> picked;
  for (int i = 1; i < argc; ++i) {
    const auto* row = std::find_if(
        std::begin(kRows), std::end(kRows),
        [&](const auto& r) { return std::strcmp(r.name, argv[i]) == 0; });
    if (row == std::end(kRows)) {
      std::fprintf(stderr, "unknown row: %s\nusage: %s [row...]\nrows:\n",
                   argv[i], argv[0]);
      for (const auto& r : kRows)
        std::fprintf(stderr, "  %-16s %s\n", r.name, r.ref);
      return 2;
    }
    picked.push_back(row);
  }
  if (picked.empty())
    for (const auto& r : kRows) picked.push_back(&r);
  for (const auto* row : picked) {
    std::fprintf(stderr, "== %s (%s)\n", row->name, row->ref);
    row->run();
    std::fflush(stdout);
  }
  return 0;
}
