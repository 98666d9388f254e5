// Shared experiment drivers for the bench_figures rows.
//
// Each function runs one of the paper's scenarios on a fresh testbed and
// returns the measurements the corresponding figure reports; the rows in
// bench_figures.cpp sweep them and print paper-vs-measured tables.
#pragma once

#include <cstdint>
#include <vector>

#include "fault/plan.hpp"
#include "metrics/cpu_usage.hpp"
#include "rftp/config.hpp"
#include "sim/time.hpp"
#include "stats/histogram.hpp"

namespace e2e::bench {

// --- §2.3 motivating experiment ---
struct MotivatingResult {
  double stream_local_gBps = 0.0;   // paper: 50 GB/s
  double stream_interleaved_gBps = 0.0;
  double iperf_gbps = 0.0;          // paper: 83.5 default / 91.8 tuned
  metrics::CpuUsage host_usage;     // per host over `window`
  double copy_share = 0.0;          // paper: copy routines ~35% of CPU
  sim::SimDuration window = 0;
};
MotivatingResult run_motivating(bool numa_tuned,
                                sim::SimDuration duration = 3 * sim::kSecond);

// --- Fig. 4 cost breakdown at ~39 Gbps ---
struct CostBreakdown {
  double gbps = 0.0;
  metrics::CpuUsage both_ends;  // sum over sender + receiver
  sim::SimDuration window = 0;
};
CostBreakdown run_fig4_rftp(std::uint64_t bytes = 12ull << 30);
CostBreakdown run_fig4_tcp(sim::SimDuration duration = 3 * sim::kSecond);

// --- Figs. 7/8 iSER fio sweep ---
struct IserPoint {
  double gbps = 0.0;
  double target_cpu_pct = 0.0;
  metrics::CpuUsage target_usage;
  std::uint64_t ios = 0;
};
IserPoint run_iser_point(bool numa_tuned, bool write, std::uint64_t block,
                         int threads_per_lun = 4,
                         sim::SimDuration duration = 2 * sim::kSecond);

// --- Figs. 9-12 end-to-end ---
struct E2eResult {
  rftp::TransferResult transfer;
  std::vector<double> series_gbps;    // 1-second bins
  metrics::CpuUsage src_usage;
  metrics::CpuUsage dst_usage;
  sim::SimDuration window = 0;
  double path_limit_gbps = 94.8;      // paper's fio write limit
  // Block drain latency across all streams (empty for scenarios without a
  // stats registry, e.g. GridFTP which has no RFTP drain path).
  stats::Histogram drain_hist;
};
E2eResult run_e2e_rftp(std::uint64_t dataset, bool numa_tuned = true);
E2eResult run_e2e_gridftp(std::uint64_t dataset, int processes = 4);

struct BidirResult {
  double aggregate_gbps = 0.0;       // both directions
  double unidirectional_gbps = 0.0;  // same testbed, one direction
  double improvement = 0.0;          // aggregate / unidirectional - 1
  metrics::CpuUsage src_usage;       // "source" host during bidir
  sim::SimDuration window = 0;
};
BidirResult run_e2e_rftp_bidir(std::uint64_t dataset_per_direction);
BidirResult run_e2e_gridftp_bidir(std::uint64_t dataset_per_direction,
                                  int processes = 4);

// --- Figs. 13/14 WAN ---
struct WanPoint {
  double gbps = 0.0;
  double sender_cpu_pct = 0.0;    // user-space protocol CPU, sender host
  double receiver_cpu_pct = 0.0;
  double utilization = 0.0;       // of the 40G line
};
WanPoint run_wan_point(int streams, std::uint64_t block,
                       std::uint64_t dataset = 16ull << 30,
                       int credits = 16);

// --- iSER vs iSCSI/TCP ablations: one LUN over one 56G IB link ---
inline constexpr sim::SimDuration kSanLinkWindow = 2 * sim::kSecond;

struct SanLinkOptions {
  bool tcp = false;  // iSCSI over TCP instead of iSER
  bool write = true;
  sim::SimDuration cmd_timer = 0;  // iSCSI command timer, 0 = none
  bool recovery = false;           // iSER session recovery (QP kills)
  fault::FaultPlan faults;  // armed against the link as the window opens
};
struct SanLinkResult {
  double gbps = 0.0;
  double initiator_cpu = 0.0;
  double target_cpu = 0.0;
  double copy_cpu = 0.0;  // both hosts
  std::uint64_t faults = 0;
  std::uint64_t messages_failed = 0;
  std::uint64_t command_retries = 0;
  std::uint64_t recoveries = 0;
  std::uint64_t command_failures = 0;
  stats::Histogram cmd_hist;  // iSCSI command round-trip latency
};
/// 8 jobs of 4 MiB I/Os against one 4 GiB tmpfs LUN for kSanLinkWindow.
SanLinkResult run_san_link(const SanLinkOptions& opts);

}  // namespace e2e::bench
