// Experiment drivers only the bench_figures rows run.
//
// Each function runs one of the paper's scenarios on a fresh testbed and
// returns the measurements the corresponding figure reports. The rows in
// bench_figures.cpp sweep them, and the exp runners the CLI and the
// examples share (exp/scenarios.hpp), and print paper-vs-measured tables.
#pragma once

#include <cstdint>

#include "exp/scenarios.hpp"
#include "fault/plan.hpp"
#include "metrics/cpu_usage.hpp"
#include "sim/time.hpp"
#include "stats/histogram.hpp"

namespace e2e::bench {

// --- Fig. 4 cost breakdown at ~39 Gbps ---
struct CostBreakdown {
  double gbps = 0.0;
  metrics::CpuUsage both_ends;  // sum over sender + receiver
  sim::SimDuration window = 0;
};
CostBreakdown run_fig4_rftp(std::uint64_t bytes = 12ull << 30);
CostBreakdown run_fig4_tcp(sim::SimDuration duration = 3 * sim::kSecond);

// --- Figs. 9-12 end-to-end (RFTP: exp::run_transfer) ---
exp::TransferRun run_e2e_gridftp(std::uint64_t dataset, int processes = 4);

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
