// Single-engine paper experiments, one runner each, shared by the CLI
// (tools/e2e_transfer_sim), the bench_figures rows, the paper-shape tests
// and the examples: run_transfer (an RFTP transfer on the quick, e2e or
// wan rig), run_san (the Figs. 7/8 fio run) and run_motivating (the §2.3
// iperf study) take observers; the runners below them (Fig. 4, perftest,
// GridFTP, the bidirectional runs, the filesystem and SAN-link ablations)
// report modeled numbers only.
//
// Like run_fleet/run_kv, a runner takes params and returns the modeled
// numbers with the observer outputs (a trace streams into the caller's
// ostream). It builds its rig, then installs the observers (registry,
// auditor, tracer: after any setup-phase run, so the trace sampler covers
// the measured run only), then arms the fault plan, in that order: entity
// ids follow construction order; no observer schedules an event.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

#include "apps/perftest.hpp"
#include "exp/testbeds.hpp"
#include "fault/plan.hpp"
#include "metrics/cpu_usage.hpp"
#include "rftp/config.hpp"
#include "stats/histogram.hpp"

namespace e2e::exp {

/// Observers a runner installs on its engine.
struct Observers {
  bool audit = false;      // check::Auditor: verdict and report
  bool stats = false;      // stats::Registry: dump, flight recorder
  bool stats_csv = false;  // dump the registry as CSV instead of JSON
  /// Non-null: a trace::Tracer with a 10 ms resource sampler, whose
  /// Chrome trace is written here after the run. Streamed, not returned:
  /// a trace runs to hundreds of MB.
  std::ostream* trace = nullptr;
};

/// What every runner reports besides its modeled numbers.
struct Observed {
  bool audit_ok = true;  // also true when nothing was audited
  /// Diagnostics for stderr: the audit report, then the flight dump of a
  /// failed run that no layer dumped itself (layers dump live to stderr).
  std::string report;
  std::string stats_dump;  // Observers::stats
};

// --- RFTP transfers ---

enum class Rig { kQuick, kE2e, kWan };

struct TransferParams {
  Rig rig = Rig::kQuick;
  std::uint64_t bytes = 16ull << 30;
  int streams = 0;  // 0 = the rig's default (see streams_or_default)
  std::uint64_t block_bytes = 4ull << 20;
  int credits = 16;
  /// quick: RFTP NUMA awareness; e2e: that and the SAN tuning. wan does
  /// not read it (its processes are bound to their NIC's node).
  bool numa = true;
  int checkpoint_blocks = 1;
  bool fast_forward = false;
  int files = 1;  // e2e: split the dataset into this many files
  /// A scripted plan, or (fault_seed != 0) a random one over the rig's
  /// links and streams. Either is attached to the session and armed.
  std::optional<fault::FaultPlan> fault_plan{};
  std::uint64_t fault_seed = 0;
  Observers obs{};

  /// `streams`, or the rig's default: quick 1, e2e 3, wan 4.
  [[nodiscard]] int streams_or_default() const noexcept;
};

struct TransferRun : Observed {
  rftp::TransferResult transfer;
  std::uint64_t sink_digest = 0;
  std::vector<double> series_gbps;  // e2e only: 1-second bins
  metrics::CpuUsage src_usage;      // sending host's CPU, see below
  metrics::CpuUsage dst_usage;      // receiving host, likewise
  // On the modeled clock (Engine::virtual_now), so a fast-forwarded run
  // reads the same as its event-exact twin. RFTP's window is
  // transfer.start..end and its usages are transfer.sender/receiver_usage:
  // the streams' set-up is in neither. GridFTP's usages run from engine
  // start.
  sim::SimDuration window = 0;      // the transfer run alone
  sim::SimTime end = 0;             // modeled time once the engine drained
  // Observers::stats: block drain latency, crash -> negotiated resume
  // (MTTR) and resume -> first fresh drain.
  stats::Histogram drain_hist, mttr_hist, resume_hist;
  // The fault plan as armed (empty without one) and what it did.
  std::string fault_plan;
  std::uint64_t faults_injected = 0;
  std::uint64_t messages_failed = 0;
  std::uint64_t retransmissions = 0;
  std::uint64_t grant_retransmissions = 0;
  std::uint64_t failovers = 0;
  std::uint64_t checkpoints = 0;
  std::uint64_t rolled_back_blocks = 0;
  std::uint64_t false_suspicions = 0;
};

TransferRun run_transfer(const TransferParams& p);

// --- Figs. 7/8 iSER fio ---

struct SanParams {
  SanConfig san{.lun_bytes = 4ull << 30};
  apps::FioOptions fio{.block_bytes = 4ull << 20,
                       .duration = 2 * sim::kSecond};
  int threads_per_lun = 4;
  Observers obs{};
};

struct SanRun : Observed {
  SanTestbed::FioReport fio;
};

SanRun run_san(const SanParams& p);

// --- §2.3 motivating experiment ---

struct MotivatingRun : Observed {
  /// 3 s each, on its own FrontEndPair. Stats and trace dumps are the
  /// tuned run's; the audit covers both.
  apps::IperfReport stock, tuned;
};

MotivatingRun run_motivating(const Observers& obs);

/// §2.3 STREAM triad on one front-end host (GB/s): node-local, or
/// interleaved across both nodes.
double run_stream_triad(bool numa_local);

// --- Fig. 4 cost breakdown: /dev/zero -> one 40G RoCE link -> /dev/null ---

struct CostBreakdown {
  double gbps = 0.0;
  metrics::CpuUsage both_ends;  // sender + receiver
  sim::SimDuration window = 0;
};

struct Fig4Run {
  CostBreakdown rftp, tcp;
};

/// RFTP moves `bytes` (one stream, 1 MiB blocks, both ends bound to node
/// 0); NUMA-tuned iperf runs four TCP streams for `tcp_duration`. Each on
/// its own FrontEndPair.
Fig4Run run_fig4(std::uint64_t bytes = 12ull << 30,
                 sim::SimDuration tcp_duration = 3 * sim::kSecond);

/// One verbs perftest (bandwidth, or `latency` ping-pong) on the quick
/// rig's 40G RoCE HostPair.
apps::PerftestResult run_perftest(const apps::PerftestConfig& cfg,
                                  bool latency);

// --- Figs. 9-12 on EndToEndTestbed (RFTP unidirectional: run_transfer) ---

/// GridFTP (four processes, buffered I/O) over the tuned e2e rig.
TransferRun run_e2e_gridftp(std::uint64_t bytes);

enum class App { kRftp, kGridFtp };

struct BidirRun {
  double aggregate_gbps = 0.0;  // both directions' bytes over `window`
  metrics::CpuUsage src_usage;  // the forward source host
  sim::SimDuration window = 0;  // until the later direction completes
};

/// `bytes` each way at once over one tuned e2e rig with reverse files.
BidirRun run_e2e_bidir(App app, std::uint64_t bytes);

// --- Ablations ---

enum class SinkFs { kRaw, kExt4, kXfs, kXfsBuffered };

/// §4.3: Gbps of a 16 GiB RFTP e2e transfer (the tuned rig, no source
/// locality) into a fresh destination filesystem of kind `fs`.
double run_sink_fs(SinkFs fs);

/// iSER vs iSCSI/TCP: one LUN over one 56G IB link.
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

}  // namespace e2e::exp
