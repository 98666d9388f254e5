// Single-engine paper scenarios, one runner each, shared by the CLI
// (tools/e2e_transfer_sim), the bench_figures rows and the examples:
// run_transfer (an RFTP transfer on the quick, e2e or wan rig), run_san
// (the Figs. 7/8 fio run) and run_motivating (the §2.3 iperf study).
//
// Like run_fleet/run_kv, a runner takes params and returns the modeled
// numbers with the observer outputs (a trace streams into the caller's
// ostream). It builds its rig, then installs the observers (registry,
// auditor, tracer: after any setup-phase run, so the trace sampler arms
// for the measured run only), then arms the fault plan, in that order:
// entity ids and event sequence numbers follow construction order.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

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
  metrics::CpuUsage src_usage;      // sending host, since engine start
  metrics::CpuUsage dst_usage;      // receiving host, likewise
  sim::SimDuration window = 0;      // the transfer run alone
  sim::SimTime end = 0;             // engine clock after it
  stats::Histogram drain_hist;      // Observers::stats: block drain latency
  // The fault plan as armed (empty without one) and what it did.
  std::string fault_plan;
  std::uint64_t faults_injected = 0;
  std::uint64_t messages_failed = 0;
  std::uint64_t retransmissions = 0;
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

}  // namespace e2e::exp
