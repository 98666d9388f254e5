// RFTP configuration knobs.
#pragma once

#include <cstdint>

#include "fault/watchdog.hpp"
#include "sim/time.hpp"

namespace e2e::rftp {

struct RftpConfig {
  /// Data block size: unit of pipelining, credits and RDMA Writes.
  std::uint64_t block_bytes = 4ull << 20;
  /// Parallel data streams (QPs), assigned round-robin over the NIC pairs.
  int streams = 3;
  /// Receiver-side registered buffers (= credit tokens) per stream. The
  /// product streams * credits * block_bytes bounds the data in flight and
  /// must exceed the bandwidth-delay product to fill a long fat pipe.
  int credits_per_stream = 16;
  /// NUMA awareness: pin each stream's threads to its NIC's node and
  /// allocate its buffer pools NIC-locally. Off = stock scheduler +
  /// first-touch, the paper's untuned baseline.
  bool numa_aware = true;
  /// Durable-ledger checkpoint interval, in fresh block drains: the
  /// receiver persists its acked-block ledger every N drains. Blocks
  /// drained since the last checkpoint are volatile — a receiver crash
  /// rolls them back and they are re-sent. 1 = every ack is durable
  /// (slowest, loses nothing); 0 disables checkpointing entirely (a
  /// receiver crash restarts from byte zero).
  int checkpoint_blocks = 1;
  /// Unified liveness policy (fault::Watchdog over fresh block drains):
  /// quiet periods raise suspicions, `max_quiet` of them in a row declare
  /// the transfer dead — it then fails with partial progress instead of
  /// hanging on a peer that never came back. quiet = 0 disables.
  fault::Deadline watchdog{};
  /// Hybrid fluid/event fast-forward (--fast-forward): when the pipeline
  /// reaches a verified steady state, collapse the remaining bulk phase
  /// into one closed-form span instead of simulating every block. Final
  /// metrics are bit-identical to the event-exact run (golden-tested);
  /// default off. Ignored on sharded (Cluster) engines.
  bool fast_forward = false;
  /// Earliest modeled time at which the fast-forward detector may engage.
  /// RftpSession::attach(fault::FaultInjector&) raises it to the plan's
  /// quiet horizon so every scripted fault fires on an event-exact
  /// timeline; kTimeInfinity (a terminal crash in the plan) disables
  /// fast-forward entirely. Set it directly only to hold fast-forward back
  /// without a plan.
  sim::SimTime ff_quiet_after = 0;
};

struct TransferResult {
  std::uint64_t bytes = 0;
  std::uint64_t blocks = 0;
  double elapsed_s = 0.0;
  double goodput_gbps = 0.0;
  /// False when every stream died before the transfer drained: `bytes` and
  /// `blocks` then report what actually landed, not what was asked for.
  bool complete = true;
  /// All drained blocks' checksums matched what the sender computed.
  bool integrity_ok = true;
  /// Crash-stop events absorbed during the transfer and the restarts
  /// that successfully negotiated a resume.
  std::uint64_t crashes = 0;
  std::uint64_t resumes = 0;
  /// Fast-forward engagement: spans collapsed and blocks advanced in
  /// closed form (both 0 on event-exact runs and when the detector never
  /// found a steady state).
  std::uint64_t ff_spans = 0;
  std::uint64_t ff_blocks = 0;
  /// Modeled time absorbed by those spans, in ns.
  sim::SimDuration ff_skipped_ns = 0;
};

}  // namespace e2e::rftp
