// RFTP: RDMA-based file transfer protocol — the paper's core contribution.
//
// One RftpSession owns a transfer between a sender and a receiver host
// over one or more RDMA links. Per stream (paper §3.2: "pipelining and
// parallel operations"):
//
//   sender                                       receiver
//   ------                                       --------
//   filler tasks: claim next block, read         drainer tasks: write landed
//     from the DataSource into a local             blocks to the DataSink,
//     staging buffer (direct I/O)                  then return the buffer as
//   wire task: match a filled block with           a credit GRANT message
//     a credit token (a registered receiver     arrival task: parse the
//     buffer), RDMA Write w/ immediate,           block header, queue for
//     proactive completion handling               draining, repost receives
//
// Credits bound the data in flight (streams * credits * block_bytes); the
// receiver re-grants a token as soon as a buffer drains ("proactive
// feedbacks and asynchronous control message exchanges" of the paper).
//
// NUMA awareness (the paper's tuning): each stream is pinned to the NUMA
// node of the NIC it uses and its buffer pools are allocated NIC-locally.
// With numa_aware=false, threads take the stock scheduler's placement and
// pools are first-touch — the untuned baseline.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "fault/watchdog.hpp"
#include "mem/buffer_pool.hpp"
#include "mem/flat_table.hpp"
#include "metrics/throughput.hpp"
#include "net/link.hpp"
#include "numa/process.hpp"
#include "obs/probe.hpp"
#include "rdma/cm.hpp"
#include "rftp/claim_policy.hpp"
#include "rftp/config.hpp"
#include "rftp/source_sink.hpp"
#include "sim/channel.hpp"
#include "sim/run_queue.hpp"
#include "sim/run_set.hpp"
#include "sim/sync.hpp"

namespace e2e::fault {
class FaultInjector;
}

namespace e2e::rftp {

class FastForward;

/// One side's attachment: host, process context, and the NICs to use.
struct EndpointConfig {
  numa::Process* proc = nullptr;
  std::vector<rdma::Device*> nics;
};

class RftpSession {
 public:
  /// `links[i]` connects sender NIC (i % nics) to receiver NIC (i % nics);
  /// stream i uses links[i % links.size()].
  RftpSession(EndpointConfig sender, EndpointConfig receiver,
              std::vector<net::Link*> links, RftpConfig cfg);
  RftpSession(const RftpSession&) = delete;
  RftpSession& operator=(const RftpSession&) = delete;
  ~RftpSession();

  /// Transfers `total_bytes` from `src` to `dst`. Completes when the last
  /// block has drained at the receiver. `meter` (optional) records bytes
  /// at drain time.
  sim::Task<TransferResult> run(DataSource& src, DataSink& dst,
                                std::uint64_t total_bytes,
                                metrics::ThroughputMeter* meter = nullptr);

  [[nodiscard]] const RftpConfig& config() const noexcept { return cfg_; }
  [[nodiscard]] std::uint64_t blocks_delivered() const noexcept {
    return blocks_done_;
  }
  /// Control messages exchanged (credit grants).
  [[nodiscard]] std::uint64_t control_messages() const noexcept {
    return control_msgs_;
  }
  /// XOR of every drained block's integrity checksum — the order-
  /// independent content digest the fast-forward golden tests compare
  /// against event-exact runs.
  [[nodiscard]] std::uint64_t sink_digest() const noexcept {
    return sink_digest_;
  }

  /// Kills stream `idx`'s QP pair and fails its blocks over to surviving
  /// streams: in-flight and sent-but-undrained blocks are requeued, its
  /// buffers reclaimed, and fillers respawned on survivors so the requeued
  /// work is picked up even if the original fillers already drained the
  /// plan. With no survivors the transfer fails (run() returns
  /// complete=false) instead of hanging.
  void kill_stream(int idx);

  /// Crash-stop fault domain: host 0 (sender) or 1 (receiver) dies at
  /// once — every QP it owns errors with its posted receives discarded,
  /// every stream's channels close, in-flight and unconfirmed blocks fail
  /// back to the shared queue, and (for a receiver crash) drained blocks
  /// not yet covered by a ledger checkpoint roll back as lost volatile
  /// state. A scripted restart follows after `down` (reestablish + MR
  /// re-pin + resume-offset negotiation + full re-grant); down = 0 means
  /// the host never returns and the watchdog escalates to a failed
  /// transfer with partial progress.
  void crash_host(int host, sim::SimDuration down);

  /// Routes `inj`'s plan to this session: plan qp `i` kills stream
  /// `i % streams`, a crash calls crash_host(), and config().ff_quiet_after
  /// is raised to the plan's quiet_after(20 * max link RTT + 100 ms), so
  /// fast-forward engages only after every scripted fault has fired and
  /// settled. Call before run(); the injector's links are attached by the
  /// caller.
  void attach(fault::FaultInjector& inj);

  [[nodiscard]] const fault::Watchdog& watchdog() const noexcept {
    return watchdog_;
  }

 private:
  // The steady-state detector/collapser reads and advances the session's
  // private transfer state (queues, ledgers, digest, scalar counters) when
  // it replaces a bulk span with its closed form.
  friend class FastForward;

  struct Credit {
    std::uint32_t token = 0;
    mem::Buffer* remote = nullptr;
  };
  struct FilledBlock {
    mem::Buffer* buf = nullptr;
    std::uint64_t block_idx = 0;
    std::uint64_t bytes = 0;
  };
  struct DataHeader {
    std::uint32_t token = 0;
    std::uint64_t block_idx = 0;
    std::uint64_t bytes = 0;
    std::uint64_t checksum = 0;  // sender-computed per-block integrity tag
  };
  struct GrantMsg {
    std::uint32_t token = 0;
    /// Stream login generation at grant time. A grant delivered before a
    /// crash can sit unreaped in the surviving sender's recv CQ across
    /// the outage; re-login bumps the generation, so the replayed credit
    /// identifies itself as stale and is discarded (the dedup step of an
    /// iSER-style re-login).
    std::uint32_t generation = 0;
  };
  struct Arrival {
    std::uint32_t token = 0;
    std::uint64_t block_idx = 0;
    std::uint64_t bytes = 0;
    std::uint64_t checksum = 0;
  };

  struct Stream {
    int id = 0;
    std::unique_ptr<rdma::ConnectedPair> pair;  // a = sender, b = receiver
    std::unique_ptr<mem::BufferPool> send_pool;
    std::unique_ptr<mem::BufferPool> recv_pool;
    std::unique_ptr<sim::Channel<Credit>> credits;      // sender side
    std::unique_ptr<sim::Channel<FilledBlock>> sendq;   // filler -> wire
    std::unique_ptr<sim::Channel<Arrival>> drainq;      // arrival -> drainer
    struct InflightBlock {
      mem::Buffer* buf = nullptr;
      std::uint64_t block_idx = 0;
      std::uint64_t bytes = 0;
      Credit credit;
    };
    mem::FlatMap<InflightBlock> inflight;  // wr_id -> block
    std::vector<mem::Buffer*> token_buffers;            // receiver side
    /// wr_id of the newest grant posted per token (receiver side); the
    /// grant reaper ignores failed completions of superseded attempts.
    std::vector<std::uint64_t> latest_grant;
    /// Bumped on every revival (re-login). Grants are stamped with it and
    /// the sender discards credits from an older generation — see
    /// GrantMsg::generation.
    std::uint32_t login_gen = 0;
    mem::Buffer tiny_tx;   // sender's posted-receive target for grants
    mem::Buffer tiny_rx;   // receiver's posted-receive target for data imm
    int active_fillers = 0;
    std::uint64_t next_wr = 1;
    /// The stream's QPs died; its work is failed over to survivors.
    bool dead = false;
    /// The CQ-driven loops (send reaper, grant receiver, arrival handler,
    /// grant reaper) are running. Normally set by run()'s spawn loop; a
    /// crash landing before that point leaves it false and restart_host
    /// arms the full pipeline instead.
    bool cq_spawned = false;
    /// Blocks acked by a send CQE but not yet seen draining at the sink —
    /// the receiver may still have dropped them (QP error), so a dying
    /// stream requeues these alongside its in-flight blocks. Flat set
    /// (values unused); the death path drains it in key order.
    mem::FlatMap<char> sent_unconfirmed;
    // Observability: block lifetimes trace as async spans on the stream's
    // track from fill-claim (sender) to drain (receiver), keyed by block
    // index; the stream's stats entity carries the fill/drain latency and
    // credit-wait histograms, the failover counters, and a flight record
    // for every block milestone (the postmortem window).
    obs::Actor obs;
    obs::Site filled, credit_wait, posted, retx, grant, grant_retx, dup,
        cksum, drained, block_end, delivered, died;
  };

  // Pipeline tasks (one coroutine per thread).
  sim::Task<> filler(Stream& s, numa::Thread& th, DataSource& src);
  sim::Task<> wire_sender(Stream& s, numa::Thread& th);
  sim::Task<> send_reaper(Stream& s, numa::Thread& th);
  sim::Task<> grant_receiver(Stream& s, numa::Thread& th);
  sim::Task<> grant_reaper(Stream& s, numa::Thread& th);
  sim::Task<> arrival_handler(Stream& s, numa::Thread& th);
  sim::Task<> drainer(Stream& s, numa::Thread& th, DataSink& dst,
                      metrics::ThroughputMeter* meter);
  sim::Task<> setup_stream(Stream& s);

  // Failover machinery.
  void handle_stream_death(Stream& s);
  void fail_transfer();
  void requeue_block(std::uint64_t idx);

  // Crash/restart machinery.
  sim::Task<> restart_host(int host);
  void on_watchdog_dead();

  numa::Thread& spawn(numa::Process& proc, const rdma::Device& nic);

  EndpointConfig sender_;
  EndpointConfig receiver_;
  std::vector<net::Link*> links_;
  RftpConfig cfg_;
  std::vector<std::unique_ptr<Stream>> streams_;
  sim::Engine& eng_;

  /// Claims the next block for a filler on `node` by the claim policy
  /// (rftp::decide_claim over the live queue sizes): pops it and bumps
  /// the claim counters.
  std::optional<std::uint64_t> claim_block(numa::NodeId node);
  void build_block_plan(DataSource& src);

  // Transfer state.
  std::uint64_t total_bytes_ = 0;
  std::uint64_t total_blocks_ = 0;
  // block_queues_[node] holds blocks homed on that node; the last entry
  // holds blocks with no known home. Run-length: build_block_plan pushes
  // one run per extent of constant home, so a TB-scale transfer without
  // source locality plans in O(nodes) memory and one source query.
  std::vector<sim::RunQueue> block_queues_;
  std::vector<int> streams_on_node_;

 public:
  std::uint64_t stolen_claims = 0;
  std::uint64_t local_claims = 0;
  /// Blocks retransmitted after failed wire completions.
  std::uint64_t retransmissions = 0;
  /// Credit grants re-sent after failed wire completions. A lost grant is
  /// a leaked credit — the sender would starve without the re-send.
  std::uint64_t grant_retransmissions = 0;
  /// Streams killed with their work reassigned to survivors.
  std::uint64_t failovers = 0;
  /// Blocks whose sink-side checksum disagreed with the header (requeued).
  std::uint64_t checksum_failures = 0;
  /// Blocks that arrived more than once (failover re-sends); dropped.
  std::uint64_t duplicate_blocks = 0;
  /// Crash-stop events absorbed (host down, all streams dead at once).
  std::uint64_t host_crashes = 0;
  /// Restarts that reestablished the session and negotiated a resume.
  std::uint64_t resumes = 0;
  /// Ledger checkpoints taken (every checkpoint_blocks fresh drains).
  std::uint64_t checkpoints = 0;
  /// Drained-but-unledgered blocks lost to a receiver crash (re-sent).
  std::uint64_t rolled_back_blocks = 0;

 private:
  std::uint64_t blocks_done_ = 0;
  std::uint64_t control_msgs_ = 0;
  std::unique_ptr<sim::WaitGroup> done_;
  bool running_ = false;
  // Failover / integrity state for the current run().
  DataSource* src_ = nullptr;
  DataSink* dst_ = nullptr;
  metrics::ThroughputMeter* meter_ = nullptr;
  // Blocks already at the sink. Run-length: blocks drain roughly in
  // claim order, so the set is a few runs whose gaps are the blocks in
  // flight, not a per-block array over the whole transfer.
  sim::RunSet drained_;
  // Crash/resume state: the durable acked-block ledger (drained_ as of the
  // last checkpoint — what survives a receiver reboot, and always a
  // subset of it), plus the epoch bookkeeping for the one outstanding
  // crash. Checkpoints publish incrementally: unledgered_ lists the blocks
  // drained since the last publication (at most checkpoint_blocks of them;
  // always empty with checkpointing off), so a checkpoint inserts
  // O(checkpoint_blocks) indices. drained_ minus ledger_ is exactly
  // unledgered_ when checkpointing is on; a receiver crash rolls back by
  // walking that difference.
  sim::RunSet ledger_;
  std::vector<std::uint64_t> unledgered_;
  int drains_since_ckpt_ = 0;
  bool crashed_ = false;            // a crash-stop is in progress
  bool resume_pending_ = false;     // first post-resume drain not yet seen
  sim::SimTime crash_t0_ = 0;
  // Monotone grant-attempt counter feeding grant wr_ids: attempt sequence
  // in the high bits, token in the low 16. Grant failures can surface
  // arbitrarily late — a blackholed grant's transport retries exhaust
  // 4 RTTs after the send, and a crash + restart can re-grant every token
  // inside that window — so the grant reaper re-sends only when a failed
  // completion matches the LATEST attempt for its token
  // (Stream::latest_grant). A stale attempt's failure is just news about
  // a grant some newer attempt already superseded; re-sending for it
  // would double-issue the credit.
  std::uint64_t grant_seq_ = 0;
  [[nodiscard]] std::uint64_t grant_wr_id(std::uint32_t token) {
    return (++grant_seq_ << 16) | token;
  }
  std::vector<int> crashed_streams_;
  std::uint64_t sink_digest_ = 0;   // XOR of drained blocks' checksums
  std::uint64_t delivered_bytes_ = 0;
  int alive_streams_ = 0;
  bool transfer_failed_ = false;
  std::size_t next_failover_stream_ = 0;  // round-robin requeue target
  // Session-wide (non-stream) events: the "rftp/session" track and the
  // "session" stats entity.
  obs::Actor obs_{obs::Layer::kRftp, {"rftp/session"}, obs::named("session")};
  obs::Site false_suspect_, first_byte_, checkpoint_, crash_, rolled_back_,
      restart_, resume_, mttr_, watchdog_dead_, failed_,
      stolen_claim_, local_claim_;
  static constexpr obs::Incident kStolenClaim{
      .trace_counter = "rftp/stolen_claims"};
  static constexpr obs::Incident kLocalClaim{
      .trace_counter = "rftp/local_claims"};
  // Steady-state fast-forward (cfg_.fast_forward): detector + collapser,
  // constructed per run() on standalone engines only. Null = event-exact.
  std::unique_ptr<FastForward> ff_;
  // Grant re-sends whose 2-RTT pacing delay is still in flight. A retry
  // scheduled before a collapse would fire against a shifted work-point
  // after it, so the fast-forward detector refuses to engage until this
  // drains back to zero.
  std::uint64_t ff_grant_retries_pending_ = 0;
  fault::Watchdog watchdog_;
  // Liveness token for the deferred restart event: the engine may hold a
  // scheduled restart past the session's lifetime (transfer finished or
  // failed while the host was down); expiry turns it into a no-op.
  std::shared_ptr<char> alive_token_;
};

}  // namespace e2e::rftp
