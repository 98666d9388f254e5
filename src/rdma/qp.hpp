// Queue pair: the RDMA connection endpoint.
//
// A connected QueuePair owns a send queue serviced by a NIC engine task.
// SEND/WRITE work requests are processed in order: tx DMA from the local
// registered buffer, wire serialization on the shared link direction, local
// CQE, then delivery to the peer after the propagation delay. RDMA READ is
// serviced out-of-band (multiple reads proceed concurrently), matching how
// the responder's read engine streams data without involving the remote
// CPU. Inbound traffic is handled by a receiver task: SENDs consume posted
// receives in FIFO order (waiting — i.e. RNR — when none are posted),
// WRITEs deposit silently, WRITE_IMM consumes a receive and signals a CQE.
//
// Lifetime: queue pairs must outlive the simulation run that uses them
// (engine tasks reference the QP; destroy scenario objects after the engine
// has drained or simply let them live for the process, as the apps and
// benches here do).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "net/link.hpp"
#include "obs/probe.hpp"
#include "rdma/device.hpp"
#include "rdma/verbs.hpp"
#include "sim/channel.hpp"
#include "sim/sync.hpp"

namespace e2e::rdma {

/// QP lifecycle, collapsed to the two states the simulation distinguishes.
/// kRts (ready-to-send) is the operational state; kError models the verbs
/// error state a QP enters after a fatal fault (NIC failure, retry
/// exhaustion): posted sends flush with failed completions and inbound
/// traffic is dropped until recover() walks the QP back through
/// reset->init->RTR->RTS.
enum class QpState : std::uint8_t { kRts, kError };

class QueuePair {
 public:
  QueuePair(Device& dev, CompletionQueue& send_cq, CompletionQueue& recv_cq);
  QueuePair(const QueuePair&) = delete;
  QueuePair& operator=(const QueuePair&) = delete;

  /// Connects `a` and `b` over `link` (a transmits on direction 0) and
  /// starts both NIC engine tasks.
  static void connect(QueuePair& a, QueuePair& b, net::Link& link);

  /// Posts a work request from `th` (charges posting CPU, then returns;
  /// the NIC processes asynchronously). `wr` is taken by reference and
  /// copied into the queue — GCC 12's coroutine lowering double-destroys
  /// prvalue by-value arguments; await the post before releasing the WR.
  sim::Task<> post_send(numa::Thread& th, const SendWr& wr);
  sim::Task<> post_recv(numa::Thread& th, RecvWr wr);  // RecvWr is trivial

  /// Posts a chain of WRs behind one doorbell (ibv_post_send with a linked
  /// wr list): full posting CPU for the first WR plus the per-extra
  /// descriptor cost (rdma_doorbell_wr_cycles) for each one after it.
  /// Semantically identical to posting each WR individually — same
  /// validation, same in-order NIC processing, same flush behaviour on an
  /// error-state QP. The vectors are borrowed for the duration of the call
  /// (awaiting callers may reuse them after co_await returns).
  sim::Task<> post_send_batch(numa::Thread& th,
                              const std::vector<SendWr>& wrs);
  sim::Task<> post_recv_batch(numa::Thread& th,
                              const std::vector<RecvWr>& wrs);

  [[nodiscard]] Device& device() noexcept { return dev_; }
  [[nodiscard]] CompletionQueue& send_cq() noexcept { return scq_; }
  [[nodiscard]] CompletionQueue& recv_cq() noexcept { return rcq_; }
  [[nodiscard]] bool connected() const noexcept { return peer_ != nullptr; }

  /// Transitions the QP to the error state (NIC/QP fault): queued and
  /// future sends flush with failed completions, inbound messages are
  /// dropped. Signals error_event() so supervisors can react. Idempotent.
  void kill();

  /// Walks an errored QP back to RTS: reset->init->RTR->RTS bring-up CPU
  /// plus MR revalidation for `revalidate_bytes` of registered memory
  /// (re-pinning after a NIC reset). Signals ready_event(). No-op in kRts.
  sim::Task<> recover(numa::Thread& th, std::uint64_t revalidate_bytes = 0);

  /// Crash-stop semantics: kill() plus loss of all volatile QP state —
  /// every posted-but-unconsumed receive is discarded (a rebooted host
  /// has no receive ring). The owner must re-post receives after
  /// recover(). Idempotent like kill().
  void crash();

  [[nodiscard]] bool alive() const noexcept {
    return state_ == QpState::kRts;
  }
  /// Set while the QP sits in kError; reset by recover().
  [[nodiscard]] sim::ManualEvent& error_event() noexcept {
    return error_event_;
  }
  /// Set while the QP is in kRts; reset by kill(). Retry loops wait on
  /// this before reposting after a QP death.
  [[nodiscard]] sim::ManualEvent& ready_event() noexcept {
    return ready_event_;
  }

  // Payload counter (tests).
  [[nodiscard]] std::uint64_t bytes_delivered() const noexcept {
    return bytes_delivered_;
  }

  // Fault/recovery observability counters (tests/metrics).
  [[nodiscard]] std::uint64_t sends_flushed() const noexcept {
    return sends_flushed_;
  }

 private:
  void validate_send(const SendWr& wr) const;
  /// Post-charge half of post_send: books the WR with the NIC engine (or
  /// flushes it when the QP sits in the error state).
  void enqueue_send(const SendWr& wr);

  struct Delivery {
    Opcode op;
    std::uint64_t bytes;
    mem::Buffer* target;  // for kWrite/kWriteImm
    std::uint32_t imm;
    mem::MsgPtr payload;
    std::uint64_t content_tag;  // integrity tag XORed into `target`
    // Receiver epoch at send time (stamped as the message leaves the
    // peer). Wire flight and processing both take time — latency, RNR
    // waits, DMA — and the QP can die and recover underneath; a delivery
    // whose epoch is stale by the time it would land belongs to a dead
    // connection incarnation and is dropped (verbs PSN/QPN mismatch).
    std::uint64_t epoch = 0;
  };

  sim::Task<> sender_loop();
  sim::Task<> receiver_loop();
  sim::Task<> serve_read(SendWr wr);
  void deliver_after_latency(Delivery d, sim::SimDuration extra_latency);
  void fail_send(const SendWr& wr, sim::SimDuration delay,
                 const obs::Incident& what, obs::Site& site);
  void note_inbound_drop(const Delivery& d);

  [[nodiscard]] double header_per_mtu() const {
    return dev_.host().costs().rdma_header_bytes_per_mtu;
  }

  [[nodiscard]] net::Direction dir() const noexcept {
    return static_cast<net::Direction>(dir_);
  }

  Device& dev_;
  CompletionQueue& scq_;
  CompletionQueue& rcq_;
  QueuePair* peer_ = nullptr;
  net::Link* link_ = nullptr;
  int dir_ = 0;
  QpState state_ = QpState::kRts;
  // Bumped on every kill() and recover(): one count per state transition,
  // so a kill/recover cycle advances it twice and no delivery stamped
  // before or during the outage can match the recovered epoch.
  std::uint64_t epoch_ = 0;
  sim::Channel<SendWr> send_q_;
  sim::Channel<Delivery> inbound_;
  sim::Channel<RecvWr> recv_q_;
  sim::ManualEvent error_event_;
  sim::ManualEvent ready_event_;
  std::uint64_t bytes_delivered_ = 0;
  std::uint64_t sends_flushed_ = 0;
  std::uint64_t recoveries_ = 0;
  // Observability: the actor reports on the tx track and the QP's stats
  // entity; inbound drops and RNR waits go on the rx track. One Site per
  // incident kind (qp.cpp holds the descriptors).
  obs::Actor obs_;
  obs::Track rx_track_;
  obs::Site kill_, recover_, posted_, flush_, flush_inflight_, wire_fail_,
      drop_, rnr_, cq_completion_, wr_done_[4], wr_failed_[4], read_done_,
      delivered_[4];
  obs::Gauge sq_depth_{"sq_depth"};
};

}  // namespace e2e::rdma
