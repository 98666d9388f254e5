// Traditional iSCSI-over-TCP datamover (RFC 7143 data path).
//
// The transport the paper's iSER choice replaces. Task data travels as
// Data-In / Data-Out PDU sequences on the session's TCP connection:
//
//  * Data-In (serving SCSI READ): the target send()s the payload; every
//    byte pays the TCP tax on both hosts — user->kernel copy + per-packet
//    kernel work at the target, softirq + kernel->user copy at the
//    initiator.
//  * Data-Out (serving SCSI WRITE): the target issues an R2T
//    (ready-to-transfer); the initiator answers with Data-Out PDUs pulled
//    from the I/O buffer, again paying copies at both ends.
//
// Contrast with iser::IserEndpoint, where both directions are zero-copy
// RDMA. `bench_figures iser_vs_tcp` quantifies the difference.
#pragma once

#include <cstdint>

#include "iscsi/datamover.hpp"
#include "iscsi/pdu.hpp"
#include "mem/flat_table.hpp"
#include "mem/msg_pool.hpp"
#include "numa/process.hpp"
#include "sim/channel.hpp"
#include "sim/sync.hpp"
#include "tcp/connection.hpp"

namespace e2e::iscsi {

class TcpDatamover final : public Datamover {
 public:
  /// iSCSI MaxRecvDataSegmentLength: data PDUs are chunked to this size.
  static constexpr std::uint64_t kDataSegmentBytes = 256 * 1024;

  TcpDatamover(tcp::Connection& conn, numa::Process& proc, bool is_target);

  /// Spawns the receive demultiplexer on `rx` and keeps `tx` for answering
  /// R2Ts (initiator side). Call once per endpoint before traffic flows.
  void start(numa::Thread& rx, numa::Thread& tx);

  // --- Datamover interface ---
  sim::Task<> send_pdu(numa::Thread& th, const Pdu& pdu) override;
  sim::Task<std::optional<Pdu>> recv_pdu(numa::Thread& th) override;
  sim::Task<> put_data_nowait(numa::Thread& th, mem::Buffer& staging,
                              std::uint64_t bytes, rdma::RemoteKey rkey,
                              std::uint64_t offset,
                              std::function<void()> on_complete) override;
  sim::Task<> get_data(numa::Thread& th, mem::Buffer& staging,
                       std::uint64_t bytes, rdma::RemoteKey rkey,
                       std::uint64_t offset) override;

  [[nodiscard]] std::uint64_t data_pdus() const noexcept {
    return data_pdus_;
  }

 private:
  /// Data-In that completes once the payload sits in socket buffers;
  /// put_data_nowait wraps it.
  sim::Task<> put_data(numa::Thread& th, mem::Buffer& staging,
                       std::uint64_t bytes, rdma::RemoteKey rkey,
                       std::uint64_t offset);

  struct Wire {
    enum class Kind { kControl, kDataIn, kDataOut, kR2T } kind = Kind::kControl;
    Pdu pdu;                       // kControl
    std::uint64_t itt = 0;         // data/R2T sequences
    std::uint64_t bytes = 0;
    mem::Buffer* dest = nullptr;   // where the payload lands
    // Integrity tag XORed into `dest` at the demux (first segment of a
    // chunk carries the whole chunk's tag; TCP delivers reliably).
    std::uint64_t tag = 0;
  };
  struct PendingDataOut {
    std::uint64_t remaining = 0;
    sim::ManualEvent done;
    explicit PendingDataOut(sim::Engine& eng) : done(eng) {}
  };

  sim::Task<> demux_loop(numa::Thread& th);
  sim::Task<> answer_r2t(std::uint64_t itt, std::uint64_t bytes,
                         mem::Buffer* staging, mem::Buffer* io);

  /// A zeroed wire message ready to fill: reuses the datamover's cached
  /// block when its previous send has drained (steady-state fast path),
  /// else pulls a pooled one. The cache keeps one reference; mutating the
  /// returned message is safe because no consumer holds it yet.
  mem::MsgPtr fresh_wire();

  tcp::Connection& conn_;
  numa::Process& proc_;
  bool is_target_;
  numa::Placement ctrl_;  // tiny header staging for control sends
  numa::Thread* tx_ = nullptr;
  sim::Channel<Pdu> rx_pdus_;
  mem::MsgPtr wire_cache_;  // one reusable wire per datamover
  mem::FlatMap<mem::Buffer*> io_buffers_;           // initiator
  mem::FlatMap<PendingDataOut*> pending_out_;       // target
  std::uint64_t data_pdus_ = 0;
  bool started_ = false;
};

/// One iSCSI/TCP session: the connection plus both datamover endpoints.
class TcpSession {
 public:
  TcpSession(numa::Host& init_host, numa::NodeId init_node,
             numa::Host& tgt_host, numa::NodeId tgt_node, net::Link& link,
             numa::Process& init_proc, numa::Process& tgt_proc)
      : conn_(init_host, init_node, tgt_host, tgt_node, link),
        initiator_ep_(conn_, init_proc, /*is_target=*/false),
        target_ep_(conn_, tgt_proc, /*is_target=*/true) {}

  sim::Task<> start(numa::Thread& init_rx, numa::Thread& init_tx,
                    numa::Thread& tgt_rx, numa::Thread& tgt_tx) {
    co_await conn_.connect(init_rx);
    initiator_ep_.start(init_rx, init_tx);
    target_ep_.start(tgt_rx, tgt_tx);
  }

  [[nodiscard]] TcpDatamover& initiator_ep() noexcept {
    return initiator_ep_;
  }
  [[nodiscard]] TcpDatamover& target_ep() noexcept { return target_ep_; }

 private:
  tcp::Connection conn_;
  TcpDatamover initiator_ep_;
  TcpDatamover target_ep_;
};

}  // namespace e2e::iscsi
