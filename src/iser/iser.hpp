// iSER: iSCSI Extensions for RDMA (RFC 7145) datamover.
//
// Binds the iSCSI session layer to the verbs layer:
//  * control PDUs travel as small RDMA SENDs over the session QP, received
//    into a ring of pre-posted control buffers;
//  * Data-In (serving SCSI READ) becomes an RDMA Write from the target
//    staging buffer into the initiator buffer advertised with the command;
//  * Data-Out (serving SCSI WRITE) becomes an RDMA Read pulling from the
//    initiator buffer — which is why the paper measures read-serving
//    (RDMA Write) ~7.5% faster than write-serving (RDMA Read).
//
// One IserEndpoint exists per session per side; a completion-dispatch task
// routes send-CQ completions back to the data operations awaiting them and
// feeds inbound PDUs to recv_pdu() callers.
#pragma once

#include <cstdint>
#include <functional>

#include "iscsi/datamover.hpp"
#include "iscsi/pdu.hpp"
#include "mem/flat_table.hpp"
#include "numa/process.hpp"
#include "obs/probe.hpp"
#include "rdma/qp.hpp"
#include "sim/channel.hpp"
#include "sim/sync.hpp"

namespace e2e::iser {

class IserEndpoint final : public iscsi::Datamover {
 public:
  /// `proc` supplies the allocation context for control buffers (placed by
  /// the process memory policy, i.e. NIC-local when numactl-bound).
  IserEndpoint(rdma::QueuePair& qp, numa::Process& proc);

  /// Registers control buffers, posts the receive ring and spawns the
  /// completion dispatchers on `cq_thread`. Call once per endpoint before
  /// any traffic flows.
  sim::Task<> start(numa::Thread& cq_thread);

  /// Re-posts the full receive ring after a host crash emptied it
  /// (QueuePair::crash() discards every posted WR). Without this the
  /// first post-restart PDU would wait forever for a matching receive.
  sim::Task<> repost_ring(numa::Thread& th);

  // --- Datamover interface ---
  sim::Task<> send_pdu(numa::Thread& th, const iscsi::Pdu& pdu) override;
  sim::Task<std::optional<iscsi::Pdu>> recv_pdu(numa::Thread& th) override;
  sim::Task<> put_data_nowait(numa::Thread& th, mem::Buffer& staging,
                              std::uint64_t bytes, rdma::RemoteKey rkey,
                              std::uint64_t offset,
                              std::function<void()> on_complete) override;
  sim::Task<> get_data(numa::Thread& th, mem::Buffer& staging,
                       std::uint64_t bytes, rdma::RemoteKey rkey,
                       std::uint64_t offset) override;

  [[nodiscard]] std::uint64_t pdus_sent() const noexcept { return pdus_sent_; }

 private:
  sim::Task<> send_cq_loop(numa::Thread& th);
  sim::Task<> recv_cq_loop(numa::Thread& th);
  sim::Task<> await_data_op(numa::Thread& th, rdma::SendWr wr,
                            const char* span_name);

  /// Opens a data op's async span and counts it.
  void begin_data_op(sim::Engine& eng, const char* span_name,
                     std::uint64_t wr_id, std::uint64_t bytes);

  /// What to do when a data op's send completion arrives. Awaited ops park
  /// on an event; fire-and-forget (nowait) ops carry their release callback
  /// (small captures only — it must fit std::function's inline storage to
  /// keep the hot path allocation-free) and the async span to close.
  struct SendCompletion {
    sim::ManualEvent* done = nullptr;  // awaited: event to set
    bool* ok = nullptr;                // awaited: receives wc.success
    std::function<void()> on_complete;  // nowait: buffer release callback
    std::uint64_t span_id = 0;          // nowait: "rdma-write" span key
    bool nowait = false;
  };

  rdma::QueuePair& qp_;
  numa::Process& proc_;
  rdma::ProtectionDomain pd_;
  mem::Buffer ctrl_buf_;   // shared descriptor for control sends
  mem::Buffer recv_buf_;   // shared descriptor for the receive ring
  sim::Channel<iscsi::Pdu> rx_pdus_;
  // Completion records keyed by wr_id (flat table: steady-state churn
  // stops allocating once the probe array has grown).
  mem::FlatMap<SendCompletion> pending_;
  std::uint64_t next_wr_ = 1;
  std::uint64_t pdus_sent_ = 0;
  bool started_ = false;
  // Observability: the "<host>/iser#n" track and entity. Data ops trace
  // as async spans keyed by wr_id; the entity carries the data-op
  // round-trip histogram plus retry/abort/loss counters and matching
  // flight records.
  obs::Actor obs_;
  // One site per PduType, indexed by it.
  obs::Site pdu_sent_[static_cast<std::size_t>(iscsi::PduType::kNopIn) + 1];
  obs::Site pdu_received_, data_bytes_, data_ops_begun_,
      data_loss_, write_end_, data_abort_, data_retry_, data_op_end_,
      data_op_done_;
};

}  // namespace e2e::iser
