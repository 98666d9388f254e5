#include "iser/iser.hpp"

#include <iterator>
#include <stdexcept>

#include "check/audit.hpp"
#include "fault/watchdog.hpp"
#include "mem/msg_pool.hpp"

namespace e2e::iser {

namespace {

// A sent PDU is a trace-only "pdu:<type>" marker, indexed by PduType.
consteval obs::Incident pdu_sent(std::string_view event) {
  return {.event = event, .trace_counter = "iser/pdus_sent"};
}
constexpr obs::Incident kPduSent[] = {
    pdu_sent("pdu:login-req"),  pdu_sent("pdu:login-resp"),
    pdu_sent("pdu:scsi-cmd"),   pdu_sent("pdu:scsi-resp"),
    pdu_sent("pdu:r2t"),        pdu_sent("pdu:data-in"),
    pdu_sent("pdu:data-out"),   pdu_sent("pdu:nop-out"),
    pdu_sent("pdu:nop-in"),
};
static_assert(std::size(kPduSent) ==
              static_cast<std::size_t>(iscsi::PduType::kNopIn) + 1);
constexpr obs::Incident kPduReceived{.trace_counter = "iser/pdus_received"};
constexpr obs::Incident kDataBytes{.trace_counter = "iser/data_bytes"};
constexpr obs::Incident kDataOps{.trace_counter = "iser/data_ops"};
constexpr obs::Incident kDataLoss{.name = "data-loss",
                                  .counter = "data_losses"};
constexpr obs::Incident kWriteEnd{.name = "rdma-write", .code = obs::kSkip};
constexpr obs::Incident kDataAbort{.name = "data-abort",
                                   .counter = "data_aborts"};
constexpr obs::Incident kDataRetry{.name = "data-retry",
                                   .counter = "data_retries"};
// Awaited data ops close their async span, named at run time.
constexpr obs::Incident kDataOpEnd{};
constexpr obs::Incident kDataOpDone{.hist = "data_op_ns"};

}  // namespace

namespace {
constexpr std::uint64_t kCtrlBufBytes = 512;
// Control receives kept posted per endpoint.
constexpr int kCtrlDepth = 64;
// Failed awaited data ops are retried up to this many times, waiting for
// QP recovery when the QP died and backing off (capped exponential) on
// transient wire faults.
constexpr int kDataRetryLimit = 12;
}

IserEndpoint::IserEndpoint(rdma::QueuePair& qp, numa::Process& proc)
    : qp_(qp),
      proc_(proc),
      pd_(proc.host()),
      rx_pdus_(proc.host().engine()),
      obs_(obs::Layer::kIser, {proc.host().name() + "/iser"},
           {proc.host().name() + "/iser"}) {
  ctrl_buf_.bytes = kCtrlBufBytes;
  ctrl_buf_.placement = proc.alloc(kCtrlBufBytes, qp.device().node());
  recv_buf_.bytes = kCtrlBufBytes;
  recv_buf_.placement = proc.alloc(kCtrlBufBytes, qp.device().node());
}

sim::Task<> IserEndpoint::start(numa::Thread& cq_thread) {
  if (started_) throw std::logic_error("iSER endpoint already started");
  started_ = true;
  co_await pd_.register_buffer(cq_thread, ctrl_buf_);
  co_await pd_.register_buffer(cq_thread, recv_buf_);
  for (int i = 0; i < kCtrlDepth; ++i)
    co_await qp_.post_recv(cq_thread, rdma::RecvWr{0, &recv_buf_});
  sim::co_spawn(send_cq_loop(cq_thread));
  sim::co_spawn(recv_cq_loop(cq_thread));
}

sim::Task<> IserEndpoint::repost_ring(numa::Thread& th) {
  if (!started_) throw std::logic_error("repost_ring before start()");
  for (int i = 0; i < kCtrlDepth; ++i)
    co_await qp_.post_recv(th, rdma::RecvWr{0, &recv_buf_});
}

sim::Task<> IserEndpoint::send_cq_loop(numa::Thread& th) {
  for (;;) {
    auto wc = co_await qp_.send_cq().wait(th);
    if (SendCompletion* pc = pending_.find(wc.wr_id)) {
      SendCompletion sc = std::move(*pc);
      pending_.erase(wc.wr_id);
      if (sc.nowait) {
        // Fire-and-forget Data-In: a failed completion still recycles the
        // staging buffer, but the payload never landed — count the loss
        // and let the initiator's digest verification re-drive the I/O.
        // Retrying here would risk double-delivery when the initiator also
        // retries.
        if (wc.success) {
          if (auto* au = check::of(proc_.host().engine()))
            au->flow_out(this, "iser.data", wc.byte_len);
        }
        if (!wc.success) {
          obs_.report(proc_.host().engine(), kDataLoss, data_loss_,
                      {.arg = wc.wr_id});
        }
        obs_.span_end(proc_.host().engine(), kWriteEnd, write_end_, 0,
                      sc.span_id);
        sc.on_complete();
      } else {
        *sc.ok = wc.success;
        sc.done->set();
      }
    }
    // Control-send completions (wr_id 0) just recycle the shared buffer.
    // A lost control PDU is healed by the initiator's command retransmit.
  }
}

sim::Task<> IserEndpoint::recv_cq_loop(numa::Thread& th) {
  for (;;) {
    auto wc = co_await qp_.recv_cq().wait(th);
    if (const auto* pdu = wc.as<iscsi::Pdu>()) rx_pdus_.send(*pdu);
    // Replenish the receive ring.
    co_await qp_.post_recv(th, rdma::RecvWr{0, &recv_buf_});
  }
}

sim::Task<> IserEndpoint::send_pdu(numa::Thread& th, const iscsi::Pdu& pdu) {
  if (!started_) throw std::logic_error("send_pdu before start()");
  co_await th.compute(th.host().costs().iscsi_pdu_cycles,
                      metrics::CpuCategory::kUserProto);
  rdma::SendWr wr;
  wr.op = rdma::Opcode::kSend;
  wr.wr_id = 0;  // control send: fire-and-forget
  wr.local = &ctrl_buf_;
  wr.bytes = static_cast<std::uint64_t>(pdu.wire_bytes());
  wr.payload = mem::make_msg<iscsi::Pdu>(pdu);
  co_await qp_.post_send(th, wr);
  ++pdus_sent_;
  auto& eng = proc_.host().engine();
  const auto t = static_cast<std::size_t>(pdu.type);
  obs_.report(eng, kPduSent[t], pdu_sent_[t]);
}

sim::Task<std::optional<iscsi::Pdu>> IserEndpoint::recv_pdu(
    numa::Thread& th) {
  auto pdu = co_await rx_pdus_.recv();
  if (!pdu) co_return std::nullopt;
  co_await th.compute(th.host().costs().iscsi_pdu_cycles,
                      metrics::CpuCategory::kUserProto);
  obs_.report(proc_.host().engine(), kPduReceived, pdu_received_);
  co_return *pdu;
}

sim::Task<> IserEndpoint::await_data_op(numa::Thread& th, rdma::SendWr wr,
                                        const char* span_name) {
  auto& eng = th.host().engine();
  begin_data_op(eng, span_name, wr.wr_id, wr.bytes);
  if (auto* au = check::of(eng)) au->flow_in(this, "iser.data", wr.bytes);
  const std::uint64_t span_id = wr.wr_id;
  const sim::SimTime op_t0 = eng.now();
  sim::SimDuration backoff = 100 * sim::kMicrosecond;
  constexpr sim::SimDuration kBackoffCap = 10 * sim::kMillisecond;
  for (int attempt = 0;; ++attempt) {
    bool ok = false;
    sim::ManualEvent done(eng);
    SendCompletion sc;
    sc.done = &done;
    sc.ok = &ok;
    pending_.insert(wr.wr_id, std::move(sc));
    co_await qp_.post_send(th, wr);
    co_await done.wait();
    if (ok) {
      if (auto* au = check::of(eng)) au->flow_out(this, "iser.data", wr.bytes);
      break;
    }
    if (attempt >= kDataRetryLimit) {
      // Give up rather than hang: the missing data surfaces end-to-end
      // (READ digest mismatch at the initiator, write-ledger divergence at
      // the LUN), and the session layer decides the command's fate.
      obs_.report(eng, kDataAbort, data_abort_, {.arg = span_id});
      obs_.span_end(eng, kDataOpEnd, data_op_end_, op_t0, span_id,
                    {.event = span_name});
      co_return;
    }
    obs_.report(eng, kDataRetry, data_retry_,
                {.arg = static_cast<std::uint64_t>(attempt)});
    if (!qp_.alive()) {
      // QP died: wait for the session supervisor to walk it back to RTS
      // (MR revalidation included) before reposting.
      co_await qp_.ready_event().wait();
    } else {
      co_await sim::Delay{eng, backoff};
      backoff = fault::grow(backoff, 2.0, kBackoffCap);
    }
    wr.wr_id = next_wr_++;  // fresh id: the old completion is consumed
  }
  obs_.span_end(eng, kDataOpDone, data_op_done_, op_t0, span_id,
                {.event = span_name});
}

void IserEndpoint::begin_data_op(sim::Engine& eng, const char* span_name,
                                 std::uint64_t wr_id, std::uint64_t bytes) {
  // Data ops from concurrent submitters overlap, so they trace as async
  // spans keyed by wr_id.
  obs_.span_begin(eng, span_name, wr_id);
  obs_.report(eng, kDataBytes, data_bytes_, {.n = bytes});
  obs_.report(eng, kDataOps, data_ops_begun_);
}

sim::Task<> IserEndpoint::put_data_nowait(numa::Thread& th,
                                          mem::Buffer& staging,
                                          std::uint64_t bytes,
                                          rdma::RemoteKey rkey,
                                          std::uint64_t offset,
                                          std::function<void()> on_complete) {
  (void)offset;
  rdma::SendWr wr;
  wr.op = rdma::Opcode::kWrite;
  wr.wr_id = next_wr_++;
  wr.local = &staging;
  wr.bytes = bytes;
  wr.remote = rkey;
  wr.content_tag = staging.content_tag;
  auto& eng = th.host().engine();
  begin_data_op(eng, "rdma-write", wr.wr_id, bytes);
  if (auto* au = check::of(eng)) au->flow_in(this, "iser.data", bytes);
  // Loss accounting and the span close happen in send_cq_loop when this
  // record is consumed (see SendCompletion).
  SendCompletion sc;
  sc.on_complete = std::move(on_complete);
  sc.span_id = wr.wr_id;
  sc.nowait = true;
  pending_.insert(wr.wr_id, std::move(sc));
  co_await qp_.post_send(th, wr);
}

sim::Task<> IserEndpoint::get_data(numa::Thread& th, mem::Buffer& staging,
                                   std::uint64_t bytes, rdma::RemoteKey rkey,
                                   std::uint64_t offset) {
  (void)offset;
  rdma::SendWr wr;
  wr.op = rdma::Opcode::kRead;
  wr.wr_id = next_wr_++;
  wr.local = &staging;
  wr.bytes = bytes;
  wr.remote = rkey;
  // kRead adopts the remote buffer's tag into `staging` on completion.
  co_await await_data_op(th, wr, "rdma-read");
}

}  // namespace e2e::iser
