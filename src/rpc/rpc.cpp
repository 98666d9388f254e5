#include "rpc/rpc.hpp"

namespace e2e::rpc {

namespace {

// Per-call retry timer: a call unanswered after kRetryAfter is re-sent
// (lost request, flushed send, dropped response); kMaxRetries firings
// complete it with ok=false. Generous: under chaos the QP may sit in the
// error state across several periods while a supervisor re-establishes it.
constexpr sim::SimDuration kRetryAfter = 5 * sim::kMillisecond;
constexpr int kMaxRetries = 256;

/// Shared pump-loop shape: take the first queued WR (blocking), drain up
/// to `batch_max - 1` more without suspending, post the chain behind one
/// doorbell. An idle queue therefore flushes immediately — batching only
/// coalesces WRs that were already enqueued at the same instant.
sim::Task<> pump_loop(rdma::QueuePair& qp, numa::Thread& th,
                      sim::Channel<rdma::SendWr>& out,
                      std::vector<rdma::SendWr>& batch,
                      std::size_t batch_max, std::uint64_t& doorbells,
                      std::uint64_t& doorbell_wrs) {
  for (;;) {
    auto first = co_await out.recv();
    if (!first) co_return;  // endpoint destroyed
    batch.clear();
    batch.push_back(std::move(*first));
    while (batch.size() < batch_max) {
      auto more = out.try_recv();
      if (!more) break;
      batch.push_back(std::move(*more));
    }
    ++doorbells;
    doorbell_wrs += batch.size();
    co_await qp.post_send_batch(th, batch);
    // Release payload references before the next blocking wait: a MsgPtr
    // parked in the scratch vector would otherwise pin its pool block (and
    // look like an in-flight reference to unique()-gated reusers) for as
    // long as the pump stays idle.
    batch.clear();
  }
}

/// Drains send completions so the send CQ never grows without bound. The
/// completions carry no information the rpc layer acts on directly —
/// failed sends surface as retry timeouts — but each one still costs the
/// reaping thread its poll cycles, batched like the receive side.
sim::Task<> send_reaper_loop(rdma::QueuePair& qp, numa::Thread& th) {
  const auto& cm = th.host().costs();
  for (;;) {
    (void)co_await qp.send_cq().wait(th);
    std::uint64_t extra = 0;
    while (qp.send_cq().try_poll().has_value()) ++extra;
    if (extra > 0)
      co_await th.compute(
          static_cast<double>(extra) * cm.rdma_poll_extra_cqe_cycles,
          metrics::CpuCategory::kUserProto);
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// RpcClient

RpcClient::RpcClient(rdma::QueuePair& qp, numa::Thread& post_th,
                     numa::Thread& reap_th, mem::Buffer& ring_buf,
                     RpcConfig cfg)
    : qp_(qp),
      post_th_(post_th),
      reap_th_(reap_th),
      buf_(ring_buf),
      cfg_(cfg),
      table_(qp.device().host().engine()),
      window_(qp.device().host().engine(),
              static_cast<std::int64_t>(cfg.window)),
      out_(qp.device().host().engine()) {}

sim::Task<> RpcClient::start() {
  refill_batch_.clear();
  for (std::size_t i = 0; i < cfg_.recv_ring; ++i)
    refill_batch_.push_back(rdma::RecvWr{next_recv_id_++, &buf_});
  co_await qp_.post_recv_batch(post_th_, refill_batch_);
  refill_batch_.clear();
  sim::co_spawn(send_pump());
  sim::co_spawn(send_reaper());
  sim::co_spawn(recv_reaper());
}

rdma::SendWr RpcClient::request_wr(const CallTable::Call& c) const {
  rdma::SendWr wr;
  wr.op = rdma::Opcode::kSend;
  wr.wr_id = c.id;
  wr.local = &buf_;
  wr.bytes = c.req_bytes;
  wr.imm = c.id;
  wr.payload = c.request;
  return wr;
}

sim::Task<RpcClient::Reply> RpcClient::call(std::uint64_t req_bytes,
                                            mem::MsgPtr request) {
  co_await window_.acquire();
  CallTable::Call& c = table_.begin();
  c.req_bytes = req_bytes;
  c.request = std::move(request);
  c.issued_at = qp_.device().host().engine().now();
  ++calls_issued_;
  out_.send(request_wr(c));
  arm_retry(c.id);
  co_await c.done.wait();
  Reply r{c.ok, c.resp_bytes, std::move(c.response)};
  table_.end(c);
  window_.release();
  co_return r;
}

void RpcClient::arm_retry(std::uint32_t id) {
  qp_.device().host().engine().schedule_after(
      kRetryAfter, [this, id] { on_retry_timer(id); });
}

void RpcClient::on_retry_timer(std::uint32_t id) {
  CallTable::Call* c = table_.find(id);
  if (c == nullptr || c->done.is_set()) return;  // stale generation / done
  if (++c->retries > kMaxRetries) {
    ++calls_failed_;
    c->ok = false;
    c->done.set();
    return;
  }
  ++retries_;
  out_.send(request_wr(*c));
  arm_retry(id);
}

sim::Task<> RpcClient::send_pump() {
  return pump_loop(qp_, post_th_, out_, send_batch_, cfg_.doorbell_batch,
                   doorbells_, doorbell_wrs_);
}

sim::Task<> RpcClient::send_reaper() {
  return send_reaper_loop(qp_, reap_th_);
}

void RpcClient::on_response(const rdma::WorkCompletion& wc) {
  CallTable::Call* c = table_.find(wc.imm);
  if (c == nullptr || c->done.is_set()) {
    // Late duplicate (a retry raced the original response) or a response
    // from a dead connection epoch: the generation check eats it.
    ++stale_responses_;
    return;
  }
  c->ok = wc.success;
  c->resp_bytes = wc.byte_len;
  c->response = wc.payload;
  c->done.set();
}

sim::Task<> RpcClient::recv_reaper() {
  const auto& cm = reap_th_.host().costs();
  for (;;) {
    auto wc = co_await qp_.recv_cq().wait(reap_th_);
    ++poll_batches_;
    ++poll_cqes_;
    std::uint64_t consumed = 1;
    on_response(wc);
    std::uint64_t extra = 0;
    while (auto more = qp_.recv_cq().try_poll()) {
      ++extra;
      ++consumed;
      ++poll_cqes_;
      on_response(*more);
    }
    if (extra > 0)
      co_await reap_th_.compute(
          static_cast<double>(extra) * cm.rdma_poll_extra_cqe_cycles,
          metrics::CpuCategory::kUserProto);
    // Refill the ring by exactly what this sweep consumed, one doorbell.
    refill_batch_.clear();
    for (std::uint64_t i = 0; i < consumed; ++i)
      refill_batch_.push_back(rdma::RecvWr{next_recv_id_++, &buf_});
    co_await qp_.post_recv_batch(reap_th_, refill_batch_);
    refill_batch_.clear();
  }
}

// ---------------------------------------------------------------------------
// RpcServer

RpcServer::RpcServer(rdma::QueuePair& qp, numa::Thread& post_th,
                     numa::Thread& reap_th, mem::Buffer& ring_buf,
                     Handler& handler, RpcConfig cfg)
    : qp_(qp),
      post_th_(post_th),
      reap_th_(reap_th),
      buf_(ring_buf),
      handler_(handler),
      cfg_(cfg),
      out_(qp.device().host().engine()) {}

sim::Task<> RpcServer::start() {
  refill_batch_.clear();
  for (std::size_t i = 0; i < cfg_.recv_ring; ++i)
    refill_batch_.push_back(rdma::RecvWr{next_recv_id_++, &buf_});
  co_await qp_.post_recv_batch(post_th_, refill_batch_);
  refill_batch_.clear();
  sim::co_spawn(send_pump());
  sim::co_spawn(send_reaper());
  sim::co_spawn(recv_reaper());
}

sim::Task<> RpcServer::send_pump() {
  return pump_loop(qp_, post_th_, out_, send_batch_, cfg_.doorbell_batch,
                   doorbells_, doorbell_wrs_);
}

sim::Task<> RpcServer::send_reaper() {
  return send_reaper_loop(qp_, reap_th_);
}

sim::Task<> RpcServer::serve_one(Request req) {
  co_await reap_th_.compute(reap_th_.host().costs().rpc_dispatch_cycles,
                            metrics::CpuCategory::kUserProto);
  Reply r = co_await handler_.handle(req);
  rdma::SendWr wr;
  wr.op = rdma::Opcode::kSend;
  wr.wr_id = req.id;
  // The response DMAs out of the handler-chosen source region (a
  // NUMA-placed store shard, typically); the shared ring region otherwise.
  wr.local = r.source != nullptr ? const_cast<mem::Buffer*>(r.source) : &buf_;
  wr.bytes = r.bytes;
  wr.imm = req.id;
  wr.payload = std::move(r.payload);
  out_.send(wr);
  ++calls_served_;
}

sim::Task<> RpcServer::recv_reaper() {
  const auto& cm = reap_th_.host().costs();
  for (;;) {
    auto wc = co_await qp_.recv_cq().wait(reap_th_);
    ++poll_batches_;
    std::uint64_t consumed = 0;
    std::uint64_t extra = 0;
    for (;;) {
      ++consumed;
      ++poll_cqes_;
      if (wc.success) {
        Request req;
        req.id = wc.imm;
        req.bytes = wc.byte_len;
        req.payload = std::move(wc.payload);
        sim::co_spawn(serve_one(std::move(req)));
      }
      auto more = qp_.recv_cq().try_poll();
      if (!more) break;
      ++extra;
      wc = std::move(*more);
    }
    if (extra > 0)
      co_await reap_th_.compute(
          static_cast<double>(extra) * cm.rdma_poll_extra_cqe_cycles,
          metrics::CpuCategory::kUserProto);
    refill_batch_.clear();
    for (std::uint64_t i = 0; i < consumed; ++i)
      refill_batch_.push_back(rdma::RecvWr{next_recv_id_++, &buf_});
    co_await qp_.post_recv_batch(reap_th_, refill_batch_);
    refill_batch_.clear();
  }
}

}  // namespace e2e::rpc
