#include "rdma/qp.hpp"

#include <array>
#include <stdexcept>

#include "check/audit.hpp"
#include "sim/sync.hpp"

namespace e2e::rdma {

namespace {

// Incident descriptors. The trace names of the fault incidents predate the
// flight codes (qp-error vs qp-kill, flush-err vs wr-flush, ...); both are
// kept so traces and flight dumps read as they always have.
constexpr obs::Incident kKill{.name = "qp-kill",
                              .event = "qp-error",
                              .trace_counter = "rdma/qp_errors"};
constexpr obs::Incident kRecover{.name = "qp-recover",
                                 .counter = "recoveries",
                                 .event = "qp-rts",
                                 .trace_counter = "rdma/qp_recoveries"};
constexpr obs::Incident kPosted{.counter = "wr_posted"};
constexpr obs::Incident kFlush{
    .name = "wr-flush", .counter = "sends_flushed", .event = "flush-err"};
// A WR the QP's death caught on the wire fails like a wire fault but
// traces as a flush.
constexpr obs::Incident kFlushInFlight{
    .name = "wire-failure", .counter = "wire_failures", .event = "flush-err"};
constexpr obs::Incident kWireFail{.name = "wire-failure",
                                  .counter = "wire_failures"};
constexpr obs::Incident kDrop{
    .name = "rx-drop", .counter = "inbound_dropped", .event = "drop-err"};
constexpr obs::Incident kRnr{.name = "rnr", .counter = "rnr_waits"};
constexpr obs::Incident kCqCompletion{.trace_counter = "rdma/cq_completions"};

// Per-opcode WR spans, indexed by Opcode: sender (latency histogram, bytes
// posted) and receiver (bytes delivered). No flight records per WR.
consteval std::array<obs::Incident, 4> per_op(std::string_view hist,
                                              std::string_view bytes) {
  std::array<obs::Incident, 4> out{};
  for (std::size_t i = 0; i < out.size(); ++i)
    out[i] = {.name = to_string(static_cast<Opcode>(i)), .hist = hist,
              .code = obs::kSkip, .trace_counter = bytes};
  return out;
}
constexpr auto kWrDone = per_op("wr_ns", "rdma/bytes_posted");
constexpr auto kWrFailed = per_op({}, obs::kSkip);
constexpr auto kDelivered = per_op({}, "rdma/bytes_delivered");
constexpr obs::Incident kReadDone{.name = "read",
                                  .hist = "read_ns",
                                  .code = obs::kSkip,
                                  .trace_counter = "rdma/bytes_posted"};

constexpr std::size_t idx(Opcode op) { return static_cast<std::size_t>(op); }

}  // namespace

QueuePair::QueuePair(Device& dev, CompletionQueue& send_cq,
                     CompletionQueue& recv_cq)
    : dev_(dev),
      scq_(send_cq),
      rcq_(recv_cq),
      send_q_(dev.host().engine()),
      inbound_(dev.host().engine()),
      recv_q_(dev.host().engine()),
      error_event_(dev.host().engine()),
      ready_event_(dev.host().engine()),
      obs_(obs::Layer::kRdma, {dev.host().name() + "/qp-tx"},
           {dev.host().name() + "/qp"}),
      rx_track_(obs::Layer::kRdma, {dev.host().name() + "/qp-rx"}) {
  ready_event_.set();
}

void QueuePair::kill() {
  if (state_ == QpState::kError) return;
  state_ = QpState::kError;
  ++epoch_;
  ready_event_.reset();
  error_event_.set();
  obs_.report(dev_.host().engine(), kKill, kill_);
}

void QueuePair::crash() {
  kill();
  // A crashed host loses its receive ring: drain (never close — the
  // receiver loop must survive for the restart epoch) every posted WR.
  while (recv_q_.try_recv().has_value()) {}
  // It also loses its CQ memory: completions that landed before the
  // crash but were never reaped must not replay into whatever consumer
  // the restart epoch arms (a grant completion from the dead connection
  // replayed after re-login would double-issue that credit token).
  scq_.discard_pending();
  rcq_.discard_pending();
}

sim::Task<> QueuePair::recover(numa::Thread& th,
                               std::uint64_t revalidate_bytes) {
  if (state_ == QpState::kRts) co_return;
  const auto& cm = th.host().costs();
  // reset->init->RTR->RTS bring-up, then MR revalidation (re-pinning the
  // registered regions the reset NIC dropped).
  co_await th.compute(cm.rdma_setup_cycles, metrics::CpuCategory::kUserProto);
  if (revalidate_bytes > 0) {
    const double pages = static_cast<double>(revalidate_bytes) / 4096.0;
    co_await th.compute(pages * cm.rdma_mr_register_cycles_per_page,
                        metrics::CpuCategory::kUserProto);
  }
  state_ = QpState::kRts;
  ++epoch_;
  ++recoveries_;
  error_event_.reset();
  ready_event_.set();
  obs_.report(dev_.host().engine(), kRecover, recover_, {.arg = recoveries_});
}

void QueuePair::connect(QueuePair& a, QueuePair& b, net::Link& link) {
  if (a.connected() || b.connected())
    throw std::logic_error("queue pair already connected");
  a.peer_ = &b;
  b.peer_ = &a;
  a.link_ = &link;
  b.link_ = &link;
  // When the link knows its physical sides, transmit on the direction
  // matching each endpoint's host; otherwise `a` takes direction 0.
  a.dir_ = link.bound() ? link.dir_from(&a.device().host()) : 0;
  b.dir_ = 1 - a.dir_;
  sim::co_spawn(a.sender_loop());
  sim::co_spawn(a.receiver_loop());
  sim::co_spawn(b.sender_loop());
  sim::co_spawn(b.receiver_loop());
}

void QueuePair::validate_send(const SendWr& wr) const {
  if (!connected()) throw std::logic_error("post_send on unconnected QP");
  if (wr.local == nullptr && wr.bytes > 0)
    throw std::invalid_argument("send WR without a local buffer");
  if (wr.local) ProtectionDomain::require_registered(*wr.local);
  if ((wr.op == Opcode::kWrite || wr.op == Opcode::kWriteImm ||
       wr.op == Opcode::kRead) &&
      wr.remote.buffer == nullptr)
    throw std::invalid_argument("one-sided WR without a remote key");
  // A READ's responder half (remote DMA fetch, response wire time) runs on
  // the requester's engine, so both ends must share one. Cross-shard QPs
  // carry two-sided traffic only: kv sends every remote op through rpc.
  if (wr.op == Opcode::kRead &&
      &peer_->dev_.host().engine() != &dev_.host().engine())
    throw std::logic_error("rdma READ to " + peer_->dev_.host().name() +
                           " spans two shards");
}

void QueuePair::enqueue_send(const SendWr& wr) {
  auto& eng = dev_.host().engine();
  obs_.report(eng, kPosted, posted_);
  // Posting to an error-state QP is legal but the WR must flush with a
  // failed completion right away and never reach the wire — queueing it
  // would let a recover() racing ahead of the NIC engine transmit a stale
  // WR, which verbs forbids.
  if (state_ == QpState::kError) {
    ++sends_flushed_;
    if (auto* au = check::of(eng))
      au->on_qp_post_dead(this, dev_.host().name());
    scq_.push({wr.op, wr.wr_id, wr.bytes, 0, false, nullptr});
    obs_.report(eng, kFlush, flush_, {.arg = wr.wr_id});
    obs_.report(eng, kCqCompletion, cq_completion_);
    return;
  }
  send_q_.send(wr);
  // Depth after queueing: how many WRs the NIC engine has not picked up.
  obs_.gauge(eng, sq_depth_, static_cast<double>(send_q_.size()));
}

sim::Task<> QueuePair::post_send(numa::Thread& th, const SendWr& wr) {
  validate_send(wr);
  co_await th.compute(th.host().costs().rdma_post_wr_cycles,
                      metrics::CpuCategory::kUserProto);
  enqueue_send(wr);
}

sim::Task<> QueuePair::post_send_batch(numa::Thread& th,
                                       const std::vector<SendWr>& wrs) {
  if (wrs.empty()) co_return;
  for (const SendWr& wr : wrs) validate_send(wr);
  const auto& cm = th.host().costs();
  co_await th.compute(cm.rdma_post_wr_cycles +
                          static_cast<double>(wrs.size() - 1) *
                              cm.rdma_doorbell_wr_cycles,
                      metrics::CpuCategory::kUserProto);
  for (const SendWr& wr : wrs) enqueue_send(wr);
}

sim::Task<> QueuePair::post_recv(numa::Thread& th, RecvWr wr) {
  if (wr.buf == nullptr) throw std::invalid_argument("recv WR without buffer");
  ProtectionDomain::require_registered(*wr.buf);
  co_await th.compute(th.host().costs().rdma_post_wr_cycles,
                      metrics::CpuCategory::kUserProto);
  recv_q_.send(wr);
}

sim::Task<> QueuePair::post_recv_batch(numa::Thread& th,
                                       const std::vector<RecvWr>& wrs) {
  if (wrs.empty()) co_return;
  for (const RecvWr& wr : wrs) {
    if (wr.buf == nullptr)
      throw std::invalid_argument("recv WR without buffer");
    ProtectionDomain::require_registered(*wr.buf);
  }
  const auto& cm = th.host().costs();
  co_await th.compute(cm.rdma_post_wr_cycles +
                          static_cast<double>(wrs.size() - 1) *
                              cm.rdma_doorbell_wr_cycles,
                      metrics::CpuCategory::kUserProto);
  for (const RecvWr& wr : wrs) recv_q_.send(wr);
}

void QueuePair::deliver_after_latency(Delivery d,
                                      sim::SimDuration extra_latency) {
  QueuePair* peer = peer_;
  sim::Engine& own = dev_.host().engine();
  sim::Engine& peer_eng = peer->dev_.host().engine();
  if (&peer_eng == &own) {
    // Old-incarnation rejection: stamp the receiver's epoch as the message
    // leaves this end. If the peer is torn down and rebuilt while it is in
    // flight (host crash + restart), the stamp no longer matches by arrival
    // — the PSN/QPN mismatch of real verbs — and the receiver drops it
    // instead of handing a dead connection's traffic to the new epoch.
    d.epoch = peer->epoch_;
    own.schedule_after(
        link_->latency() + extra_latency,
        [peer, d]() mutable { peer->inbound_.send(std::move(d)); });
    return;
  }
  // Cross-shard peer: the receiver's epoch counter belongs to another
  // shard's worker thread, so it cannot be read here. Stamp it as the
  // message is enqueued on the destination engine instead — that runs on
  // the receiver's thread, and any kill()/recover() the receiver performs
  // up to the arrival instant is already reflected, which is the same
  // stale-incarnation cutoff the send-time stamp gives intra-shard (the
  // epoch can only have advanced while the message was in flight).
  own.cross_post(
      peer_eng,
      sim::Engine::saturating_add(own.now(), link_->latency() + extra_latency),
      [peer, d]() mutable {
        d.epoch = peer->epoch_;
        peer->inbound_.send(std::move(d));
      });
}

// Pushes a failed completion for `wr`, after `delay` when the failure only
// surfaces once transport-level retries exhaust (blackholed path).
void QueuePair::fail_send(const SendWr& wr, sim::SimDuration delay,
                          const obs::Incident& what, obs::Site& site) {
  auto& eng = dev_.host().engine();
  const WorkCompletion wc{wr.op, wr.wr_id, wr.bytes, 0, false, nullptr};
  if (delay > 0) {
    CompletionQueue* scq = &scq_;
    eng.schedule_after(delay, [scq, wc] { scq->push(wc); });
  } else {
    scq_.push(wc);
  }
  obs_.report(eng, what, site, {.arg = wr.wr_id});
  obs_.report(eng, kCqCompletion, cq_completion_);
}

sim::Task<> QueuePair::sender_loop() {
  auto& eng = dev_.host().engine();
  for (;;) {
    auto wr = co_await send_q_.recv();
    if (!wr) co_return;

    // Error-state QP: flush the WR with a failed completion, no wire time.
    if (state_ == QpState::kError) {
      ++sends_flushed_;
      scq_.push({wr->op, wr->wr_id, wr->bytes, 0, false, nullptr});
      obs_.report(eng, kFlush, flush_, {.arg = wr->wr_id});
      obs_.report(eng, kCqCompletion, cq_completion_);
      continue;
    }

    if (wr->op == Opcode::kRead) {
      // Reads proceed concurrently: the responder's read engine streams
      // each request independently of the send queue.
      sim::co_spawn(serve_read(*wr));
      continue;
    }

    // Transmit path: the DMA engine and the wire pipeline — the WR
    // completes when both the memory fetch and the serialization finish,
    // but the next WR's DMA is not held behind this WR's wire time.
    const sim::SimTime t0 = eng.now();
    if (wr->bytes > 0) {
      const sim::SimTime dma_done =
          dev_.charge_dma(wr->local->placement, wr->bytes, /*to_wire=*/true);
      co_await link_->dir(dir_).acquire(
          link_->wire_bytes(static_cast<double>(wr->bytes), header_per_mtu()));
      co_await sim::until(eng, dma_done);
    }
    // The QP may have been killed while this WR waited on DMA/wire time.
    if (state_ == QpState::kError) {
      ++sends_flushed_;
      fail_send(*wr, 0, kFlushInFlight, flush_inflight_);
      continue;
    }
    // Injected wire faults surface as failed completions; the payload
    // never reaches the peer (the app-level protocol must retransmit).
    const net::TxFate fate = link_->transmit_fate(
        dir(), link_->wire_bytes(static_cast<double>(wr->bytes),
                                 header_per_mtu()));
    if (fate.fail) {
      obs_.span(eng, kWrFailed[idx(wr->op)], wr_failed_[idx(wr->op)], t0);
      fail_send(*wr, fate.fail_delay, kWireFail, wire_fail_);
      continue;
    }
    if (auto* au = check::of(eng))
      au->on_qp_tx(peer_, peer_->dev_.host().name(), wr->bytes);
    scq_.push({wr->op, wr->wr_id, wr->bytes, 0, true, nullptr});
    obs_.span(eng, kWrDone[idx(wr->op)], wr_done_[idx(wr->op)], t0,
              {.n = wr->bytes});
    obs_.report(eng, kCqCompletion, cq_completion_);
    obs_.gauge(eng, sq_depth_, static_cast<double>(send_q_.size()));
    deliver_after_latency({wr->op, wr->bytes, wr->remote.buffer, wr->imm,
                           std::move(wr->payload), wr->content_tag},
                          fate.extra_latency);
  }
}

void QueuePair::note_inbound_drop(const Delivery& d) {
  auto& eng = dev_.host().engine();
  if (auto* au = check::of(eng))
    au->on_qp_drop(this, dev_.host().name(), d.bytes);
  obs_.report(eng, kDrop, drop_, {.arg = d.bytes, .on = &rx_track_});
}

sim::Task<> QueuePair::receiver_loop() {
  auto& eng = dev_.host().engine();
  for (;;) {
    auto d = co_await inbound_.recv();
    if (!d) co_return;
    // An errored QP drops inbound traffic on the floor (the real NIC nacks
    // it; the sender's transport-level retries eventually surface a failed
    // completion on its side). A stale epoch means the QP died after this
    // message arrived and a recover() raced ahead of the processing — the
    // message belongs to the dead connection, so it drops all the same.
    if (state_ == QpState::kError || d->epoch != epoch_) {
      note_inbound_drop(*d);
      continue;
    }
    const sim::SimTime t0 = eng.now();
    // Receiver-not-ready: a two-sided arrival with no posted receive
    // stalls the inbound pipeline until the application posts one.
    if ((d->op == Opcode::kSend || d->op == Opcode::kWriteImm) &&
        recv_q_.size() == 0)
      obs_.report(eng, kRnr, rnr_, {.arg = d->bytes, .on = &rx_track_});

    switch (d->op) {
      case Opcode::kSend: {
        // Consume a posted receive; wait (receiver-not-ready) when none.
        auto rwr = co_await recv_q_.recv();
        if (!rwr) co_return;
        if (d->epoch != epoch_) {
          // The QP died while this arrival waited receiver-not-ready; the
          // receive it just consumed was posted by the new epoch, so hand
          // it back before dropping the dead epoch's message.
          recv_q_.send(*rwr);
          note_inbound_drop(*d);
          continue;
        }
        if (rwr->buf->bytes < d->bytes)
          throw std::length_error("posted receive smaller than inbound send");
        if (auto* au = check::of(eng))
          au->on_dma_check(this, dev_.host().name(), rwr->buf->registered,
                           "send landing in posted receive");
        const sim::SimTime done =
            dev_.charge_dma(rwr->buf->placement, d->bytes, /*to_wire=*/false);
        co_await sim::until(eng, done);
        if (d->epoch != epoch_) {  // QP died mid-DMA: landing voided
          note_inbound_drop(*d);
          continue;
        }
        bytes_delivered_ += d->bytes;
        if (auto* au = check::of(eng))
          au->on_qp_rx(this, dev_.host().name(), d->bytes);
        rcq_.push({Opcode::kSend, rwr->wr_id, d->bytes, d->imm, true,
                   std::move(d->payload)});
        break;
      }
      case Opcode::kWriteImm: {
        auto rwr = co_await recv_q_.recv();
        if (!rwr) co_return;
        if (d->epoch != epoch_) {  // see the kSend twin above
          recv_q_.send(*rwr);
          note_inbound_drop(*d);
          continue;
        }
        if (auto* au = check::of(eng))
          au->on_dma_check(this, dev_.host().name(), d->target->registered,
                           "write-imm target region");
        const sim::SimTime done =
            dev_.charge_dma(d->target->placement, d->bytes, /*to_wire=*/false);
        co_await sim::until(eng, done);
        if (d->epoch != epoch_) {  // QP died mid-DMA: landing voided
          note_inbound_drop(*d);
          continue;
        }
        bytes_delivered_ += d->bytes;
        if (auto* au = check::of(eng))
          au->on_qp_rx(this, dev_.host().name(), d->bytes);
        d->target->content_tag ^= d->content_tag;
        rcq_.push({Opcode::kWriteImm, rwr->wr_id, d->bytes, d->imm, true,
                   std::move(d->payload)});
        break;
      }
      case Opcode::kWrite: {
        if (auto* au = check::of(eng))
          au->on_dma_check(this, dev_.host().name(), d->target->registered,
                           "write target region");
        const sim::SimTime done =
            dev_.charge_dma(d->target->placement, d->bytes, /*to_wire=*/false);
        co_await sim::until(eng, done);
        if (d->epoch != epoch_) {  // QP died mid-DMA: landing voided
          note_inbound_drop(*d);
          continue;
        }
        bytes_delivered_ += d->bytes;
        if (auto* au = check::of(eng))
          au->on_qp_rx(this, dev_.host().name(), d->bytes);
        d->target->content_tag ^= d->content_tag;
        break;  // silent at the responder
      }
      case Opcode::kRead:
        throw std::logic_error("read delivered to receiver loop");
    }
    obs_.span(eng, kDelivered[idx(d->op)], delivered_[idx(d->op)], t0,
              {.n = d->bytes, .on = &rx_track_});
    if (d->op != Opcode::kWrite)
      obs_.report(eng, kCqCompletion, cq_completion_);
  }
}

sim::Task<> QueuePair::serve_read(SendWr wr) {
  auto& eng = dev_.host().engine();
  const auto& cm = dev_.host().costs();
  const sim::SimTime read_t0 = eng.now();
  // Reads overlap each other, so they trace as async spans keyed by wr_id.
  obs_.span_begin(eng, "read", wr.wr_id);

  // Read request travels to the responder...
  co_await link_->dir(dir_).acquire(64.0);
  co_await sim::Delay{eng, link_->latency()};

  // ...whose NIC fetches the remote region with zero remote CPU and
  // streams the response. RDMA Read sustains only `rdma_read_efficiency`
  // of the line rate (request/response turnaround), per the paper's
  // observation.
  if (auto* au = check::of(eng))
    au->on_dma_check(this, dev_.host().name(), wr.remote.buffer->registered,
                     "read source region");
  const sim::SimTime fetch_done = peer_->dev_.charge_dma(
      wr.remote.buffer->placement, wr.bytes, /*to_wire=*/true);
  co_await link_->dir(1 - dir_).acquire(
      link_->wire_bytes(static_cast<double>(wr.bytes), header_per_mtu()) /
      cm.rdma_read_efficiency);
  co_await sim::until(eng, fetch_done);
  co_await sim::Delay{eng, link_->latency()};

  const net::TxFate fate =
      state_ == QpState::kError
          ? net::TxFate{true, 0, 0}
          : link_->transmit_fate(
                opposite(dir()),
                link_->wire_bytes(static_cast<double>(wr.bytes),
                                  header_per_mtu()));
  if (fate.fail) {
    obs_.span_end(eng, kWrFailed[idx(Opcode::kRead)],
                  wr_failed_[idx(Opcode::kRead)], read_t0,
                  wr.wr_id);
    fail_send(wr, fate.fail_delay, kWireFail, wire_fail_);
    co_return;
  }
  if (fate.extra_latency > 0) co_await sim::Delay{eng, fate.extra_latency};
  const sim::SimTime land_done =
      dev_.charge_dma(wr.local->placement, wr.bytes, /*to_wire=*/false);
  co_await sim::until(eng, land_done);
  // The landed data is a copy of the remote region: adopt its content tag.
  wr.local->content_tag = wr.remote.buffer->content_tag;
  scq_.push({Opcode::kRead, wr.wr_id, wr.bytes, 0, true, nullptr});
  obs_.span_end(eng, kReadDone, read_done_, read_t0, wr.wr_id,
                {.n = wr.bytes});
  obs_.report(eng, kCqCompletion, cq_completion_);
}

}  // namespace e2e::rdma
