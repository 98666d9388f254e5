#include "rftp/session.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "check/audit.hpp"
#include "fault/injector.hpp"
#include "fault/integrity.hpp"
#include "mem/msg_pool.hpp"
#include "rftp/fast_forward.hpp"

namespace e2e::rftp {

namespace {

// Storage pipeline threads per stream on each side.
constexpr int kFillersPerStream = 4;
constexpr int kDrainersPerStream = 8;

// Per-stream incidents.
constexpr obs::Incident kFilled{.name = "fill",
                                .hist = "fill_ns",
                                .code = "block-filled",
                                .trace_counter = "rftp/bytes_filled"};
// A filled block that had to sit waiting for a credit token means the
// receiver (or the wire) is the bottleneck right now.
constexpr obs::Incident kCreditWait{.name = "credit-wait",
                                    .code = obs::kSkip,
                                    .trace_counter = "rftp/credit_stalls"};
constexpr obs::Incident kPosted{.name = "block-posted",
                                .counter = "blocks_posted",
                                .hist = "credit_wait_ns",
                                .event = obs::kSkip};
constexpr obs::Incident kRetx{.name = "retransmit",
                              .counter = "retransmissions"};
constexpr obs::Incident kGrant{.trace_counter = "rftp/grants"};
constexpr obs::Incident kGrantRetx{.name = "grant-retransmit",
                                   .counter = "grant_retransmissions"};
constexpr obs::Incident kDup{
    .name = "dup-block", .counter = "duplicate_blocks", .event = obs::kSkip};
constexpr obs::Incident kChecksum{.name = "checksum-mismatch",
                                  .counter = "checksum_failures"};
constexpr obs::Incident kDrained{
    .name = "drain", .hist = "drain_ns", .code = "block-drained"};
constexpr obs::Incident kBlockEnd{.name = "block",
                                  .code = obs::kSkip,
                                  .trace_counter = "rftp/bytes_delivered"};
constexpr obs::Incident kDelivered{.counter = "blocks_delivered"};
constexpr obs::Incident kStreamDead{.name = "stream-dead",
                                    .counter = "failovers"};

// Session-wide incidents.
constexpr obs::Incident kFalseSuspect{.name = "false-suspect",
                                      .counter = "false_suspicions",
                                      .event = obs::kSkip,
                                      .trace_counter = obs::kSkip};
constexpr obs::Incident kFirstByte{.hist = "resume_ns"};
constexpr obs::Incident kCheckpoint{.trace_counter = "rftp/checkpoints"};
constexpr obs::Incident kCrash{.name = "crash", .counter = "host_crashes"};
constexpr obs::Incident kRolledBack{
    .trace_counter = "rftp/rolled_back_blocks"};
constexpr obs::Incident kRestart{.name = "host-restart",
                                 .code = obs::kSkip,
                                 .trace_counter = "rftp/host_restarts"};
constexpr obs::Incident kResume{.name = "resume", .counter = "resumes"};
constexpr obs::Incident kMttr{.hist = "mttr_ns"};
constexpr obs::Incident kWatchdogDead{
    .name = "watchdog-dead", .counter = "watchdog_deaths", .code = obs::kSkip};
constexpr obs::Incident kTransferFailed{.name = "transfer-failed",
                                        .counter = "transfers_failed",
                                        .code = obs::kSkip,
                                        .dump = "rftp"};

// "s<id>/<what>": one pipeline task's own trace lane (minted per task).
obs::Track task_lane(int stream, std::string_view what) {
  std::string name(1, 's');
  name += std::to_string(stream);
  name += '/';
  name += what;
  return {obs::Layer::kRftp, {std::move(name)}};
}

constexpr std::uint64_t kTinyBufBytes = 256;

}  // namespace

namespace {
sim::Engine& engine_of(const EndpointConfig& e) {
  if (e.proc == nullptr)
    throw std::invalid_argument("RFTP endpoints need processes");
  return e.proc->host().engine();
}
}  // namespace

RftpSession::RftpSession(EndpointConfig sender, EndpointConfig receiver,
                         std::vector<net::Link*> links, RftpConfig cfg)
    : sender_(sender),
      receiver_(receiver),
      links_(std::move(links)),
      cfg_(cfg),
      eng_(engine_of(sender)),
      watchdog_(eng_) {
  if (receiver_.proc == nullptr)
    throw std::invalid_argument("RFTP endpoints need processes");
  if (sender_.nics.empty() || receiver_.nics.empty() || links_.empty())
    throw std::invalid_argument("RFTP endpoints need NICs and links");
  if (cfg_.streams < 1 || cfg_.credits_per_stream < 1)
    throw std::invalid_argument("RFTP needs >=1 stream and credit");

  for (int i = 0; i < cfg_.streams; ++i) {
    auto s = std::make_unique<Stream>();
    s->id = i;
    const std::string name = "stream" + std::to_string(i);
    s->obs = obs::Actor(obs::Layer::kRftp, obs::named(name), obs::named(name));
    rdma::Device& snic = *sender_.nics[i % sender_.nics.size()];
    rdma::Device& rnic = *receiver_.nics[i % receiver_.nics.size()];
    net::Link& link = *links_[i % links_.size()];
    s->pair = std::make_unique<rdma::ConnectedPair>(snic, rnic, link);

    const auto pool_policy = cfg_.numa_aware ? numa::MemPolicy::kBind
                                             : numa::MemPolicy::kInterleave;
    s->send_pool = std::make_unique<mem::BufferPool>(
        sender_.proc->host(), "rftp-send-" + std::to_string(i),
        static_cast<std::size_t>(cfg_.credits_per_stream) +
            static_cast<std::size_t>(kFillersPerStream),
        cfg_.block_bytes, pool_policy, snic.node());
    s->recv_pool = std::make_unique<mem::BufferPool>(
        receiver_.proc->host(), "rftp-recv-" + std::to_string(i),
        static_cast<std::size_t>(cfg_.credits_per_stream), cfg_.block_bytes,
        pool_policy, rnic.node());

    s->credits = std::make_unique<sim::Channel<Credit>>(eng_);
    s->sendq = std::make_unique<sim::Channel<FilledBlock>>(eng_);
    s->drainq = std::make_unique<sim::Channel<Arrival>>(eng_);

    s->tiny_tx.bytes = kTinyBufBytes;
    s->tiny_tx.placement =
        sender_.proc->host().alloc(kTinyBufBytes, pool_policy, snic.node(),
                                   snic.node());
    s->tiny_rx.bytes = kTinyBufBytes;
    s->tiny_rx.placement =
        receiver_.proc->host().alloc(kTinyBufBytes, pool_policy, rnic.node(),
                                     rnic.node());
    streams_.push_back(std::move(s));
  }
  alive_streams_ = cfg_.streams;
  alive_token_ = std::make_shared<char>(0);
}

RftpSession::~RftpSession() = default;

numa::Thread& RftpSession::spawn(numa::Process& proc,
                                 const rdma::Device& nic) {
  if (cfg_.numa_aware) {
    // Pin to a core on the NIC's node regardless of the process policy.
    const numa::CoreId core =
        proc.host().pick_core(numa::SchedPolicy::kBindNode, nic.node());
    return proc.spawn_pinned_thread(core);
  }
  return proc.spawn_thread();
}

sim::Task<> RftpSession::setup_stream(Stream& s) {
  if (s.dead) co_return;  // killed before the transfer started
  numa::Thread& sth = spawn(*sender_.proc, s.pair->a().device());
  numa::Thread& rth = spawn(*receiver_.proc, s.pair->b().device());

  co_await s.pair->establish(sth, rth);

  // Register staging memory (ibv_reg_mr cost, amortized over the session).
  auto charge_registration = [](numa::Thread& th, std::uint64_t bytes) {
    const double pages = static_cast<double>(bytes) / 4096.0;
    return th.compute(pages * th.host().costs().rdma_mr_register_cycles_per_page,
                      metrics::CpuCategory::kUserProto);
  };
  co_await charge_registration(
      sth, s.send_pool->capacity() * s.send_pool->buffer_bytes());
  co_await charge_registration(
      rth, s.recv_pool->capacity() * s.recv_pool->buffer_bytes());
  s.send_pool->mark_registered();
  s.recv_pool->mark_registered();
  s.tiny_tx.registered = true;
  s.tiny_rx.registered = true;

  // Receiver advertises its staging buffers as credit tokens.
  s.token_buffers.clear();
  while (mem::Buffer* b = s.recv_pool->try_acquire())
    s.token_buffers.push_back(b);

  // Pre-post receives: the sender catches GRANT messages, the receiver
  // catches WRITE-with-immediate arrivals.
  for (int i = 0; i < cfg_.credits_per_stream + 4; ++i) {
    co_await s.pair->a().post_recv(sth, rdma::RecvWr{0, &s.tiny_tx});
    co_await s.pair->b().post_recv(rth, rdma::RecvWr{0, &s.tiny_rx});
  }

  // Initial credit grants flow as real control messages.
  s.latest_grant.assign(s.token_buffers.size(), 0);
  for (std::uint32_t t = 0; t < s.token_buffers.size(); ++t) {
    if (auto* au = check::of(eng_)) au->rftp_grant_sent(this, s.id, t);
    rdma::SendWr wr;
    wr.op = rdma::Opcode::kSend;
    // Grant wr_ids carry the token (low 16 bits, so the reaper can
    // re-send) and the attempt sequence (high bits, so it can discard
    // failures of superseded attempts).
    wr.wr_id = grant_wr_id(t);
    s.latest_grant[t] = wr.wr_id;
    wr.local = &s.tiny_rx;
    wr.bytes = static_cast<std::uint64_t>(
        rth.host().costs().rftp_control_msg_bytes);
    wr.payload = mem::make_msg<GrantMsg>(GrantMsg{t, s.login_gen});
    co_await s.pair->b().post_send(rth, wr);
  }
}

sim::Task<TransferResult> RftpSession::run(DataSource& src, DataSink& dst,
                                           std::uint64_t total_bytes,
                                           metrics::ThroughputMeter* meter) {
  if (running_) throw std::logic_error("RFTP session already running");
  running_ = true;
  total_bytes_ = total_bytes;
  total_blocks_ = (total_bytes + cfg_.block_bytes - 1) / cfg_.block_bytes;
  build_block_plan(src);
  blocks_done_ = 0;
  src_ = &src;
  dst_ = &dst;
  meter_ = meter;
  drained_.clear();
  ledger_.clear();
  unledgered_.clear();
  drains_since_ckpt_ = 0;
  crashed_ = false;
  resume_pending_ = false;
  crashed_streams_.clear();
  sink_digest_ = 0;
  delivered_bytes_ = 0;
  transfer_failed_ = false;
  done_ = std::make_unique<sim::WaitGroup>(eng_);
  done_->add(static_cast<std::int64_t>(total_blocks_));
  if (auto* au = check::of(eng_)) {
    au->rftp_begin(this, total_bytes_, cfg_.block_bytes, total_blocks_,
                   cfg_.streams);
    for (const auto& s : streams_)
      if (s->dead) au->rftp_stream_dead(this, s->id);
  }
  if (alive_streams_ == 0) fail_transfer();  // every stream killed pre-run

  // Steady-state fast-forward: standalone engines only (a sharded engine
  // must never skip modeled time — window bounds derive from event times),
  // and a fault plan whose quiet horizon is infinite (a terminal crash)
  // disables it outright.
  ff_.reset();
  if (cfg_.fast_forward && eng_.cluster() == nullptr &&
      cfg_.ff_quiet_after < sim::kTimeInfinity)
    ff_ = std::make_unique<FastForward>(*this);

  for (auto& s : streams_) co_await setup_stream(*s);
  const sim::SimTime vt0 = eng_.virtual_now();
  const metrics::CpuUsage src_cpu0 = sender_.proc->host().total_usage();
  const metrics::CpuUsage dst_cpu0 = receiver_.proc->host().total_usage();

  for (auto& s : streams_) {
    // cq_spawned: a crash landed inside the setup loop above and the
    // restart already armed this stream's full pipeline — a second copy
    // here would double-process completions.
    if (s->dead || s->cq_spawned) continue;
    rdma::Device& snic = s->pair->a().device();
    rdma::Device& rnic = s->pair->b().device();
    s->cq_spawned = true;
    s->active_fillers = kFillersPerStream;
    for (int i = 0; i < kFillersPerStream; ++i)
      sim::co_spawn(filler(*s, spawn(*sender_.proc, snic), src));
    sim::co_spawn(wire_sender(*s, spawn(*sender_.proc, snic)));
    sim::co_spawn(send_reaper(*s, spawn(*sender_.proc, snic)));
    sim::co_spawn(grant_receiver(*s, spawn(*sender_.proc, snic)));
    sim::co_spawn(arrival_handler(*s, spawn(*receiver_.proc, rnic)));
    sim::co_spawn(grant_reaper(*s, spawn(*receiver_.proc, rnic)));
    for (int i = 0; i < kDrainersPerStream; ++i)
      sim::co_spawn(drainer(*s, spawn(*receiver_.proc, rnic), dst, meter));
  }

  if (cfg_.watchdog.quiet > 0) {
    watchdog_.set_false_suspect_handler(
        [this] { obs_.report(eng_, kFalseSuspect, false_suspect_); });
    watchdog_.arm(cfg_.watchdog, [this] { on_watchdog_dead(); });
  }

  co_await done_->wait();
  watchdog_.disarm();

  TransferResult r;
  r.bytes = delivered_bytes_;
  r.blocks = blocks_done_;
  // Modeled (virtual) elapsed time: event-exact runs read the event clock;
  // fast-forwarded runs add the spans absorbed by Engine::skip_time, so the
  // reported elapsed/goodput is identical either way.
  r.start = vt0;
  r.end = eng_.virtual_now();
  r.elapsed_s = sim::to_seconds(r.end - r.start);
  r.sender_usage = sender_.proc->host().total_usage().since(src_cpu0);
  r.receiver_usage = receiver_.proc->host().total_usage().since(dst_cpu0);
  r.goodput_gbps =
      r.elapsed_s > 0
          ? static_cast<double>(r.bytes) * 8.0 / r.elapsed_s / 1e9
          : 0.0;
  r.complete = !transfer_failed_ && blocks_done_ == total_blocks_;
  // End-to-end verification: XOR of the checksums the sink accepted must
  // equal the analytic digest of the blocks it claims to have drained,
  // hashed one drained run at a time; only a partial final block has a
  // size of its own.
  const std::uint64_t full_blocks = total_bytes_ / cfg_.block_bytes;
  std::uint64_t expect = 0;
  for (const sim::RunSet::Run& run : drained_) {
    expect ^= fault::rftp_range_tag(
        run.lo, std::min(run.hi, full_blocks), cfg_.block_bytes);
    if (run.hi > full_blocks)
      expect ^= fault::rftp_block_tag(
          full_blocks, total_bytes_ - full_blocks * cfg_.block_bytes);
  }
  r.integrity_ok = sink_digest_ == expect && checksum_failures == 0;
  r.crashes = host_crashes;
  r.resumes = resumes;
  if (ff_) {
    r.ff_spans = ff_->spans();
    r.ff_blocks = ff_->blocks_collapsed();
    r.ff_skipped_ns = ff_->skipped();
  }
  if (auto* au = check::of(eng_))
    au->rftp_end(this, r.complete, delivered_bytes_, sink_digest_);
  running_ = false;
  src_ = nullptr;
  dst_ = nullptr;
  meter_ = nullptr;
  ff_.reset();
  co_return r;
}

void RftpSession::build_block_plan(DataSource& src) {
  const int nodes = sender_.proc->host().node_count();
  block_queues_ =
      std::vector<sim::RunQueue>(static_cast<std::size_t>(nodes) + 1);
  streams_on_node_.assign(static_cast<std::size_t>(nodes), 0);
  for (const auto& s : streams_)
    ++streams_on_node_[static_cast<std::size_t>(s->pair->a().device().node())];
  // One source query and one push per extent of constant home: a source
  // without locality plans the whole transfer as a single run.
  const std::uint64_t bb = cfg_.block_bytes;
  for (std::uint64_t idx = 0; idx < total_blocks_;) {
    DataSource::Home home;
    if (cfg_.numa_aware) home = src.home(idx * bb, bb);
    const std::uint64_t end = std::clamp<std::uint64_t>(
        home.end / bb + (home.end % bb != 0 ? 1 : 0), idx + 1, total_blocks_);
    const std::size_t bucket = (home.node >= 0 && home.node < nodes)
                                   ? static_cast<std::size_t>(home.node)
                                   : static_cast<std::size_t>(nodes);
    block_queues_[bucket].push_back_run(idx, end);
    idx = end;
  }
}

std::optional<std::uint64_t> RftpSession::claim_block(numa::NodeId node) {
  const auto d =
      decide_claim(block_queues_.size(), static_cast<std::size_t>(node),
                   [this](std::size_t q) { return block_queues_[q].size(); });
  if (!d) return std::nullopt;
  if (ff_) ff_->on_claim(node, *d);
  auto& q = block_queues_[d->queue];
  const std::uint64_t idx = d->from_back ? q.back() : q.front();
  if (d->from_back)
    q.pop_back();
  else
    q.pop_front();
  switch (d->kind) {
    case ClaimDecision::Kind::kStolen:
      ++stolen_claims;
      obs_.report(eng_, kStolenClaim, stolen_claim_);
      break;
    case ClaimDecision::Kind::kLocal:
      ++local_claims;
      obs_.report(eng_, kLocalClaim, local_claim_);
      break;
    case ClaimDecision::Kind::kShared:
    case ClaimDecision::Kind::kFallback:
      break;
  }
  return idx;
}

sim::Task<> RftpSession::filler(Stream& s, numa::Thread& th,
                                DataSource& src) {
  obs::Track lane = task_lane(s.id, "fill");
  for (;;) {
    if (s.dead) break;
    const auto claimed = claim_block(th.node());
    if (!claimed) break;
    const std::uint64_t idx = *claimed;
    mem::Buffer* buf = co_await s.send_pool->acquire();
    if (s.dead) {  // stream died while we waited for staging
      s.send_pool->release(buf);
      requeue_block(idx);
      break;
    }
    s.obs.span_begin(eng_, "block", idx);
    const std::uint64_t offset = idx * cfg_.block_bytes;
    const std::uint64_t want =
        std::min<std::uint64_t>(cfg_.block_bytes, total_bytes_ - offset);
    const sim::SimTime fill_t0 = eng_.now();
    const std::uint64_t got = co_await src.fill(th, *buf, offset, want);
    if (auto* au = check::of(eng_))
      if (got > 0) au->rftp_fill(this, idx, got);
    s.obs.span(eng_, kFilled, s.filled, fill_t0,
               {.arg = idx, .n = got, .on = &lane});
    if (got == 0) {  // premature EOF: surface as a truncated transfer
      s.send_pool->release(buf);
      break;
    }
    if (!s.sendq->send(FilledBlock{buf, idx, got})) {
      // Stream died while we were filling; the block is not lost, it fails
      // over like everything else this stream owed.
      s.send_pool->release(buf);
      requeue_block(idx);
      break;
    }
  }
  // The sendq stays open: failover may requeue blocks and respawn fillers
  // long after the original plan drained, so only stream death closes it.
  --s.active_fillers;
}

sim::Task<> RftpSession::wire_sender(Stream& s, numa::Thread& th) {
  const auto& cm = th.host().costs();
  obs::Track lane = task_lane(s.id, "wire");
  for (;;) {
    auto blk = co_await s.sendq->recv();
    if (!blk) co_return;
    if (s.dead) {  // drain the queue into the failover pool
      s.send_pool->release(blk->buf);
      requeue_block(blk->block_idx);
      continue;
    }
    const sim::SimTime credit_t0 = eng_.now();
    auto credit = co_await s.credits->recv();
    if (!credit || s.dead) {  // stream died while we waited for a token
      s.send_pool->release(blk->buf);
      requeue_block(blk->block_idx);
      // Keep looping: the closed sendq still holds filled blocks that must
      // drain through the requeue branch above before recv() says nullopt.
      continue;
    }
    if (auto* au = check::of(eng_))
      au->rftp_credit_consumed(this, s.id, credit->token);
    if (eng_.now() > credit_t0)
      s.obs.span(eng_, kCreditWait, s.credit_wait, credit_t0, {.on = &lane});
    s.obs.span(eng_, kPosted, s.posted, credit_t0, {.arg = blk->block_idx});
    co_await th.compute(cm.rftp_block_user_cycles,
                        metrics::CpuCategory::kUserProto);
    const std::uint64_t sum = fault::rftp_block_tag(blk->block_idx,
                                                    blk->bytes);
    rdma::SendWr wr;
    wr.op = rdma::Opcode::kWriteImm;
    wr.wr_id = s.next_wr++;
    wr.local = blk->buf;
    wr.bytes = blk->bytes;
    wr.remote = rdma::RemoteKey{credit->remote};
    wr.imm = credit->token;
    wr.content_tag = sum;  // lands in the remote buffer with the write
    wr.payload = mem::make_msg<DataHeader>(
        DataHeader{credit->token, blk->block_idx, blk->bytes, sum});
    s.inflight.insert(wr.wr_id,
                      Stream::InflightBlock{blk->buf, blk->block_idx,
                                            blk->bytes, *credit});
    co_await s.pair->a().post_send(th, wr);
  }
}

sim::Task<> RftpSession::send_reaper(Stream& s, numa::Thread& th) {
  const auto& cm = th.host().costs();
  for (;;) {
    auto wc = co_await s.pair->a().send_cq().wait(th);
    Stream::InflightBlock* found = s.inflight.find(wc.wr_id);
    if (found == nullptr) continue;
    const Stream::InflightBlock blk = *found;
    s.inflight.erase(wc.wr_id);
    if (wc.success) {
      // The wire accepted it; only a drain at the sink confirms delivery
      // (the receiver QP may still drop it if it errors meanwhile).
      s.sent_unconfirmed.insert(blk.block_idx, 1);
      s.send_pool->release(blk.buf);
      continue;
    }
    if (s.dead) {
      // Flushed by a QP kill after the failover requeue ran: the block is
      // someone else's job now, just reclaim the staging buffer.
      s.send_pool->release(blk.buf);
      requeue_block(blk.block_idx);
      continue;
    }
    // Wire fault: the block never reached the peer and the credit token is
    // still ours — repost the same block to the same remote buffer.
    ++retransmissions;
    s.obs.report(eng_, kRetx, s.retx, {.arg = blk.block_idx});
    co_await th.compute(cm.rftp_block_user_cycles,
                        metrics::CpuCategory::kUserProto);
    const std::uint64_t sum = fault::rftp_block_tag(blk.block_idx, blk.bytes);
    rdma::SendWr wr;
    wr.op = rdma::Opcode::kWriteImm;
    wr.wr_id = s.next_wr++;
    wr.local = blk.buf;
    wr.bytes = blk.bytes;
    wr.remote = rdma::RemoteKey{blk.credit.remote};
    wr.imm = blk.credit.token;
    wr.content_tag = sum;
    wr.payload = mem::make_msg<DataHeader>(
        DataHeader{blk.credit.token, blk.block_idx, blk.bytes, sum});
    s.inflight.insert(wr.wr_id, blk);
    co_await s.pair->a().post_send(th, wr);
  }
}

sim::Task<> RftpSession::grant_receiver(Stream& s, numa::Thread& th) {
  const auto& cm = th.host().costs();
  for (;;) {
    auto wc = co_await s.pair->a().recv_cq().wait(th);
    const auto* g = wc.as<GrantMsg>();
    if (g == nullptr) continue;
    // Re-login dedup: a credit granted under an older login generation is
    // stale — it was either superseded by the restart's full re-grant or
    // belongs to a connection incarnation that no longer exists. Drop it
    // (the consumed receive is re-posted below either way).
    if (g->generation != s.login_gen) {
      co_await s.pair->a().post_recv(th, rdma::RecvWr{0, &s.tiny_tx});
      continue;
    }
    co_await th.compute(cm.rftp_control_msg_cycles,
                        metrics::CpuCategory::kUserProto);
    ++control_msgs_;
    s.obs.report(eng_, kGrant, s.grant);
    if (auto* au = check::of(eng_))
      au->rftp_credit_received(this, s.id, g->token);
    s.credits->send(Credit{g->token, s.token_buffers.at(g->token)});
    co_await s.pair->a().post_recv(th, rdma::RecvWr{0, &s.tiny_tx});
  }
}

sim::Task<> RftpSession::grant_reaper(Stream& s, numa::Thread& th) {
  const auto& cm = th.host().costs();
  for (;;) {
    auto wc = co_await s.pair->b().send_cq().wait(th);
    if (wc.success || s.dead) continue;
    // Failures can surface long after the send (a blackholed grant's
    // transport retries exhaust 4 RTTs later; a crash + restart re-grants
    // every token). Only the LATEST attempt for a token speaks for it: a
    // superseded attempt's failure is stale news, and re-sending for it
    // would double-issue a credit a newer grant already delivered.
    const auto token = static_cast<std::uint32_t>(wc.wr_id & 0xffff);
    if (token >= s.latest_grant.size() || wc.wr_id != s.latest_grant[token])
      continue;
    if (auto* au = check::of(eng_))
      au->rftp_grant_lost(this, s.id, token);
    // A grant lost on the wire is a leaked credit: the sender can never
    // learn the token is free again, and with enough leaks the stream
    // starves. Re-send (paced by a control-message gap so a flap window
    // does not turn into a same-instant retry storm) until it sticks.
    // While the pacing delay is pending the fast-forward detector must not
    // engage: the retry would otherwise fire against a collapsed-away
    // work-point (see ff_grant_retries_pending_).
    ++ff_grant_retries_pending_;
    co_await sim::Delay{eng_, 2 * s.pair->link().rtt()};
    --ff_grant_retries_pending_;
    if (s.dead) continue;
    ++grant_retransmissions;
    s.obs.report(eng_, kGrantRetx, s.grant_retx, {.arg = token});
    co_await th.compute(cm.rftp_control_msg_cycles,
                        metrics::CpuCategory::kUserProto);
    // The 2-RTT pacing delay above can span a crash + restart or a drain:
    // if anything re-granted this token meanwhile, the retry is already
    // superseded and must not fire.
    if (wc.wr_id != s.latest_grant[token]) continue;
    if (auto* au = check::of(eng_))
      au->rftp_grant_sent(this, s.id, token);
    rdma::SendWr grant;
    grant.op = rdma::Opcode::kSend;
    grant.wr_id = grant_wr_id(token);
    s.latest_grant[token] = grant.wr_id;
    grant.local = &s.tiny_rx;
    grant.bytes = static_cast<std::uint64_t>(cm.rftp_control_msg_bytes);
    grant.payload = mem::make_msg<GrantMsg>(GrantMsg{token, s.login_gen});
    co_await s.pair->b().post_send(th, grant);
  }
}

sim::Task<> RftpSession::arrival_handler(Stream& s, numa::Thread& th) {
  const auto& cm = th.host().costs();
  for (;;) {
    auto wc = co_await s.pair->b().recv_cq().wait(th);
    const auto* h = wc.as<DataHeader>();
    if (h == nullptr) continue;
    co_await th.compute(cm.rftp_block_user_cycles,
                        metrics::CpuCategory::kUserProto);
    s.drainq->send(Arrival{h->token, h->block_idx, h->bytes, h->checksum});
    co_await s.pair->b().post_recv(th, rdma::RecvWr{0, &s.tiny_rx});
  }
}

sim::Task<> RftpSession::drainer(Stream& s, numa::Thread& th, DataSink& dst,
                                 metrics::ThroughputMeter* meter) {
  const auto& cm = th.host().costs();
  obs::Track lane = task_lane(s.id, "drain");
  for (;;) {
    auto a = co_await s.drainq->recv();
    if (!a) co_return;
    mem::Buffer* buf = s.token_buffers.at(a->token);
    // The RDMA write deposited the sender's tag in the landing buffer;
    // lift it out and reset so the next block lands in a clean buffer.
    const std::uint64_t landed = buf->content_tag;
    buf->content_tag = 0;
    const bool dup = drained_.contains(a->block_idx);
    if (auto* au = check::of(eng_))
      au->rftp_drain(this, s.id, a->token, a->block_idx, a->bytes, landed,
                     dup, landed == a->checksum);
    bool fresh = false;
    sim::SimTime drained_at = 0;
    if (dup) {
      // A failover re-send of a block the original stream had delivered.
      ++duplicate_blocks;
      s.obs.report(eng_, kDup, s.dup, {.arg = a->block_idx});
    } else if (landed != a->checksum) {
      ++checksum_failures;
      s.obs.report(eng_, kChecksum, s.cksum, {.arg = a->block_idx});
      requeue_block(a->block_idx);  // a survivor re-sends it
    } else {
      fresh = true;
      const sim::SimTime drain_t0 = eng_.now();
      co_await dst.drain(th, *buf, a->block_idx * cfg_.block_bytes,
                         a->bytes);
      drained_at = eng_.virtual_now();
      if (meter != nullptr) meter->record(a->bytes);
      drained_.insert(a->block_idx);
      sink_digest_ ^= landed;
      delivered_bytes_ += a->bytes;
      s.sent_unconfirmed.erase(a->block_idx);
      s.obs.span(eng_, kDrained, s.drained, drain_t0,
                 {.arg = a->block_idx, .on = &lane});
      s.obs.span_end(eng_, kBlockEnd, s.block_end, 0, a->block_idx,
                     {.n = a->bytes});
      s.obs.report(eng_, kDelivered, s.delivered);
      // Forward progress: feed the liveness watchdog, time the first
      // byte after a resume, and roll the durable ledger forward.
      watchdog_.kick();
      if (resume_pending_) {
        resume_pending_ = false;
        obs_.span(eng_, kFirstByte, first_byte_, crash_t0_);
      }
      // A checkpoint publishes only the drains since the previous one.
      if (cfg_.checkpoint_blocks > 0) {
        unledgered_.push_back(a->block_idx);
        if (++drains_since_ckpt_ >= cfg_.checkpoint_blocks) {
          drains_since_ckpt_ = 0;
          for (const std::uint64_t idx : unledgered_) ledger_.insert(idx);
          unledgered_.clear();
          ++checkpoints;
          if (auto* au = check::of(eng_)) au->rftp_checkpoint(this, ledger_);
          obs_.report(eng_, kCheckpoint, checkpoint_);
        }
      }
    }

    // Proactive feedback: re-grant the token immediately after draining
    // (duplicates and checksum rejects recycle the token too).
    co_await th.compute(cm.rftp_control_msg_cycles,
                        metrics::CpuCategory::kUserProto);
    if (auto* au = check::of(eng_))
      au->rftp_grant_sent(this, s.id, a->token);
    rdma::SendWr grant;
    grant.op = rdma::Opcode::kSend;
    grant.wr_id = grant_wr_id(a->token);
    s.latest_grant[a->token] = grant.wr_id;
    grant.local = &s.tiny_rx;
    grant.bytes = static_cast<std::uint64_t>(cm.rftp_control_msg_bytes);
    grant.payload = mem::make_msg<GrantMsg>(GrantMsg{a->token, s.login_gen});
    co_await s.pair->b().post_send(th, grant);

    if (fresh) {
      ++blocks_done_;
      done_->done();
      // Steady-state hook: a fresh drain is the only safe collapse point —
      // the drainer is between awaits and every per-block side effect of
      // this iteration has landed. The collapse (if any) runs synchronously
      // here and never moves the event clock.
      if (ff_) ff_->on_fresh_drain(s.id, a->token, a->bytes, drained_at);
    }
  }
}

void RftpSession::requeue_block(std::uint64_t idx) {
  if (ff_) ff_->disarm();  // failover traffic is never steady state
  if (drained_.contains(idx)) return;  // already landed
  block_queues_.back().push_back(idx);
  if (!running_ || src_ == nullptr || alive_streams_ <= 0) return;
  // Fillers are transient — they exit once the plan drains — so a block
  // requeued after that point would sit unclaimed forever. Re-arm one
  // filler on the next surviving stream per requeued block; extras find an
  // empty plan and exit immediately.
  for (std::size_t off = 0; off < streams_.size(); ++off) {
    Stream& s =
        *streams_[(next_failover_stream_ + off) % streams_.size()];
    if (s.dead) continue;
    next_failover_stream_ =
        (next_failover_stream_ + off + 1) % streams_.size();
    ++s.active_fillers;
    sim::co_spawn(
        filler(s, spawn(*sender_.proc, s.pair->a().device()), *src_));
    return;
  }
}

void RftpSession::kill_stream(int idx) {
  if (idx < 0 || idx >= static_cast<int>(streams_.size()))
    throw std::out_of_range("kill_stream: no such stream");
  Stream& s = *streams_[static_cast<std::size_t>(idx)];
  if (s.dead) return;
  s.pair->kill();
  handle_stream_death(s);
}

void RftpSession::handle_stream_death(Stream& s) {
  if (s.dead) return;
  if (ff_) ff_->disarm();
  s.dead = true;
  --alive_streams_;
  ++failovers;
  if (running_)
    if (auto* au = check::of(eng_)) au->rftp_stream_dead(this, s.id);
  s.obs.report(eng_, kStreamDead, s.died,
               {.arg = static_cast<std::uint64_t>(s.id)});

  // Reassign everything this stream still owed: blocks posted but not
  // completed, and blocks the wire acked that the sink never confirmed
  // (the dying receiver QP may have dropped them on the floor).
  // (Ascending-key order: the flat tables hash, but faulted-run traces
  // must match the std::map/std::set iteration order they replaced.)
  s.inflight.for_each_sorted(
      [&](std::uint64_t, const Stream::InflightBlock& blk) {
        s.send_pool->release(blk.buf);
        requeue_block(blk.block_idx);
      });
  s.inflight.clear();
  s.sent_unconfirmed.for_each_sorted(
      [&](std::uint64_t idx, char) { requeue_block(idx); });
  s.sent_unconfirmed.clear();

  // Wake the stream's pipeline: queued fill work drains through the
  // wire_sender's dead-stream branch back into the shared queue, queued
  // arrivals still drain (they landed before the kill), then every task
  // parks or exits.
  s.credits->close();
  s.sendq->close();
  s.drainq->close();

  if (alive_streams_ <= 0 && running_) fail_transfer();
}

void RftpSession::attach(fault::FaultInjector& inj) {
  inj.set_qp_kill_handler([this](int qp) { kill_stream(qp % cfg_.streams); });
  inj.set_crash_handler(
      [this](int host, sim::SimDuration down) { crash_host(host, down); });
  // Grant-retry pacing is 2 RTTs; 20 RTTs plus a fixed margin buries any
  // recovery transient. A plan with a terminal crash yields kTimeInfinity,
  // which keeps the run event-exact.
  sim::SimDuration max_rtt = 0;
  for (const net::Link* l : links_) max_rtt = std::max(max_rtt, l->rtt());
  cfg_.ff_quiet_after =
      std::max(cfg_.ff_quiet_after,
               inj.plan().quiet_after(20 * max_rtt + 100 * sim::kMillisecond));
}

void RftpSession::crash_host(int host, sim::SimDuration down) {
  if (host < 0 || host > 1)
    throw std::out_of_range("crash_host: host must be 0 (sender) or 1 "
                            "(receiver)");
  if (!running_ || transfer_failed_) return;  // nothing left to crash
  if (crashed_) return;  // host already down; overlapping crash absorbed
  if (ff_) ff_->disarm();
  crashed_ = true;
  crash_t0_ = eng_.now();
  ++host_crashes;
  crashed_streams_.clear();
  if (auto* au = check::of(eng_)) au->rftp_crash(this, host);
  obs_.report(eng_, kCrash, crash_,
              {.arg = static_cast<std::uint64_t>(host),
               .event = host == 0 ? "sender-crash" : "receiver-crash"});

  // Every stream dies at once. Zero the live count FIRST so the requeue
  // sweep parks blocks in the shared queue without respawning fillers
  // into the rubble — restart_host re-arms the pipelines later.
  alive_streams_ = 0;
  for (auto& sp : streams_) {
    Stream& s = *sp;
    if (s.dead) continue;  // already failed over before the crash
    s.dead = true;
    crashed_streams_.push_back(s.id);
    s.pair->crash(host);
    // Reassign everything this stream owed, in ascending block order so
    // same-seed runs replay byte-identically (see handle_stream_death).
    s.inflight.for_each_sorted(
        [&](std::uint64_t, const Stream::InflightBlock& blk) {
          s.send_pool->release(blk.buf);
          requeue_block(blk.block_idx);
        });
    s.inflight.clear();
    s.sent_unconfirmed.for_each_sorted(
        [&](std::uint64_t idx, char) { requeue_block(idx); });
    s.sent_unconfirmed.clear();
    if (host == 1) {
      // A rebooted receiver has no parsed-but-undrained arrivals and no
      // landed payloads: drop the queue (their blocks are covered by the
      // sweeps above) and scrub the landing buffers.
      while (s.drainq->try_recv().has_value()) {}
      for (mem::Buffer* b : s.token_buffers) b->content_tag = 0;
    }
    // Close (never replace yet — a parked waiter still references these
    // channel objects until the close wakes it at this instant) so every
    // filler, wire sender and drainer drains out and exits.
    s.credits->close();
    s.sendq->close();
    s.drainq->close();
  }

  if (host == 1) {
    // Volatile acks die with the receiver: it reboots knowing only its
    // durable ledger (a subset of drained_), so every drained block the
    // ledger had not yet checkpointed un-drains and is owed again, in
    // ascending block order.
    const sim::RunSet before = std::exchange(drained_, ledger_);
    before.for_each_difference(ledger_, [&](std::uint64_t lo,
                                            std::uint64_t hi) {
      for (std::uint64_t idx = lo; idx < hi; ++idx) {
        const std::uint64_t offset = idx * cfg_.block_bytes;
        const std::uint64_t bytes =
            std::min<std::uint64_t>(cfg_.block_bytes, total_bytes_ - offset);
        const std::uint64_t tag = fault::rftp_block_tag(idx, bytes);
        delivered_bytes_ -= bytes;
        sink_digest_ ^= tag;
        --blocks_done_;
        ++rolled_back_blocks;
        done_->add(1);
        if (auto* au = check::of(eng_))
          au->rftp_rollback(this, idx, bytes, tag);
        obs_.report(eng_, kRolledBack, rolled_back_);
        requeue_block(idx);
      }
    });
    unledgered_.clear();  // every pending block just rolled back
  }

  if (down > 0) {
    std::weak_ptr<char> alive = alive_token_;
    eng_.schedule_after(down, [this, host, alive] {
      if (alive.expired()) return;  // session gone before the reboot
      sim::co_spawn(restart_host(host));
    });
  } else if (cfg_.watchdog.quiet == 0) {
    // Unrecoverable crash with no watchdog to notice it: degrade to a
    // failed transfer immediately rather than hanging run() forever.
    fail_transfer();
  }
}

sim::Task<> RftpSession::restart_host(int host) {
  if (!running_ || transfer_failed_) co_return;
  obs_.report(eng_, kRestart, restart_);
  for (const int id : crashed_streams_) {
    Stream& s = *streams_[static_cast<std::size_t>(id)];
    // Fresh channels: the old ones were closed at crash time, strictly
    // earlier in sim time, so no coroutine still references them.
    s.credits = std::make_unique<sim::Channel<Credit>>(eng_);
    s.sendq = std::make_unique<sim::Channel<FilledBlock>>(eng_);
    s.drainq = std::make_unique<sim::Channel<Arrival>>(eng_);

    rdma::Device& snic = s.pair->a().device();
    rdma::Device& rnic = s.pair->b().device();
    numa::Thread& sth = spawn(*sender_.proc, snic);
    numa::Thread& rth = spawn(*receiver_.proc, rnic);
    // The rebooted side lost its memory registrations: re-pin its pool.
    const std::uint64_t mr_a =
        host == 0 ? s.send_pool->capacity() * s.send_pool->buffer_bytes()
                  : 0;
    const std::uint64_t mr_b =
        host == 1 ? s.recv_pool->capacity() * s.recv_pool->buffer_bytes()
                  : 0;
    co_await s.pair->reestablish(sth, rth, mr_a, mr_b);

    // A crash can land inside run()'s sequential setup loop, killing a
    // stream setup_stream() had not reached yet: that stream owns no
    // registrations and never advertised its credit tokens. Reestablish
    // charged the MR re-pin above, so completing the bring-up here is
    // idempotent for streams that were set up normally.
    s.send_pool->mark_registered();
    s.recv_pool->mark_registered();
    s.tiny_tx.registered = true;
    s.tiny_rx.registered = true;
    if (s.token_buffers.empty())
      while (mem::Buffer* b = s.recv_pool->try_acquire())
        s.token_buffers.push_back(b);
    // Scrub landing buffers from the dead epoch. A write that landed just
    // before the crash but whose arrival died with the closed drainq left
    // its tag behind (delivery XOR-accumulates into content_tag, only a
    // drain zeroes it); the block itself was requeued from
    // sent_unconfirmed, so the residue is dead state that would corrupt
    // the next landing in this buffer.
    for (mem::Buffer* b : s.token_buffers) b->content_tag = 0;

    for (int i = 0; i < cfg_.credits_per_stream + 4; ++i) {
      co_await s.pair->a().post_recv(sth, rdma::RecvWr{0, &s.tiny_tx});
      co_await s.pair->b().post_recv(rth, rdma::RecvWr{0, &s.tiny_rx});
    }

    // Resume-offset negotiation: the receiver replays its durable ledger
    // so the sender never re-sends an acked block; one control message
    // each way on the reestablished connection.
    co_await rth.compute(rth.host().costs().rftp_control_msg_cycles,
                         metrics::CpuCategory::kUserProto);
    co_await sth.compute(sth.host().costs().rftp_control_msg_cycles,
                         metrics::CpuCategory::kUserProto);
    co_await sim::Delay{eng_, s.pair->link().rtt()};
    ++control_msgs_;

    if (auto* au = check::of(eng_)) au->rftp_stream_revived(this, s.id);
    // New login generation: credits from before the crash — including
    // grant completions still unreaped in a surviving sender's recv CQ —
    // are stale from this instant and the grant receiver drops them.
    ++s.login_gen;
    // Re-login returns every credit token home: re-grant them all.
    if (s.latest_grant.size() < s.token_buffers.size())
      s.latest_grant.resize(s.token_buffers.size(), 0);
    for (std::uint32_t t = 0; t < s.token_buffers.size(); ++t) {
      if (auto* au = check::of(eng_)) au->rftp_grant_sent(this, s.id, t);
      rdma::SendWr wr;
      wr.op = rdma::Opcode::kSend;
      wr.wr_id = grant_wr_id(t);
      s.latest_grant[t] = wr.wr_id;
      wr.local = &s.tiny_rx;
      wr.bytes = static_cast<std::uint64_t>(
          rth.host().costs().rftp_control_msg_bytes);
      wr.payload = mem::make_msg<GrantMsg>(GrantMsg{t, s.login_gen});
      co_await s.pair->b().post_send(rth, wr);
    }

    s.dead = false;
    ++alive_streams_;

    // Respawn only the tasks that exited with the closed channels. The
    // CQ-driven loops (send reaper, grant receiver, arrival handler,
    // grant reaper) parked on completion waits across the outage and are
    // still running; a second copy would double-process completions. The
    // exception is a stream the crash caught before run()'s spawn loop:
    // its CQ loops never started, so arm them here.
    if (!s.cq_spawned) {
      s.cq_spawned = true;
      sim::co_spawn(send_reaper(s, spawn(*sender_.proc, snic)));
      sim::co_spawn(grant_receiver(s, spawn(*sender_.proc, snic)));
      sim::co_spawn(arrival_handler(s, spawn(*receiver_.proc, rnic)));
      sim::co_spawn(grant_reaper(s, spawn(*receiver_.proc, rnic)));
    }
    s.active_fillers = kFillersPerStream;
    for (int i = 0; i < kFillersPerStream; ++i)
      sim::co_spawn(filler(s, spawn(*sender_.proc, snic), *src_));
    sim::co_spawn(wire_sender(s, spawn(*sender_.proc, snic)));
    for (int i = 0; i < kDrainersPerStream; ++i)
      sim::co_spawn(drainer(s, spawn(*receiver_.proc, rnic), *dst_, meter_));
  }
  crashed_streams_.clear();
  crashed_ = false;
  ++resumes;
  resume_pending_ = true;
  watchdog_.kick();
  if (auto* au = check::of(eng_)) au->rftp_resume(this);
  const sim::SimDuration mttr = eng_.now() - crash_t0_;
  obs_.report(eng_, kResume, resume_,
              {.arg = static_cast<std::uint64_t>(mttr)});
  obs_.span(eng_, kMttr, mttr_, crash_t0_);
}

void RftpSession::on_watchdog_dead() {
  if (!running_ || transfer_failed_) return;
  obs_.report(eng_, kWatchdogDead, watchdog_dead_);
  fail_transfer();
}

void RftpSession::fail_transfer() {
  if (transfer_failed_) return;
  transfer_failed_ = true;
  // Every stream is gone: recovery has escalated to terminal, so the
  // report dumps the flight window while the lead-up is still in the ring.
  obs_.report(eng_, kTransferFailed, failed_);
  // Release run(): undelivered blocks are never coming.
  while (done_ != nullptr && done_->pending() > 0) done_->done();
}

}  // namespace e2e::rftp
