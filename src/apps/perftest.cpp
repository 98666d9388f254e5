#include "apps/perftest.hpp"

#include <memory>
#include <stdexcept>

#include "exp/runner.hpp"
#include "metrics/throughput.hpp"

namespace e2e::apps {

namespace {

// Messages kept posted by the bandwidth tests.
constexpr int kOutstanding = 64;

struct BwState {
  rdma::ConnectedPair* pair;
  PerftestConfig cfg;
  mem::Buffer* local;
  mem::Buffer* remote;
  sim::Semaphore* window;
  std::uint64_t completed = 0;
};

sim::Task<> bw_poster(BwState* st, numa::Thread& th) {
  for (int i = 0; i < st->cfg.iterations; ++i) {
    co_await st->window->acquire();
    rdma::SendWr wr;
    wr.wr_id = static_cast<std::uint64_t>(i);
    wr.local = st->local;
    wr.bytes = st->cfg.msg_bytes;
    switch (st->cfg.op) {
      case PerftestOp::kSend:
        wr.op = rdma::Opcode::kSend;
        break;
      case PerftestOp::kWrite:
        wr.op = rdma::Opcode::kWrite;
        wr.remote = rdma::RemoteKey{st->remote};
        break;
      case PerftestOp::kRead:
        wr.op = rdma::Opcode::kRead;
        wr.remote = rdma::RemoteKey{st->remote};
        break;
    }
    co_await st->pair->a().post_send(th, wr);
  }
}

sim::Task<> bw_reaper(BwState* st, numa::Thread& th) {
  for (int i = 0; i < st->cfg.iterations; ++i) {
    auto wc = co_await st->pair->a().send_cq().wait(th);
    if (!wc.success) throw std::runtime_error("perftest completion error");
    ++st->completed;
    st->window->release();
  }
}

sim::Task<> bw_recv_refill(BwState* st, numa::Thread& th) {
  // SEND tests need posted receives; keep the ring full and drain CQEs.
  if (st->cfg.op != PerftestOp::kSend) co_return;
  for (int i = 0; i < st->cfg.iterations; ++i) {
    auto wc = co_await st->pair->b().recv_cq().wait(th);
    (void)wc;
    co_await st->pair->b().post_recv(th, rdma::RecvWr{0, st->remote});
  }
}

}  // namespace

PerftestResult run_bw(sim::Engine& eng, rdma::ConnectedPair& pair,
                      numa::Process& client, numa::Process& server,
                      const PerftestConfig& cfg) {
  numa::Thread& post_th = client.spawn_thread(pair.a().device().node());
  numa::Thread& reap_th = client.spawn_thread(pair.a().device().node());
  numa::Thread& srv_th = server.spawn_thread(pair.b().device().node());

  mem::Buffer local, remote;
  local.bytes = remote.bytes = cfg.msg_bytes;
  local.placement = client.alloc(cfg.msg_bytes, pair.a().device().node());
  remote.placement = server.alloc(cfg.msg_bytes, pair.b().device().node());
  local.registered = remote.registered = true;

  BwState st{&pair, cfg, &local, &remote, nullptr, 0};
  sim::Semaphore window(eng, kOutstanding);
  st.window = &window;

  exp::run_task(eng, [](rdma::ConnectedPair& p, numa::Thread& th,
                        mem::Buffer* buf, int n) -> sim::Task<> {
    for (int i = 0; i < n; ++i)
      co_await p.b().post_recv(th, rdma::RecvWr{0, buf});
  }(pair, srv_th, &remote, cfg.op == PerftestOp::kSend
                               ? kOutstanding + 4
                               : 0));

  const sim::SimTime t0 = eng.now();
  sim::co_spawn(bw_poster(&st, post_th));
  sim::co_spawn(bw_recv_refill(&st, srv_th));
  exp::run_task(eng, bw_reaper(&st, reap_th));
  const sim::SimDuration w = eng.now() - t0;

  PerftestResult r;
  r.gbps = metrics::gbps(st.completed * cfg.msg_bytes, w);
  r.msgs_per_sec = static_cast<double>(st.completed) / sim::to_seconds(w);
  return r;
}

namespace {

sim::Task<> lat_server(rdma::ConnectedPair& pair, numa::Thread& th,
                       mem::Buffer* buf, int iterations) {
  for (int i = 0; i < iterations; ++i) {
    auto wc = co_await pair.b().recv_cq().wait(th);
    (void)wc;
    co_await pair.b().post_recv(th, rdma::RecvWr{0, buf});
    rdma::SendWr pong;
    pong.op = rdma::Opcode::kSend;
    pong.local = buf;
    pong.bytes = buf->bytes;
    co_await pair.b().post_send(th, pong);
  }
}

sim::Task<> lat_client(rdma::ConnectedPair& pair, numa::Thread& th,
                       mem::Buffer* buf, int iterations) {
  for (int i = 0; i < iterations; ++i) {
    rdma::SendWr ping;
    ping.op = rdma::Opcode::kSend;
    ping.local = buf;
    ping.bytes = buf->bytes;
    co_await pair.a().post_send(th, ping);
    auto wc = co_await pair.a().recv_cq().wait(th);
    (void)wc;
    co_await pair.a().post_recv(th, rdma::RecvWr{0, buf});
  }
}

}  // namespace

PerftestResult run_lat(sim::Engine& eng, rdma::ConnectedPair& pair,
                       numa::Process& client, numa::Process& server,
                       const PerftestConfig& cfg) {
  numa::Thread& cth = client.spawn_thread(pair.a().device().node());
  numa::Thread& sth = server.spawn_thread(pair.b().device().node());

  mem::Buffer cbuf, sbuf;
  cbuf.bytes = sbuf.bytes = cfg.msg_bytes;
  cbuf.placement = client.alloc(cfg.msg_bytes, pair.a().device().node());
  sbuf.placement = server.alloc(cfg.msg_bytes, pair.b().device().node());
  cbuf.registered = sbuf.registered = true;

  exp::run_task(eng, [](rdma::ConnectedPair& p, numa::Thread& ta,
                        numa::Thread& tb, mem::Buffer* a,
                        mem::Buffer* b) -> sim::Task<> {
    co_await p.a().post_recv(ta, rdma::RecvWr{0, a});
    co_await p.b().post_recv(tb, rdma::RecvWr{0, b});
  }(pair, cth, sth, &cbuf, &sbuf));

  const sim::SimTime t0 = eng.now();
  sim::co_spawn(lat_server(pair, sth, &sbuf, cfg.iterations));
  exp::run_task(eng, lat_client(pair, cth, &cbuf, cfg.iterations));
  const sim::SimDuration w = eng.now() - t0;

  PerftestResult r;
  r.avg_lat_us =
      sim::to_seconds(w) * 1e6 / (2.0 * cfg.iterations);  // half RTT
  r.msgs_per_sec = 2.0 * cfg.iterations / sim::to_seconds(w);
  r.gbps = metrics::gbps(2ull * cfg.iterations * cfg.msg_bytes, w);
  return r;
}

}  // namespace e2e::apps
