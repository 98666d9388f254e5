#include "apps/gridftp.hpp"

#include <algorithm>
#include <memory>
#include <vector>

#include "numa/process.hpp"
#include "sim/sync.hpp"
#include "sim/task.hpp"

namespace e2e::apps {

namespace {

struct ProcCtx {
  tcp::Connection* conn = nullptr;
  numa::Thread* th = nullptr;
  numa::Placement buf;
  GridFtpEndpoint ep;
  std::uint64_t begin = 0;
  std::uint64_t end = 0;
  std::uint64_t chunk = 0;
  bool direct = false;
};

/// The sender process's single thread: read a chunk, then send it — the
/// network is idle during the read and the disk idle during the send.
sim::Task<> sender_proc(ProcCtx c, sim::WaitGroup* wg) {
  std::uint64_t off = c.begin;
  while (off < c.end) {
    const std::uint64_t n = std::min(c.chunk, c.end - off);
    co_await c.ep.fs->read(*c.th, *c.ep.file, off, n, c.buf, c.direct,
                           metrics::CpuCategory::kLoad);
    co_await c.conn->send(*c.th, c.buf, n);
    off += n;
  }
  c.conn->shutdown(*c.th);
  wg->done();
}

sim::Task<> receiver_proc(ProcCtx c, metrics::ThroughputMeter* meter,
                          sim::WaitGroup* wg) {
  std::uint64_t off = c.begin;
  for (;;) {
    const std::uint64_t n = co_await c.conn->recv(*c.th, c.buf);
    if (n == 0) break;
    co_await c.ep.fs->write(*c.th, *c.ep.file, off, n, c.buf, c.direct,
                            metrics::CpuCategory::kOffload);
    if (meter != nullptr) meter->record(n);
    off += n;
  }
  wg->done();
}

}  // namespace

sim::Task<rftp::TransferResult> gridftp_transfer(
    GridFtpEndpoint src, GridFtpEndpoint dst,
    const std::vector<GridFtpLink>& links, std::uint64_t total_bytes,
    GridFtpConfig cfg, metrics::ThroughputMeter* meter) {
  auto& eng = src.host->engine();
  const sim::SimTime t0 = eng.now();

  // One single-threaded process per parallel transfer, numactl-bound to
  // its link's NIC node (the paper binds both apps for fairness).
  std::vector<std::unique_ptr<numa::Process>> procs;
  std::vector<std::unique_ptr<tcp::Connection>> conns;
  sim::WaitGroup wg(eng);

  const std::uint64_t share =
      (total_bytes + cfg.processes - 1) / cfg.processes;
  for (int p = 0; p < cfg.processes; ++p) {
    const GridFtpLink& l = links[static_cast<std::size_t>(p) % links.size()];
    procs.push_back(std::make_unique<numa::Process>(
        *src.host, "gridftp-s" + std::to_string(p),
        numa::NumaBinding::bound(l.node_src)));
    numa::Process& ps = *procs.back();
    procs.push_back(std::make_unique<numa::Process>(
        *dst.host, "gridftp-r" + std::to_string(p),
        numa::NumaBinding::bound(l.node_dst)));
    numa::Process& pr = *procs.back();

    conns.push_back(std::make_unique<tcp::Connection>(
        *src.host, l.node_src, *dst.host, l.node_dst, *l.link));
    tcp::Connection* conn = conns.back().get();

    ProcCtx cs{};
    cs.conn = conn;
    cs.th = &ps.spawn_thread();
    cs.buf = ps.alloc(cfg.chunk_bytes, cs.th->node());
    cs.ep = src;
    cs.begin = std::min<std::uint64_t>(p * share, total_bytes);
    cs.end = std::min<std::uint64_t>(cs.begin + share, total_bytes);
    cs.chunk = cfg.chunk_bytes;
    cs.direct = cfg.direct_io;

    ProcCtx cr = cs;
    cr.th = &pr.spawn_thread();
    cr.buf = pr.alloc(cfg.chunk_bytes, cr.th->node());
    cr.ep = dst;

    co_await conn->connect(*cs.th);
    wg.add(2);
    sim::co_spawn(sender_proc(cs, &wg));
    sim::co_spawn(receiver_proc(cr, meter, &wg));
  }

  co_await wg.wait();

  rftp::TransferResult r;
  r.bytes = total_bytes;
  r.blocks = (total_bytes + cfg.chunk_bytes - 1) / cfg.chunk_bytes;
  r.elapsed_s = sim::to_seconds(eng.now() - t0);
  r.goodput_gbps =
      r.elapsed_s > 0
          ? static_cast<double>(total_bytes) * 8.0 / r.elapsed_s / 1e9
          : 0.0;
  co_return r;
}

}  // namespace e2e::apps
