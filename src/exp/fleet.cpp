// Fleet scenario implementation on exp::PairFleet. Per pair: one RFTP
// session over the intra-pair link. Across pairs: a ring of background
// RDMA Writes, whose connections are established in exact global order
// before the parallel run.
#include "exp/fleet.hpp"

#include <memory>
#include <sstream>
#include <stdexcept>

#include "exp/pair_fleet.hpp"
#include "rdma/cm.hpp"
#include "rftp/rftp.hpp"

namespace e2e::exp {

namespace {

/// Requester-side state for one cross-shard background flow: this pair's
/// sender host writes into the next pair's receiver host over a two-engine
/// link, so the cluster's outbox/merge path carries real RDMA traffic.
struct RingState {
  rdma::ConnectedPair* cp = nullptr;
  numa::Thread* post_th = nullptr;
  numa::Thread* reap_th = nullptr;
  mem::Buffer local{};
  mem::Buffer remote{};  // storage in the next pair's receiver process
  std::unique_ptr<sim::Semaphore> window;
  std::uint64_t messages = 0, bytes = 0, completed = 0;
  bool established = false;
};

/// One fleet pair's scenario state: its transfer and its ring flow.
struct PairRig final : PairFleet::Rig {
  std::unique_ptr<rftp::RftpSession> sess;
  std::unique_ptr<rftp::MemorySource> src;
  std::unique_ptr<rftp::MemorySink> sink;
  RingState ring;
  rftp::TransferResult res{};
  bool done = false;

  void on_qp_kill(int qp) override {
    sess->kill_stream(qp % sess->config().streams);
  }
  void on_crash(int host, sim::SimDuration down) override {
    sess->crash_host(host, down);
  }
};

sim::Task<> fleet_establish(PairRig* rig, numa::Thread* tb) {
  co_await rig->ring.cp->establish(*rig->ring.post_th, *tb);
  rig->ring.established = true;
}

sim::Task<> fleet_ring_poster(RingState* st) {
  for (std::uint64_t i = 0; i < st->messages; ++i) {
    co_await st->window->acquire();
    rdma::SendWr wr;
    wr.wr_id = i;
    wr.op = rdma::Opcode::kWrite;
    wr.local = &st->local;
    wr.remote = rdma::RemoteKey{&st->remote};
    wr.bytes = st->bytes;
    co_await st->cp->a().post_send(*st->post_th, wr);
  }
}

sim::Task<> fleet_ring_reaper(RingState* st) {
  for (std::uint64_t i = 0; i < st->messages; ++i) {
    auto wc = co_await st->cp->a().send_cq().wait(*st->reap_th);
    if (!wc.success)
      throw std::runtime_error("fleet: ring write completion failed");
    ++st->completed;
    st->window->release();
  }
}

sim::Task<> fleet_transfer(PairRig* rig, std::uint64_t bytes) {
  rig->res = co_await rig->sess->run(*rig->src, *rig->sink, bytes);
  rig->done = true;
}

}  // namespace

FleetResult run_fleet(const FleetParams& p) {
  const PairFleet::Config fc{
      .pairs = p.pairs, .shards = p.shards, .stats = p.stats,
      .trace = p.trace, .audit = p.audit, .fault_seed = p.fault_seed,
      .chaos = {.links = 1, .qps = p.streams, .hosts = 2, .crashes = 1},
      .tag = "p", .names = {"-a", "-b", "-lan", "-send", "-recv"},
      .ring_tag = "ring", .link = &net::make_roce_lan};
  std::vector<PairRig*> rigs;
  PairFleet fleet(fc, [&](int, sim::Engine&, HostPair& hp) {
    auto rig = std::make_unique<PairRig>();
    rftp::RftpConfig cfg;
    cfg.block_bytes = p.block_bytes;
    cfg.streams = p.streams;
    cfg.credits_per_stream = p.credits;
    cfg.checkpoint_blocks = p.checkpoint_blocks;
    rig->sess = std::make_unique<rftp::RftpSession>(
        rftp::EndpointConfig{&hp.pa, {&hp.da}},
        rftp::EndpointConfig{&hp.pb, {&hp.db}},
        std::vector<net::Link*>{hp.link.get()}, cfg);
    rig->src = std::make_unique<rftp::MemorySource>(p.bytes_per_pair,
                                                    numa::Placement::on(0));
    rig->sink = std::make_unique<rftp::MemorySink>();
    rigs.push_back(rig.get());
    return rig;
  });

  // Cross-shard ring: pair i's sender host writes into pair (i+1)%P's
  // receiver host. Needs at least two pairs to form a seam.
  const int P = p.pairs;
  const bool ring_on = P > 1 && p.ring_messages > 0;
  if (ring_on) {
    fleet.link_ring([&](int i, HostPair& self, HostPair& next,
                        rdma::ConnectedPair& cp) {
      RingState& ring = rigs[static_cast<std::size_t>(i)]->ring;
      ring.cp = &cp;
      ring.post_th = &self.pa.spawn_thread(self.da.node());
      ring.reap_th = &self.pa.spawn_thread(self.da.node());
      ring.local.placement = self.pa.alloc(p.ring_msg_bytes, self.da.node());
      ring.remote.placement =
          next.pb.alloc(p.ring_msg_bytes, next.db.node());
      ring.local.registered = ring.remote.registered = true;
      ring.window = std::make_unique<sim::Semaphore>(self.a.engine(), 4);
      ring.messages = p.ring_messages;
      ring.bytes = p.ring_msg_bytes;
    });
    for (int i = 0; i < P; ++i) {
      HostPair& next = fleet.hosts((i + 1) % P);
      numa::Thread& tb = next.pb.spawn_thread(next.db.node());
      sim::co_spawn(fleet_establish(rigs[static_cast<std::size_t>(i)], &tb));
    }
    fleet.establish([&](int i) {
      return rigs[static_cast<std::size_t>(i)]->ring.established;
    });
  }

  // The parallel run. Spawn order is pair order (deterministic).
  for (PairRig* rig : rigs) {
    sim::co_spawn(fleet_transfer(rig, p.bytes_per_pair));
    if (ring_on) {
      sim::co_spawn(fleet_ring_poster(&rig->ring));
      sim::co_spawn(fleet_ring_reaper(&rig->ring));
    }
  }
  const PairFleet::RunStats run = fleet.run();
  PairFleet::Merged merged = fleet.finish();

  FleetResult out;
  out.wall_seconds = run.wall_seconds;
  out.sim_events = run.events;
  out.windows = run.windows;
  out.cross_posts = run.cross_posts;
  out.audit_ok = merged.audit_ok;
  out.audit_violations = merged.audit_violations;
  for (const PairRig* rig : rigs) {
    out.complete = out.complete && rig->done && rig->res.complete;
    out.integrity_ok = out.integrity_ok && rig->res.integrity_ok;
    out.pair_gbps.push_back(rig->res.goodput_gbps);
    out.aggregate_gbps += rig->res.goodput_gbps;
    out.ring_completed += rig->ring.completed;
  }

  // Deterministic fingerprint: every output except wall_seconds.
  std::ostringstream dg;
  dg << "fleet-v1 pairs=" << P << " bytes=" << p.bytes_per_pair
     << " seed=" << p.fault_seed << " complete=" << out.complete
     << " integrity=" << out.integrity_ok
     << " audit_viol=" << out.audit_violations
     << " ring=" << out.ring_completed << " events=" << out.sim_events
     << " windows=" << out.windows << " cross=" << out.cross_posts
     << " t=" << fleet.clocks() << " gbps=" << PairFleet::g9(out.pair_gbps)
     << fleet.hashes(merged);
  out.digest = dg.str();
  out.stats_json = std::move(merged.stats_json);
  out.trace_json = std::move(merged.trace_json);
  return out;
}

}  // namespace e2e::exp
