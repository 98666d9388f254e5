// KV scenario implementation on exp::PairFleet. Per pair: a sharded store
// behind an rpc server, its client, and (in read mode) one READ connection
// per closed-loop worker. Across pairs: a ring of rpc connections, client i
// into server (i+1)%P. Registration and every connection are established
// in exact global order before the parallel closed loop; latency
// histograms are folded across pairs afterwards.
#include "exp/kv_scenario.hpp"

#include <algorithm>
#include <memory>
#include <sstream>
#include <stdexcept>

#include "apps/kv.hpp"
#include "exp/pair_fleet.hpp"
#include "fault/injector.hpp"
#include "rdma/cm.hpp"
#include "rpc/rpc.hpp"
#include "stats/histogram.hpp"

namespace e2e::exp {

namespace {

/// One kv pair's scenario state (host a = client, host b = server). Member
/// order is destruction-safe: rpc endpoints (whose channels live on the
/// engine) tear down before the connections they use.
struct KvRig final : PairFleet::Rig {
  sim::Engine* eng = nullptr;
  std::unique_ptr<rdma::ProtectionDomain> pd_a, pd_b;

  numa::Thread* c_post = nullptr;  // client post/reap
  numa::Thread* c_reap = nullptr;
  numa::Thread* s_post = nullptr;  // server post/reap
  numa::Thread* s_reap = nullptr;
  numa::Thread* c_rec = nullptr;  // fault-recovery handshake threads
  numa::Thread* s_rec = nullptr;

  mem::Buffer client_ring{}, server_ring{};
  std::unique_ptr<apps::KvStore> store;
  std::unique_ptr<apps::KvHandler> handler;
  std::unique_ptr<rdma::ConnectedPair> cp;  // rpc plane
  std::unique_ptr<rpc::RpcClient> client;
  std::unique_ptr<rpc::RpcServer> server;

  // One-sided GET plane: one QP per closed-loop worker, so each worker's
  // send CQ carries only its own READ completions.
  std::vector<std::unique_ptr<rdma::ConnectedPair>> read_cps;
  std::vector<numa::Thread*> read_th;
  mem::Buffer read_local{};

  // Cross-shard ring rpc: this rig's client into the next rig's server.
  // The b-side endpoint (ring_server) is built from the *next* rig's
  // process/threads/buffer, mirroring fleet's ring ownership.
  rdma::ConnectedPair* ring_cp = nullptr;  // owned by the fleet
  numa::Thread* ring_c_post = nullptr;
  numa::Thread* ring_c_reap = nullptr;
  numa::Thread* ring_s_post = nullptr;  // spawned from next->pb
  numa::Thread* ring_s_reap = nullptr;
  mem::Buffer ring_client_ring{}, ring_server_ring{};
  std::unique_ptr<rpc::RpcClient> ring_client;
  std::unique_ptr<rpc::RpcServer> ring_server;

  // Workload state.
  std::unique_ptr<sim::Rng> rng;
  const apps::Zipf* zipf = nullptr;  // shared by every pair, read-only
  std::uint64_t next_op = 0;  // shared closed-loop op counter
  std::uint64_t ops_done = 0, gets = 0, puts = 0, remote_ops = 0;
  std::uint64_t failed = 0;
  int workers_live = 0;
  stats::Histogram get_lat, put_lat;
  sim::SimTime t_start = 0;
  sim::SimTime last_done = 0;
  bool established = false;
  bool ring_established = false;

  // A qp kill drops the rpc plane into its error epoch; client retry
  // timers carry the calls across the outage while one recovery coroutine
  // re-establishes.
  void attach(fault::FaultInjector& inj) override;
  void drop_ring() noexcept override {
    ring_client.reset();
    ring_server.reset();
  }
};

sim::Task<> kv_establish(KvRig* rig) {
  co_await rig->pd_a->register_buffer(*rig->c_post, rig->client_ring);
  co_await rig->pd_b->register_buffer(*rig->s_post, rig->server_ring);
  co_await rig->store->register_all(*rig->pd_b, *rig->s_post);
  co_await rig->cp->establish(*rig->c_post, *rig->s_post);
  co_await rig->client->start();
  co_await rig->server->start();
  if (!rig->read_cps.empty()) {
    co_await rig->pd_a->register_buffer(*rig->c_post, rig->read_local);
    for (std::size_t w = 0; w < rig->read_cps.size(); ++w)
      co_await rig->read_cps[w]->establish(*rig->read_th[w], *rig->s_post);
  }
  rig->established = true;
}

sim::Task<> kv_ring_establish(KvRig* rig, KvRig* next) {
  co_await rig->pd_a->register_buffer(*rig->ring_c_post,
                                      rig->ring_client_ring);
  co_await next->pd_b->register_buffer(*rig->ring_s_post,
                                       rig->ring_server_ring);
  co_await rig->ring_cp->establish(*rig->ring_c_post, *rig->ring_s_post);
  co_await rig->ring_client->start();
  co_await rig->ring_server->start();
  rig->ring_established = true;
}

sim::Task<> kv_recover(KvRig* rig) {
  co_await rig->cp->reestablish(*rig->c_rec, *rig->s_rec);
}

void KvRig::attach(fault::FaultInjector& inj) {
  inj.set_qp_kill_handler([this](int) {
    cp->kill();
    sim::co_spawn(kv_recover(this));
  });
}

/// One-sided GET: READ the index entry, then the value, from the shard's
/// registered regions. Retries ride out link-fault completions.
sim::Task<bool> kv_read_get(KvRig* rig, std::uint64_t key, int w) {
  rdma::QueuePair& qp = rig->read_cps[static_cast<std::size_t>(w)]->a();
  numa::Thread& th = *rig->read_th[static_cast<std::size_t>(w)];
  apps::KvStore::Shard& sh = rig->store->shard(rig->store->shard_of(key));
  for (int attempt = 0; attempt < 64; ++attempt) {
    if (attempt > 0) co_await sim::Delay{*rig->eng, sim::kMillisecond};
    rdma::SendWr wr;
    wr.op = rdma::Opcode::kRead;
    wr.wr_id = key;
    wr.local = &rig->read_local;
    wr.bytes = apps::KvStore::kIndexEntryBytes;
    wr.remote = rdma::RemoteKey{&sh.index};
    co_await qp.post_send(th, wr);
    auto wc = co_await qp.send_cq().wait(th);
    if (!wc.success) continue;
    wr.bytes = rig->store->value_bytes();
    wr.remote = rdma::RemoteKey{&sh.values};
    co_await qp.post_send(th, wr);
    wc = co_await qp.send_cq().wait(th);
    if (wc.success) co_return true;
  }
  co_return false;
}

sim::Task<bool> kv_rpc_op(rpc::RpcClient* cl, bool put, std::uint64_t key,
                          std::uint64_t value_bytes) {
  apps::KvMsg m;
  m.op = put ? apps::KvMsg::Op::kPut : apps::KvMsg::Op::kGet;
  m.key = key;
  m.value_bytes = put ? value_bytes : 0;
  const std::uint64_t req_bytes =
      apps::kKvHeaderBytes + (put ? value_bytes : 0);
  auto rep = co_await cl->call(req_bytes, mem::make_msg<apps::KvMsg>(m));
  co_return rep.ok;
}

sim::Task<> kv_worker(KvRig* rig, const KvParams* p, int w) {
  while (rig->next_op < p->ops_per_pair) {
    const std::uint64_t op = rig->next_op++;
    const std::uint64_t key = rig->zipf->sample(*rig->rng);
    const bool put = rig->rng->chance(p->put_frac);
    const bool remote =
        rig->ring_client != nullptr && p->remote_every > 0 &&
        op % static_cast<std::uint64_t>(p->remote_every) == 0;
    const sim::SimTime t0 = rig->eng->now();
    bool ok;
    if (!put && p->get_via_read && !remote) {
      ok = co_await kv_read_get(rig, key, w);
    } else {
      rpc::RpcClient* cl = remote ? rig->ring_client.get() : rig->client.get();
      ok = co_await kv_rpc_op(cl, put, key, p->value_bytes);
    }
    const sim::SimTime now = rig->eng->now();
    (put ? rig->put_lat : rig->get_lat)
        .record(static_cast<std::uint64_t>(now - t0));
    rig->last_done = std::max(rig->last_done, now);
    ++rig->ops_done;
    if (put)
      ++rig->puts;
    else
      ++rig->gets;
    if (remote) ++rig->remote_ops;
    if (!ok) ++rig->failed;
  }
  --rig->workers_live;
}

}  // namespace

KvResult run_kv(const KvParams& p) {
  if (p.depth < 1) throw std::invalid_argument("kv: depth must be >= 1");
  if (p.ops_per_pair < 1)
    throw std::invalid_argument("kv: ops must be >= 1");
  if (p.put_frac < 0.0 || p.put_frac > 1.0)
    throw std::invalid_argument("kv: put_frac must be in [0, 1]");
  if (p.remote_every < 0)
    throw std::invalid_argument("kv: remote_every must be >= 0");

  const rpc::RpcConfig cfg = [&] {
    rpc::RpcConfig c;
    c.window = static_cast<std::size_t>(p.depth);
    c.recv_ring = std::max<std::size_t>(64, 2 * c.window);
    return c;
  }();
  const std::uint64_t max_msg = apps::kKvHeaderBytes + p.value_bytes;

  const PairFleet::Config fc{
      .pairs = p.pairs, .shards = p.shards, .stats = p.stats,
      .trace = p.trace, .audit = p.audit, .fault_seed = p.fault_seed,
      .chaos = {.links = 1, .qps = 1, .qp_kills = 2},
      .tag = "kv", .names = {"-c", "-s", "-rack", "-cli", "-srv"},
      .ring_tag = "kvring", .link = &net::make_roce_rack};
  // One popularity table for every pair: sampling only reads it (each
  // pair draws from its own Rng), so shards on other threads share it.
  const apps::Zipf zipf(p.keys, p.zipf_theta);
  std::vector<KvRig*> rigs;
  PairFleet fleet(fc, [&](int i, sim::Engine& eng, HostPair& hp) {
    auto rig = std::make_unique<KvRig>();
    rig->eng = &eng;
    rig->pd_a = std::make_unique<rdma::ProtectionDomain>(hp.a);
    rig->pd_b = std::make_unique<rdma::ProtectionDomain>(hp.b);

    rig->c_post = &hp.pa.spawn_thread(hp.da.node());
    rig->c_reap = &hp.pa.spawn_thread(hp.da.node());
    rig->s_post = &hp.pb.spawn_thread(hp.db.node());
    rig->s_reap = &hp.pb.spawn_thread(hp.db.node());
    rig->c_rec = &hp.pa.spawn_thread(hp.da.node());
    rig->s_rec = &hp.pb.spawn_thread(hp.db.node());

    rig->client_ring.bytes = max_msg;
    rig->client_ring.placement = hp.pa.alloc(max_msg, hp.da.node());
    rig->server_ring.bytes = max_msg;
    rig->server_ring.placement = hp.pb.alloc(max_msg, hp.db.node());

    rig->store = std::make_unique<apps::KvStore>(hp.pb, p.keys,
                                                 p.value_bytes,
                                                 p.store_shards);
    rig->handler =
        std::make_unique<apps::KvHandler>(*rig->store, rig->server_ring);
    rig->cp = std::make_unique<rdma::ConnectedPair>(hp.da, hp.db, *hp.link);
    rig->client = std::make_unique<rpc::RpcClient>(
        rig->cp->a(), *rig->c_post, *rig->c_reap, rig->client_ring, cfg);
    rig->server = std::make_unique<rpc::RpcServer>(
        rig->cp->b(), *rig->s_post, *rig->s_reap, rig->server_ring,
        *rig->handler, cfg);

    if (p.get_via_read) {
      rig->read_local.bytes =
          std::max<std::uint64_t>(p.value_bytes,
                                  apps::KvStore::kIndexEntryBytes);
      rig->read_local.placement =
          hp.pa.alloc(rig->read_local.bytes, hp.da.node());
      for (int w = 0; w < p.depth; ++w) {
        rig->read_th.push_back(&hp.pa.spawn_thread(hp.da.node()));
        rig->read_cps.push_back(
            std::make_unique<rdma::ConnectedPair>(hp.da, hp.db, *hp.link));
      }
    }

    rig->rng = std::make_unique<sim::Rng>(
        p.seed + 0x9E3779B97F4A7C15ull * static_cast<std::uint64_t>(i + 1));
    rig->zipf = &zipf;
    rigs.push_back(rig.get());
    return rig;
  });

  // Cross-shard rpc ring: pair i's client calls into pair (i+1)%P's
  // server. Needs at least two pairs to form a seam.
  const int P = p.pairs;
  const bool ring_on = P > 1 && p.remote_every > 0;
  if (ring_on) {
    fleet.link_ring([&](int i, HostPair& self, HostPair& next,
                        rdma::ConnectedPair& cp) {
      KvRig& rig = *rigs[static_cast<std::size_t>(i)];
      const KvRig& next_rig = *rigs[static_cast<std::size_t>((i + 1) % P)];
      rig.ring_cp = &cp;
      rig.ring_c_post = &self.pa.spawn_thread(self.da.node());
      rig.ring_c_reap = &self.pa.spawn_thread(self.da.node());
      rig.ring_s_post = &next.pb.spawn_thread(next.db.node());
      rig.ring_s_reap = &next.pb.spawn_thread(next.db.node());
      rig.ring_client_ring.bytes = max_msg;
      rig.ring_client_ring.placement = self.pa.alloc(max_msg, self.da.node());
      rig.ring_server_ring.bytes = max_msg;
      rig.ring_server_ring.placement = next.pb.alloc(max_msg, next.db.node());
      rig.ring_client = std::make_unique<rpc::RpcClient>(
          cp.a(), *rig.ring_c_post, *rig.ring_c_reap, rig.ring_client_ring,
          cfg);
      rig.ring_server = std::make_unique<rpc::RpcServer>(
          cp.b(), *rig.ring_s_post, *rig.ring_s_reap, rig.ring_server_ring,
          *next_rig.handler, cfg);
    });
  }

  // Registration + establishment, exact global sequential order (ring
  // handshakes and ring-server ring posts hop between shards).
  for (KvRig* rig : rigs) sim::co_spawn(kv_establish(rig));
  if (ring_on) {
    for (int i = 0; i < P; ++i)
      sim::co_spawn(kv_ring_establish(
          rigs[static_cast<std::size_t>(i)],
          rigs[static_cast<std::size_t>((i + 1) % P)]));
  }
  fleet.establish([&](int i) {
    const KvRig& rig = *rigs[static_cast<std::size_t>(i)];
    return rig.established && (!ring_on || rig.ring_established);
  });

  // The parallel closed loop. Spawn order is pair order.
  for (KvRig* rig : rigs) {
    rig->t_start = rig->eng->now();
    rig->workers_live = p.depth;
    for (int w = 0; w < p.depth; ++w)
      sim::co_spawn(kv_worker(rig, &p, w));
  }
  const PairFleet::RunStats run = fleet.run();
  PairFleet::Merged merged = fleet.finish();

  KvResult out;
  out.wall_seconds = run.wall_seconds;
  out.sim_events = run.events;
  out.windows = run.windows;
  out.cross_posts = run.cross_posts;
  out.audit_ok = merged.audit_ok;
  out.audit_violations = merged.audit_violations;
  // Per-endpoint batching counters, every endpoint (ring included).
  const auto add_batching = [&out](const auto& ep) {
    out.doorbells += ep.doorbells();
    out.doorbell_wrs += ep.doorbell_wrs();
    out.poll_batches += ep.poll_batches();
    out.poll_cqes += ep.poll_cqes();
  };
  stats::Histogram get_lat, put_lat;
  for (const KvRig* rig : rigs) {
    out.complete = out.complete && rig->workers_live == 0 &&
                   rig->ops_done == p.ops_per_pair;
    if (p.fault_seed == 0) out.complete = out.complete && rig->failed == 0;
    out.ops_done += rig->ops_done;
    out.gets += rig->gets;
    out.puts += rig->puts;
    out.remote_ops += rig->remote_ops;
    out.failed_ops += rig->failed;
    out.rpc_retries += rig->client->retries();
    out.stale_responses += rig->client->stale_responses();
    out.calls_served += rig->handler->gets() + rig->handler->puts();
    out.clamped_schedules += rig->eng->clamped_schedules();
    out.closure_events += rig->eng->closure_events();
    add_batching(*rig->client);
    add_batching(*rig->server);
    if (rig->ring_client) {
      out.rpc_retries += rig->ring_client->retries();
      out.stale_responses += rig->ring_client->stale_responses();
      add_batching(*rig->ring_client);
      add_batching(*rig->ring_server);
    }
    get_lat.merge(rig->get_lat);
    put_lat.merge(rig->put_lat);
    const sim::SimTime span = rig->last_done - rig->t_start;
    const double mops =
        span > 0 ? static_cast<double>(rig->ops_done) * 1e3 /
                       static_cast<double>(span)
                 : 0.0;
    out.pair_mops.push_back(mops);
    out.aggregate_mops += mops;
  }
  if (out.gets > 0) {
    out.get_p50_ns = get_lat.p50();
    out.get_p99_ns = get_lat.p99();
    out.get_p999_ns = get_lat.p999();
  }
  if (out.puts > 0) {
    out.put_p50_ns = put_lat.p50();
    out.put_p99_ns = put_lat.p99();
    out.put_p999_ns = put_lat.p999();
  }

  // Deterministic fingerprint: every output except wall_seconds.
  std::ostringstream dg;
  dg << "kv-v1 pairs=" << P << " keys=" << p.keys
     << " ops=" << p.ops_per_pair << " value=" << p.value_bytes
     << " depth=" << p.depth << " mode=" << (p.get_via_read ? "read" : "rpc")
     << " store_shards=" << p.store_shards << " seed=" << p.seed
     << " fseed=" << p.fault_seed << " complete=" << out.complete
     << " audit_viol=" << out.audit_violations << " gets=" << out.gets
     << " puts=" << out.puts << " remote=" << out.remote_ops
     << " failed=" << out.failed_ops << " retries=" << out.rpc_retries
     << " stale=" << out.stale_responses << " served=" << out.calls_served
     << " doorbells=" << out.doorbells << "/" << out.doorbell_wrs
     << " polls=" << out.poll_batches << "/" << out.poll_cqes
     << " events=" << out.sim_events << " windows=" << out.windows
     << " cross=" << out.cross_posts << " t=" << fleet.clocks()
     << " mops=" << PairFleet::g9(out.pair_mops) << " get_ns=["
     << out.get_p50_ns << "," << out.get_p99_ns << "," << out.get_p999_ns
     << "] put_ns=[" << out.put_p50_ns << "," << out.put_p99_ns << ","
     << out.put_p999_ns << "]" << fleet.hashes(merged);
  out.digest = dg.str();
  out.stats_json = std::move(merged.stats_json);
  out.trace_json = std::move(merged.trace_json);
  return out;
}

}  // namespace e2e::exp
