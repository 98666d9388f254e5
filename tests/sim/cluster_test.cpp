// sim::Cluster unit tests: window math, deterministic cross-shard merge
// order, the shard->worker pinning contract the thread_local pools rely
// on, worker-count independence of the executed schedule — including
// through the real RDMA cross-shard delivery paths (kWrite delivery and
// the engine-hopping kRead responder segment) — and the shard-failure
// path: which exception run() rethrows and what it leaves in the heaps.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "mem/buffer.hpp"
#include "rdma/cm.hpp"
#include "sim/cluster.hpp"
#include "sim/sync.hpp"
#include "tcp/connection.hpp"
#include "testutil.hpp"

namespace e2e {
namespace {

TEST(ClusterTest, WorkerPinningContract) {
  // frame_pool.hpp and msg_pool.hpp depend on shard k running on worker
  // k % effective_workers for the whole run; freeze that mapping.
  sim::Cluster c(2);
  sim::Engine e0, e1, e2;
  EXPECT_EQ(c.add(e0), 0);
  EXPECT_EQ(c.add(e1), 1);
  EXPECT_EQ(c.add(e2), 2);
  EXPECT_EQ(c.worker_of(0), 0);
  EXPECT_EQ(c.worker_of(1), 1);
  EXPECT_EQ(c.worker_of(2), 0);

  // More workers than shards: clamped to the shard count.
  sim::Cluster wide(8);
  sim::Engine a, b;
  wide.add(a);
  wide.add(b);
  EXPECT_EQ(wide.worker_of(0), 0);
  EXPECT_EQ(wide.worker_of(1), 1);
}

TEST(ClusterTest, EngineRanksAndBackPointers) {
  sim::Cluster c(1);
  sim::Engine e0, e1;
  c.add(e0);
  c.add(e1);
  EXPECT_EQ(e0.cluster(), &c);
  EXPECT_EQ(e1.cluster(), &c);
  EXPECT_EQ(e0.rank(), 0);
  EXPECT_EQ(e1.rank(), 1);
  // An engine outside any cluster routes cross_post as a plain schedule.
  sim::Engine lone;
  EXPECT_EQ(lone.cluster(), nullptr);
  bool ran = false;
  lone.cross_post(lone, 5, [&ran] { ran = true; });
  lone.run();
  EXPECT_TRUE(ran);
  EXPECT_EQ(lone.now(), 5u);
}

TEST(ClusterTest, EngineAndClusterMayDieInEitherOrder) {
  // Fleet rigs own their engines in containers declared around the
  // Cluster in either order; ~Engine must retire its shard slot so the
  // surviving side never touches a dead peer.
  sim::Cluster c(2);
  {
    sim::Engine doomed;
    c.add(doomed);
    doomed.schedule_at(3, [] {});
  }  // doomed destroyed before the cluster
  sim::Engine survivor;
  c.add(survivor);
  bool ran = false;
  survivor.schedule_at(5, [&ran] { ran = true; });
  c.run();  // skips the retired rank-0 slot
  EXPECT_TRUE(ran);
  EXPECT_EQ(c.events_processed(), 1u);
}

TEST(ClusterTest, RunWindowStopsAtHorizon) {
  sim::Engine eng;
  std::vector<int> ran;
  for (int t = 0; t < 5; ++t)
    eng.schedule_at(static_cast<sim::SimTime>(t * 10), [&ran, t] {
      ran.push_back(t);
    });
  // Horizon is exclusive: events strictly before 30 run.
  EXPECT_EQ(eng.run_window(30), 3u);
  EXPECT_EQ(ran, (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(eng.run_window(sim::kTimeInfinity), 2u);
  EXPECT_EQ(ran, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(ClusterTest, CrossPostsMergeInTimeSourceSeqOrder) {
  // Three shards; shards 1 and 2 each cross-post two events to shard 0 at
  // identical timestamps. The delivered order must be (t, src_rank, seq)
  // regardless of post call order — shard 2 posting "first" cannot win a
  // tie against shard 1.
  sim::Cluster c(1);
  sim::Engine e0, e1, e2;
  c.add(e0);
  c.add(e1);
  c.add(e2);
  c.note_lookahead(10);

  std::vector<std::string> order;
  auto tag = [&order](std::string s) {
    return [&order, s = std::move(s)] { order.push_back(s); };
  };
  // Shard 1 and 2 send from their t=0 events; arrival t=10 >= horizon.
  e2.schedule_at(0, [&] {
    e2.cross_post(e0, 10, tag("src2-a"));
    e2.cross_post(e0, 10, tag("src2-b"));
  });
  e1.schedule_at(0, [&] {
    e1.cross_post(e0, 10, tag("src1-a"));
    e1.cross_post(e0, 12, tag("src1-late"));
  });
  c.run();
  EXPECT_EQ(order, (std::vector<std::string>{"src1-a", "src2-a", "src2-b",
                                             "src1-late"}));
  EXPECT_EQ(c.cross_posts(), 4u);
  EXPECT_GE(c.windows(), 1u);
}

/// Ping-pong over two shards via raw cross_post: each hop reschedules the
/// other side one lookahead later. Exercises many windows.
void ping(sim::Engine& self, sim::Engine& peer, int hops_left,
          std::vector<sim::SimTime>* times) {
  times->push_back(self.now());
  if (hops_left == 0) return;
  self.cross_post(peer, self.now() + 7,
                  [&peer, &self, hops_left, times] {
                    ping(peer, self, hops_left - 1, times);
                  });
}

TEST(ClusterTest, WorkerCountDoesNotChangeSchedule) {
  // Worker 1 runs every merge as the barrier's completion on its own;
  // workers 2 and 3 run it on whichever worker arrives last. The schedule
  // and every counter must not tell them apart.
  struct Run {
    std::vector<sim::SimTime> times;
    std::uint64_t windows, cross, events;
  };
  std::vector<Run> runs;
  for (const int workers : {1, 2, 3}) {
    sim::Cluster c(workers);
    sim::Engine e0, e1;
    c.add(e0);
    c.add(e1);
    c.note_lookahead(7);
    std::vector<sim::SimTime> times;
    e0.schedule_at(0, [&] { ping(e0, e1, 40, &times); });
    c.run();
    EXPECT_EQ(times.size(), 41u);
    runs.push_back({times, c.windows(), c.cross_posts(),
                    c.events_processed()});
  }
  EXPECT_EQ(runs[0].windows, 41u);  // one hop per window
  EXPECT_EQ(runs[0].cross, 40u);
  EXPECT_EQ(runs[0].events, 41u);
  for (const Run& r : runs) {
    EXPECT_EQ(r.times, runs[0].times);
    EXPECT_EQ(r.windows, runs[0].windows);
    EXPECT_EQ(r.cross, runs[0].cross);
    EXPECT_EQ(r.events, runs[0].events);
  }
}

TEST(ClusterTest, IdleShardsRunNoWindow) {
  for (const int workers : {1, 2}) {
    sim::Cluster c(workers);
    sim::Engine e0, e1;
    c.add(e0);
    c.add(e1);
    c.note_lookahead(7);
    c.run();
    EXPECT_EQ(c.windows(), 0u);
    EXPECT_EQ(c.events_processed(), 0u);
  }
}

TEST(ClusterTest, ShardFailureStopsAfterItsWindowAndRethrowsLowestRank) {
  // Shards 1 and 2 both cross-post to shard 0 and then throw in the third
  // window ([20, 30)). run() must finish that window, run nothing after
  // it, merge the window's posts into shard 0's heap for post-mortem
  // inspection and rethrow rank 1's exception — at any worker count.
  for (const int workers : {1, 2, 3}) {
    sim::Cluster c(workers);
    sim::Engine e0, e1, e2;
    c.add(e0);
    c.add(e1);
    c.add(e2);
    c.note_lookahead(10);
    std::vector<std::string> ran;
    auto tag = [&ran](std::string s) {
      return [&ran, s = std::move(s)] { ran.push_back(s); };
    };
    e0.schedule_at(0, tag("e0@0"));
    e0.schedule_at(10, tag("e0@10"));
    e0.schedule_at(25, tag("e0@25"));  // failing window: still runs
    e0.schedule_at(30, tag("e0@30"));
    e1.schedule_at(20, [&] {
      e1.cross_post(e0, 30, tag("from1"));
      throw std::runtime_error("rank1");
    });
    e1.schedule_at(40, tag("e1@40"));
    e2.schedule_at(20, [&] {
      e2.cross_post(e0, 35, tag("from2"));
      throw std::runtime_error("rank2");
    });
    try {
      c.run();
      ADD_FAILURE() << "run() returned at workers=" << workers;
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "rank1") << "workers=" << workers;
    }
    EXPECT_EQ(ran, (std::vector<std::string>{"e0@0", "e0@10", "e0@25"}));
    EXPECT_EQ(c.windows(), 3u);  // equal at every worker count
    EXPECT_EQ(c.cross_posts(), 2u);
    EXPECT_EQ(e0.queue_depth(), 3u);  // e0@30 + from1 + from2
    EXPECT_EQ(e1.queue_depth(), 1u);
    EXPECT_EQ(e2.queue_depth(), 0u);
    // The merged posts are live events in (t, seq) order.
    e0.run();
    EXPECT_EQ(ran, (std::vector<std::string>{"e0@0", "e0@10", "e0@25",
                                             "e0@30", "from1", "from2"}));
  }
}

TEST(ClusterTest, RunSequentialInterleavesShardsInGlobalOrder) {
  sim::Cluster c(1);
  sim::Engine e0, e1;
  c.add(e0);
  c.add(e1);
  std::vector<int> order;
  e0.schedule_at(5, [&] { order.push_back(0); });
  e1.schedule_at(3, [&] { order.push_back(1); });
  e0.schedule_at(9, [&] { order.push_back(2); });
  e1.schedule_at(9, [&] { order.push_back(3); });  // tie: rank 0 first
  c.run_sequential();
  EXPECT_EQ(order, (std::vector<int>{1, 0, 2, 3}));
}

/// Full RDMA rig spanning two shards: a ConnectedPair whose endpoints live
/// on different engines, joined by a two-engine RoCE link.
struct CrossShardRig {
  sim::Cluster cluster;
  sim::Engine ea, eb;
  std::unique_ptr<numa::Host> ha, hb;
  std::unique_ptr<rdma::Device> da, db;
  std::unique_ptr<net::Link> link;
  std::unique_ptr<numa::Process> pa, pb;
  std::unique_ptr<rdma::ConnectedPair> cp;
  numa::Thread* ta = nullptr;
  numa::Thread* tb = nullptr;

  explicit CrossShardRig(int workers) : cluster(workers) {
    cluster.add(ea);
    cluster.add(eb);
    ha = std::make_unique<numa::Host>(ea, test::tiny_host("a"));
    hb = std::make_unique<numa::Host>(eb, test::tiny_host("b"));
    da = std::make_unique<rdma::Device>(*ha, ha->profile().nics[0]);
    db = std::make_unique<rdma::Device>(*hb, hb->profile().nics[0]);
    link = net::make_roce_lan(ea, eb, "seam");
    link->bind_endpoints(ha.get(), hb.get());
    cp = std::make_unique<rdma::ConnectedPair>(*da, *db, *link);
    pa = std::make_unique<numa::Process>(*ha, "a", numa::NumaBinding::bound(0));
    pb = std::make_unique<numa::Process>(*hb, "b", numa::NumaBinding::bound(0));
    ta = &pa->spawn_thread(da->node());
    tb = &pb->spawn_thread(db->node());
    bool up = false;
    sim::co_spawn([](CrossShardRig* r, bool* done) -> sim::Task<> {
      co_await r->cp->establish(*r->ta, *r->tb);
      *done = true;
    }(this, &up));
    cluster.run_sequential();
    EXPECT_TRUE(up);
    // A cross-shard link must have declared its latency as lookahead.
    EXPECT_LT(cluster.lookahead(), sim::kTimeInfinity);
  }
};

sim::Task<> write_n(CrossShardRig* r, mem::Buffer* local, mem::Buffer* remote,
                    int n, int* completed) {
  for (int i = 0; i < n; ++i) {
    rdma::SendWr wr;
    wr.wr_id = static_cast<std::uint64_t>(i);
    wr.op = rdma::Opcode::kWrite;
    wr.local = local;
    wr.remote = rdma::RemoteKey{remote};
    wr.bytes = 64 * 1024;
    co_await r->cp->a().post_send(*r->ta, wr);
    const auto wc = co_await r->cp->a().send_cq().wait(*r->ta);
    EXPECT_TRUE(wc.success);
    ++*completed;
  }
}

TEST(ClusterTest, CrossShardWriteDeliversIdenticallyAtAnyWorkerCount) {
  std::vector<std::pair<sim::SimTime, sim::SimTime>> finals;
  for (const int workers : {1, 2}) {
    CrossShardRig r(workers);
    mem::Buffer local, remote;
    local.placement = r.pa->alloc(64 * 1024, r.da->node());
    remote.placement = r.pb->alloc(64 * 1024, r.db->node());
    local.registered = remote.registered = true;
    int completed = 0;
    sim::co_spawn(write_n(&r, &local, &remote, 8, &completed));
    r.cluster.run();
    EXPECT_EQ(completed, 8);
    EXPECT_GT(r.cluster.cross_posts(), 0u);
    finals.emplace_back(r.ea.now(), r.eb.now());
  }
  EXPECT_EQ(finals[0], finals[1]);
}

TEST(ClusterTest, ReadRefusesCrossShardResponder) {
  // A READ's responder half runs on the requester's engine, so a READ on a
  // QP whose ends live on different shards must fail loudly at post time,
  // not touch the other shard's resources from this one.
  CrossShardRig r(1);
  mem::Buffer local, remote;
  local.placement = r.pa->alloc(128 * 1024, r.da->node());
  remote.placement = r.pb->alloc(128 * 1024, r.db->node());
  local.registered = remote.registered = true;
  rdma::SendWr wr;
  wr.op = rdma::Opcode::kRead;
  wr.local = &local;
  wr.remote = rdma::RemoteKey{&remote};
  wr.bytes = 128 * 1024;
  bool refused = false;
  // post_send validates before its first suspension, so the spawned task
  // has caught the refusal by the time co_spawn returns.
  sim::co_spawn([](CrossShardRig* rig, rdma::SendWr w,
                   bool* out) -> sim::Task<> {
    try {
      co_await rig->cp->a().post_send(*rig->ta, w);
    } catch (const std::logic_error&) {
      *out = true;
    }
  }(&r, wr, &refused));
  EXPECT_TRUE(refused);
}

TEST(ClusterTest, TcpRefusesCrossShardEndpoints) {
  // tcp::Connection is engine-local by design; a connection whose hosts
  // live on different shards must fail loudly at construction, not
  // corrupt two heaps at runtime.
  sim::Cluster c(1);
  sim::Engine ea, eb;
  c.add(ea);
  c.add(eb);
  numa::Host ha(ea, test::tiny_host("a"));
  numa::Host hb(eb, test::tiny_host("b"));
  auto link = net::make_roce_lan(ea, eb, "seam");
  link->bind_endpoints(&ha, &hb);
  EXPECT_THROW(tcp::Connection(ha, 0, hb, 0, *link), std::logic_error);
}

}  // namespace
}  // namespace e2e
