// Sim-core microbenchmarks: the event-dispatch hot path in isolation.
//
// Every scenario bench in this directory is bottlenecked by how fast
// sim::Engine can schedule and dispatch events and how cheaply coroutines
// suspend/resume through it. These benchmarks measure exactly that, with
// trivial handlers, so regressions in the event core show up here first —
// undiluted by protocol math.
//
// items_per_second == simulated events dispatched per wall-second (for the
// coroutine benches: operations, each costing a couple of events).
//
// CI runs it so it keeps building and running; no numbers are recorded.
// Compare a change by running it on both trees, interleaved, on one host.
#include <benchmark/benchmark.h>

#include <array>
#include <cstdint>

#include "model/host_profile.hpp"
#include "numa/host.hpp"
#include "numa/process.hpp"
#include "numa/thread.hpp"
#include "sim/channel.hpp"
#include "sim/cluster.hpp"
#include "sim/engine.hpp"
#include "sim/resource.hpp"
#include "sim/sync.hpp"
#include "sim/task.hpp"

namespace {

using e2e::sim::Channel;
using e2e::sim::Cluster;
using e2e::sim::Delay;
using e2e::sim::Engine;
using e2e::sim::Resource;
using e2e::sim::Task;

// Self-rearming timer callback with a configurable capture footprint.
// PayloadWords == 1 stays within std::function's inline buffer on libstdc++;
// PayloadWords == 5 (56 bytes) matches the library's fattest real capture
// (rdma delivery events) and forces the allocation path on any event-functor
// implementation with less than 56 bytes of inline storage.
template <std::size_t PayloadWords>
struct Rearm {
  Engine* eng;
  std::uint64_t delay;
  std::uint64_t payload[PayloadWords];
  void operator()() {
    payload[0]++;
    eng->schedule_after(delay, *this);
  }
};

template <std::size_t PayloadWords>
void timer_churn(benchmark::State& state) {
  const std::int64_t depth = state.range(0);
  Engine eng;
  // Co-prime delays spread the timers across the heap so sifts do real work.
  for (std::int64_t i = 0; i < depth; ++i) {
    const std::uint64_t d = 1 + static_cast<std::uint64_t>(i) % 61;
    eng.schedule_after(d, Rearm<PayloadWords>{&eng, d, {}});
  }
  std::uint64_t events = 0;
  for (auto _ : state) events += eng.run_for(64);
  state.SetItemsProcessed(static_cast<std::int64_t>(events));
}

// Schedule/dispatch throughput at a given steady-state heap depth.
void BM_ScheduleDispatch(benchmark::State& state) { timer_churn<1>(state); }
BENCHMARK(BM_ScheduleDispatch)->Arg(64)->Arg(1024)->Arg(16384);

// Same, with a 56-byte capture (the in-tree worst case).
void BM_ScheduleDispatchFatCapture(benchmark::State& state) {
  timer_churn<5>(state);
}
BENCHMARK(BM_ScheduleDispatchFatCapture)->Arg(1024);

// kv-shaped call chain: each call arms a 5 ms retry timer that fires as a
// no-op, then hops through eight zero-delay wakeups and one short delay.
struct KvCall {
  Engine* eng;
  std::uint64_t step;
  void operator()() {
    if (step % 9 == 0) eng->schedule_after(5'000'000, [] {});
    ++step;
    eng->schedule_after(step % 9 == 0 ? 1 + step % 997 : 0, *this);
  }
};

// Dispatch throughput with thousands of pending timers per chain: the
// timers and hops ride the engine's FIFO lanes, only the delays sift.
void BM_TimerHeavyDispatch(benchmark::State& state) {
  Engine eng;
  for (std::int64_t i = 0; i < state.range(0); ++i)
    eng.schedule_after(static_cast<std::uint64_t>(i), KvCall{&eng, 0});
  eng.run_for(5'000'000);  // reach the steady pending-timer population
  std::uint64_t events = 0;
  for (auto _ : state) events += eng.run_for(1000);
  state.SetItemsProcessed(static_cast<std::int64_t>(events));
  state.counters["pending"] = static_cast<double>(eng.queue_depth());
}
BENCHMARK(BM_TimerHeavyDispatch)->Arg(1)->Arg(8);

// One resource-acquire round trip: plan + schedule + coroutine resume.
Task<> acquire_loop(Resource& r, int n) {
  for (int i = 0; i < n; ++i) co_await r.acquire(64.0);
}

void BM_ResourceAcquire(benchmark::State& state) {
  constexpr int kOpsPerRun = 1024;
  Engine eng;
  Resource link(eng, 40e9, "bench-link");
  std::uint64_t ops = 0;
  for (auto _ : state) {
    e2e::sim::co_spawn(acquire_loop(link, kOpsPerRun));
    eng.run();
    ops += kOpsPerRun;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(ops));
}
BENCHMARK(BM_ResourceAcquire);

// Back-to-back NUMA cost bookings on one core: Thread::compute charges the
// core's cycle resource at the call and the coroutine awaits the returned
// Delay — one direct-resume event per booking, no frame of its own.
Task<> compute_loop(e2e::numa::Thread& th, int n) {
  for (int i = 0; i < n; ++i)
    co_await th.compute(200.0, e2e::metrics::CpuCategory::kUserProto);
}

void BM_ComputeBooking(benchmark::State& state) {
  constexpr int kBookingsPerRun = 1024;
  Engine eng;
  e2e::numa::Host host(eng, e2e::model::front_end_lan_host("fe"));
  e2e::numa::Process proc(host, "p", e2e::numa::NumaBinding::bound(0));
  e2e::numa::Thread& th = proc.spawn_thread();
  std::uint64_t ops = 0;
  for (auto _ : state) {
    e2e::sim::co_spawn(compute_loop(th, kBookingsPerRun));
    eng.run();
    ops += kBookingsPerRun;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(ops));
}
BENCHMARK(BM_ComputeBooking);

// Channel ping-pong: send + suspended recv + engine-mediated wake, twice
// per round trip. The waiter parks in the coroutine frame.
Task<> echo_server(Channel<int>& in, Channel<int>& out) {
  for (;;) {
    auto v = co_await in.recv();
    if (!v) co_return;
    out.send(*v);
  }
}

Task<> echo_client(Channel<int>& out, Channel<int>& in, int n) {
  for (int i = 0; i < n; ++i) {
    out.send(i);
    co_await in.recv();
  }
  out.close();
}

void BM_ChannelPingPong(benchmark::State& state) {
  constexpr int kRoundTrips = 1024;
  Engine eng;
  std::uint64_t ops = 0;
  for (auto _ : state) {
    Channel<int> req(eng);
    Channel<int> resp(eng);
    e2e::sim::co_spawn(echo_server(req, resp));
    e2e::sim::co_spawn(echo_client(req, resp, kRoundTrips));
    eng.run();
    ops += kRoundTrips;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(ops));
}
BENCHMARK(BM_ChannelPingPong);

// Frame allocate + schedule + resume + frame free for a short-lived task —
// the lifecycle of the per-chunk tasks rftp/iser spawn by the hundred
// thousand.
Task<> sleeper(Engine& eng) { co_await Delay{eng, 1}; }

void BM_CoroutineSpawn(benchmark::State& state) {
  constexpr int kTasksPerRun = 256;
  Engine eng;
  std::uint64_t ops = 0;
  for (auto _ : state) {
    for (int i = 0; i < kTasksPerRun; ++i)
      e2e::sim::co_spawn(sleeper(eng));
    eng.run();
    ops += kTasksPerRun;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(ops));
}
BENCHMARK(BM_CoroutineSpawn);

// A chain of nested awaits, one Delay per level: frame allocation, the
// symmetric-transfer resume path and one event per hop.
Task<> hop(Engine& eng, int depth) {
  if (depth == 0) co_return;
  co_await Delay{eng, 1};
  co_await hop(eng, depth - 1);
}

void BM_CoroutineChain(benchmark::State& state) {
  for (auto _ : state) {
    Engine eng;
    e2e::sim::co_spawn(hop(eng, static_cast<int>(state.range(0))));
    eng.run();
    benchmark::DoNotOptimize(eng.now());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_CoroutineChain)->Arg(10000);

// Resource::charge: the fluid-model booking every cost charge goes through.
void BM_ResourceCharges(benchmark::State& state) {
  Engine eng;
  Resource r(eng, 1e9, "r");
  for (auto _ : state) benchmark::DoNotOptimize(r.charge(100.0));
}
BENCHMARK(BM_ResourceCharges);

// Building one Table 1 front-end host: cores, NUMA nodes and their
// resources, the setup cost every scenario pays per host.
void BM_HostConstruction(benchmark::State& state) {
  for (auto _ : state) {
    Engine eng;
    e2e::numa::Host host(eng, e2e::model::front_end_lan_host("fe"));
    benchmark::DoNotOptimize(host.core_count());
  }
}
BENCHMARK(BM_HostConstruction);

// ---- Parallel cluster scaling -------------------------------------------
//
// The sharded-engine equivalent of BM_ScheduleDispatch: 8 engine shards,
// each churning self-rearming timers, with every 16th dispatch cross-
// posting a no-op to the next shard one lookahead ahead (sound: an event
// running at `now` has now >= the window's min, so now + L >= horizon).
// Arg(n) = worker threads. items_per_second is total events across shards
// per wall-second — UseRealTime, because the work happens on the pool.
//
// Read the curve against nproc: on a 1-core host every extra worker adds
// contention and the curve is flat-to-negative by design; the interesting
// single-core numbers are Arg(1) vs the sequential baseline below (the
// price of windowed coordination) and vs BM_ScheduleDispatch (the raw
// single-heap ceiling).
constexpr int kChurnShards = 8;
constexpr int kChurnTimersPerShard = 64;
constexpr std::uint64_t kChurnEventsPerTimer = 256;
constexpr std::uint64_t kChurnLookahead = 61;

struct ShardLoad {
  Engine* self;
  Engine* next;
  std::uint64_t delay;
  std::uint64_t remaining;
  void operator()() {
    if (remaining == 0) return;
    --remaining;
    if (remaining % 16 == 0)
      self->cross_post(*next, self->now() + kChurnLookahead, [] {});
    self->schedule_after(delay, *this);
  }
};

void seed_churn(std::array<Engine, kChurnShards>& engs) {
  for (int s = 0; s < kChurnShards; ++s)
    for (int i = 0; i < kChurnTimersPerShard; ++i) {
      const std::uint64_t d = 1 + static_cast<std::uint64_t>(i) % 61;
      engs[s].schedule_after(
          d, ShardLoad{&engs[s], &engs[(s + 1) % kChurnShards], d,
                       kChurnEventsPerTimer});
    }
}

void BM_ClusterChurn(benchmark::State& state) {
  const int workers = static_cast<int>(state.range(0));
  std::uint64_t events = 0;
  for (auto _ : state) {
    std::array<Engine, kChurnShards> engs;
    Cluster cluster(workers);
    for (Engine& e : engs) cluster.add(e);
    cluster.note_lookahead(kChurnLookahead);
    seed_churn(engs);
    cluster.run();
    events += cluster.events_processed();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(events));
}
BENCHMARK(BM_ClusterChurn)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->UseRealTime();

// Same load through run_sequential() — the exact-global-order algorithm the
// windowed run replaces. BM_ClusterChurn/1 vs this is the coordination
// overhead (windowing + barriers + outbox merge) at zero parallelism.
void BM_ClusterChurnSequential(benchmark::State& state) {
  std::uint64_t events = 0;
  for (auto _ : state) {
    std::array<Engine, kChurnShards> engs;
    Cluster cluster(1);
    for (Engine& e : engs) cluster.add(e);
    cluster.note_lookahead(kChurnLookahead);
    seed_churn(engs);
    cluster.run_sequential();
    events += cluster.events_processed();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(events));
}
BENCHMARK(BM_ClusterChurnSequential)->UseRealTime();

}  // namespace

BENCHMARK_MAIN();
