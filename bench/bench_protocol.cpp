// Protocol-layer microbenchmarks: the steady-state data-movement hot path.
//
// Measures the protocol machinery the allocation overhaul targets, end to
// end and in isolation:
//   * iSER command round trips (initiator rendezvous + target replay cache
//     + RDMA send/completion bookkeeping + pooled message payloads),
//   * numa::Thread cost bookings (cached cost plans vs per-call resolve),
//   * sim::Channel throughput (ring-buffered item queue vs deque churn),
//   * RDMA QP post/complete cycles,
//   * RFTP block tags, per block against per drained run.
//
// Every benchmark here uses only APIs that are stable across the overhaul,
// so the same file builds against the pre-overhaul tree for honest
// interleaved before/after runs (primitive benches for the new containers
// are gated on __has_include and simply absent in the "before" build).
// items_per_second is the figure of merit throughout.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "exp/runner.hpp"
#include "fault/integrity.hpp"
#include "iscsi/initiator.hpp"
#include "iscsi/target.hpp"
#include "iser/session.hpp"
#include "mem/buffer_pool.hpp"
#include "mem/tmpfs.hpp"
#include "model/host_profile.hpp"
#include "net/link.hpp"
#include "numa/numa.hpp"
#include "rdma/rdma.hpp"
#include "scsi/scsi.hpp"
#include "sim/sim.hpp"

#if __has_include("mem/msg_pool.hpp")
#include <map>

#include "mem/flat_table.hpp"
#include "mem/msg_pool.hpp"
#define E2E_BENCH_HAVE_OVERHAUL 1
#endif

namespace {

using namespace e2e;  // NOLINT: bench-local brevity

model::HostProfile tiny_host(const std::string& name) {
  model::HostProfile h;
  h.name = name;
  h.numa_nodes = 2;
  h.cores_per_node = 2;
  h.core_ghz = 2.0;
  h.mem_gbytes = 16;
  h.mem_gBps_per_node = 10.0;
  h.interconnect_gBps = 5.0;
  h.nics = {{"nic0", model::LinkType::kRoCE, 40.0, 9000, 0, 63.0},
            {"nic1", model::LinkType::kRoCE, 40.0, 9000, 1, 63.0}};
  return h;
}

/// Two tiny hosts joined by one 40G link, one RDMA device each (the test
/// suite's TinyRig, inlined so the bench stays self-contained).
struct Rig {
  sim::Engine eng;
  std::unique_ptr<numa::Host> a;
  std::unique_ptr<numa::Host> b;
  std::unique_ptr<rdma::Device> dev_a;
  std::unique_ptr<rdma::Device> dev_b;
  std::unique_ptr<net::Link> link;
  std::unique_ptr<numa::Process> proc_a;
  std::unique_ptr<numa::Process> proc_b;

  Rig() {
    a = std::make_unique<numa::Host>(eng, tiny_host("a"));
    b = std::make_unique<numa::Host>(eng, tiny_host("b"));
    dev_a = std::make_unique<rdma::Device>(*a, a->profile().nics[0]);
    dev_b = std::make_unique<rdma::Device>(*b, b->profile().nics[0]);
    link = net::make_roce_lan(eng, "t");
    proc_a =
        std::make_unique<numa::Process>(*a, "pa", numa::NumaBinding::bound(0));
    proc_b =
        std::make_unique<numa::Process>(*b, "pb", numa::NumaBinding::bound(0));
  }
};

mem::Buffer make_buffer(numa::Host& host, std::uint64_t bytes,
                        numa::NodeId node) {
  mem::Buffer buf;
  buf.bytes = bytes;
  buf.placement = host.alloc(bytes, numa::MemPolicy::kBind, node, node);
  buf.registered = true;
  return buf;
}

// ---------------------------------------------------------------------------
// End-to-end iSER command stream: login once, then drive WRITE(16)s through
// initiator -> iSER datamover -> target -> LUN and back. Exercises the whole
// per-command path: PDU construction, rendezvous registration, RDMA work
// requests, completion demux, and the target's replay cache.

struct IserBench {
  Rig rig;
  mem::Tmpfs fs{*rig.b};
  scsi::Lun lun;
  iser::IserSession session;
  mem::BufferPool staging;
  iscsi::Target target;
  iscsi::Initiator initiator;
  numa::Thread& ith;
  numa::Thread& tth;
  mem::Buffer buf;

  IserBench()
      : lun(0, fs, fs.create("lun0", 512 << 20, numa::MemPolicy::kBind, 0)),
        session(*rig.dev_a, *rig.dev_b, *rig.link, *rig.proc_a, *rig.proc_b),
        staging(*rig.b, "staging", 4, 1 << 20, numa::MemPolicy::kBind, 0),
        target((staging.mark_registered(), *rig.proc_b), session.target_ep(),
               std::vector<scsi::Lun*>{&lun}, staging),
        initiator(*rig.proc_a, session.initiator_ep()),
        ith(rig.proc_a->spawn_thread()),
        tth(rig.proc_b->spawn_thread()),
        buf(make_buffer(*rig.a, 256 << 10, 0)) {
    exp::run_task(rig.eng, session.start(ith, tth));
    target.start(2);
    iscsi::LoginParams params;
    if (!exp::run_task(rig.eng, initiator.login(ith, params))) abort();
    initiator.start_dispatcher(ith);
  }

  sim::Task<> drive(int cmds, bool reads, std::uint64_t* bad) {
    const std::uint32_t blocks = (256u << 10) / 512;
    for (int i = 0; i < cmds; ++i) {
      const std::uint64_t lba =
          (static_cast<std::uint64_t>(i) % 512) * blocks;
      const auto st =
          reads ? co_await initiator.submit_read(ith, 0, lba, blocks, buf)
                : co_await initiator.submit_write(ith, 0, lba, blocks, buf);
      if (st != scsi::Status::kGood) ++*bad;
    }
  }
};

void iser_commands(benchmark::State& state, bool reads) {
  IserBench b;
  std::uint64_t bad = 0;
  std::int64_t cmds = 0;
  constexpr int kBatch = 256;
  for (auto _ : state) {
    exp::run_task(b.rig.eng, b.drive(kBatch, reads, &bad));
    cmds += kBatch;
  }
  if (bad != 0) state.SkipWithError("SCSI command failed");
  state.SetItemsProcessed(cmds);
}

void BM_IserWriteCommands(benchmark::State& state) {
  iser_commands(state, /*reads=*/false);
}
BENCHMARK(BM_IserWriteCommands);

void BM_IserReadCommands(benchmark::State& state) {
  iser_commands(state, /*reads=*/true);
}
BENCHMARK(BM_IserReadCommands);

// ---------------------------------------------------------------------------
// numa::Thread cost bookings: one copy() awaitable per op, alternating
// local/remote destination placements. Before the overhaul each booking
// re-resolved channels, penalties and interconnect handles from the
// placement; with cached cost plans the steady-state booking is table
// lookups and a handful of multiplies.

void BM_ThreadBookCopy(benchmark::State& state) {
  sim::Engine eng;
  numa::Host host(eng, tiny_host("h"));
  numa::Process proc(host, "p", numa::NumaBinding::bound(0));
  numa::Thread& th = proc.spawn_thread();
  const numa::Placement local = numa::Placement::on(0);
  const numa::Placement remote = numa::Placement::on(1);
  constexpr int kOps = 1024;
  auto loop = [](numa::Thread& t, const numa::Placement& src,
                 const numa::Placement& dst, int n) -> sim::Task<> {
    for (int i = 0; i < n; ++i)
      co_await t.copy(4096, src, dst, metrics::CpuCategory::kCopy,
                      numa::Coherence::kPrivate);
  };
  std::int64_t ops = 0;
  for (auto _ : state) {
    exp::run_task(eng, loop(th, local, (ops % 2 == 0) ? local : remote, kOps));
    ops += kOps;
  }
  state.SetItemsProcessed(ops);
}
BENCHMARK(BM_ThreadBookCopy);

// ---------------------------------------------------------------------------
// RFTP block tags over a drained run of 2^20 blocks of 4 MiB: the per-block
// XOR loop (the specification) against fault::rftp_range_tag, which the
// end-of-run integrity pass, the fast-forward collapse and the auditor use.
// The per_block counter is the layer cost of one block's tag, in seconds.

constexpr std::uint64_t kTagBlocks = 1ull << 20;
constexpr std::uint64_t kTagBlockBytes = 4ull << 20;

void tag_counters(benchmark::State& state, std::uint64_t blocks) {
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() *
                                                    blocks));
  state.counters["per_block"] = benchmark::Counter(
      static_cast<double>(blocks),
      benchmark::Counter::kIsIterationInvariantRate |
          benchmark::Counter::kInvert);
}

void BM_RftpBlockTagLoop(benchmark::State& state) {
  std::uint64_t bytes = kTagBlockBytes;
  benchmark::DoNotOptimize(bytes);  // a run-time size, as in the session
  std::uint64_t lo = 0;
  for (auto _ : state) {
    std::uint64_t t = 0;
    for (std::uint64_t i = lo; i < lo + kTagBlocks; ++i)
      t ^= fault::rftp_block_tag(i, bytes);
    benchmark::DoNotOptimize(t);
    lo += kTagBlocks;
  }
  tag_counters(state, kTagBlocks);
}
BENCHMARK(BM_RftpBlockTagLoop);

void BM_RftpRangeTag(benchmark::State& state) {
  std::uint64_t bytes = kTagBlockBytes;
  benchmark::DoNotOptimize(bytes);
  std::uint64_t lo = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(fault::rftp_range_tag(lo, lo + kTagBlocks, bytes));
    lo += kTagBlocks;
  }
  tag_counters(state, kTagBlocks);
}
BENCHMARK(BM_RftpRangeTag);

// ---------------------------------------------------------------------------
// SCSI block tags of 4 MiB commands (8,192 LBAs) walking a 128 GiB LUN, as
// perfbench e2e-san issues them: the per-LBA XOR loop that block_range_tag
// replaced (eight seeded FNV rounds per block) against block_range_tag,
// which the initiator, the target and the LUN's write ledger call once per
// command each. per_block is one LBA's tag, in seconds.

constexpr std::uint32_t kCmdBlocks = 8192;
constexpr std::uint64_t kLunBlocks = 1ull << 28;

void BM_BlockTagLoop(benchmark::State& state) {
  std::uint32_t blocks = kCmdBlocks;
  benchmark::DoNotOptimize(blocks);  // a run-time size, as in a command
  std::uint64_t lba = 0;
  for (auto _ : state) {
    std::uint64_t t = 0;
    for (std::uint32_t i = 0; i < blocks; ++i)
      t ^= fault::fnv64_seeded(fault::detail::kBlockTagSeed, lba + i);
    benchmark::DoNotOptimize(t);
    lba = (lba + blocks) % kLunBlocks;
  }
  tag_counters(state, kCmdBlocks);
}
BENCHMARK(BM_BlockTagLoop);

void BM_BlockRangeTag(benchmark::State& state) {
  std::uint32_t blocks = kCmdBlocks;
  benchmark::DoNotOptimize(blocks);
  std::uint64_t lba = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(fault::block_range_tag(lba, blocks));
    lba = (lba + blocks) % kLunBlocks;
  }
  tag_counters(state, kCmdBlocks);
}
BENCHMARK(BM_BlockRangeTag);

// ---------------------------------------------------------------------------
// sim::Channel queue throughput: fill/drain cycles sized to straddle a
// deque node boundary, the shape that made the old backing store churn
// allocator nodes at steady state.

void BM_ChannelQueueCycle(benchmark::State& state) {
  sim::Engine eng;
  sim::Channel<std::uint64_t> ch(eng);
  constexpr int kDepth = 96;  // > one 512-byte deque node of uint64s
  std::int64_t items = 0;
  for (auto _ : state) {
    for (int i = 0; i < kDepth; ++i) ch.send(static_cast<std::uint64_t>(i));
    std::uint64_t sink = 0;
    for (int i = 0; i < kDepth; ++i) sink += *ch.try_recv();
    benchmark::DoNotOptimize(sink);
    items += kDepth;
  }
  state.SetItemsProcessed(items);
}
BENCHMARK(BM_ChannelQueueCycle);

// ---------------------------------------------------------------------------
// RDMA QP round trips: post_send of a 4 KiB WRITE and reap the completion.
// Exercises WR queueing, NIC loops, delivery, and CQ signalling without any
// SCSI layering above.

void BM_QpWriteCompletion(benchmark::State& state) {
  Rig rig;
  rdma::CompletionQueue scq_a(rig.eng), rcq_a(rig.eng);
  rdma::CompletionQueue scq_b(rig.eng), rcq_b(rig.eng);
  rdma::QueuePair qa(*rig.dev_a, scq_a, rcq_a);
  rdma::QueuePair qb(*rig.dev_b, scq_b, rcq_b);
  rdma::QueuePair::connect(qa, qb, *rig.link);
  numa::Thread& th = rig.proc_a->spawn_thread();
  mem::Buffer src = make_buffer(*rig.a, 4096, 0);
  mem::Buffer dst = make_buffer(*rig.b, 4096, 0);

  auto one = [](rdma::QueuePair& qp, rdma::CompletionQueue& scq,
                numa::Thread& t, mem::Buffer& s, mem::Buffer& d,
                std::uint64_t id, int n) -> sim::Task<> {
    for (int i = 0; i < n; ++i) {
      rdma::SendWr wr;
      wr.op = rdma::Opcode::kWrite;
      wr.wr_id = id + static_cast<std::uint64_t>(i);
      wr.local = &s;
      wr.bytes = 4096;
      wr.remote.buffer = &d;
      co_await qp.post_send(t, wr);
      co_await scq.wait(t);
    }
  };
  constexpr int kOps = 256;
  std::int64_t ops = 0;
  for (auto _ : state) {
    exp::run_task(rig.eng,
                  one(qa, scq_a, th, src, dst,
                      static_cast<std::uint64_t>(ops), kOps));
    ops += kOps;
  }
  state.SetItemsProcessed(ops);
}
BENCHMARK(BM_QpWriteCompletion);

#ifdef E2E_BENCH_HAVE_OVERHAUL
// ---------------------------------------------------------------------------
// Primitive A/B benches, only meaningful in the overhauled tree: pooled
// message payloads vs make_shared, and the flat pending table vs the
// std::map it replaced. The shared_ptr/map baselines run here too so the
// ratio is visible within one binary.

struct FakePdu {
  std::uint64_t itt = 0;
  std::uint64_t lba = 0;
  std::uint32_t blocks = 0;
  char cdb[40] = {};
};

void BM_MsgPoolMakeRelease(benchmark::State& state) {
  std::int64_t ops = 0;
  for (auto _ : state) {
    auto p = mem::make_msg<FakePdu>();
    benchmark::DoNotOptimize(p);
    ++ops;
  }
  state.SetItemsProcessed(ops);
}
BENCHMARK(BM_MsgPoolMakeRelease);

void BM_MakeSharedBaseline(benchmark::State& state) {
  std::int64_t ops = 0;
  for (auto _ : state) {
    auto p = std::make_shared<FakePdu>();
    benchmark::DoNotOptimize(p);
    ++ops;
  }
  state.SetItemsProcessed(ops);
}
BENCHMARK(BM_MakeSharedBaseline);

template <typename Map>
void map_churn(benchmark::State& state, Map& m) {
  // 32 live tags, sequential insert/erase — the pending-table lifecycle.
  std::uint64_t next = 1;
  for (int i = 0; i < 32; ++i) m.insert_kv(next++);
  std::int64_t ops = 0;
  for (auto _ : state) {
    m.insert_kv(next);
    m.erase_k(next - 32);
    ++next;
    ++ops;
  }
  state.SetItemsProcessed(ops);
}

struct FlatAdapter {
  mem::FlatMap<std::uint64_t> m;
  void insert_kv(std::uint64_t k) { m.insert(k, k); }
  void erase_k(std::uint64_t k) { m.erase(k); }
};
struct StdAdapter {
  std::map<std::uint64_t, std::uint64_t> m;
  void insert_kv(std::uint64_t k) { m.emplace(k, k); }
  void erase_k(std::uint64_t k) { m.erase(k); }
};

void BM_FlatMapTagChurn(benchmark::State& state) {
  FlatAdapter a;
  map_churn(state, a);
}
BENCHMARK(BM_FlatMapTagChurn);

void BM_StdMapTagChurn(benchmark::State& state) {
  StdAdapter a;
  map_churn(state, a);
}
BENCHMARK(BM_StdMapTagChurn);
#endif  // E2E_BENCH_HAVE_OVERHAUL

}  // namespace

BENCHMARK_MAIN();
