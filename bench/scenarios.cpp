#include "scenarios.hpp"

#include <algorithm>
#include <chrono>
#include <memory>

#include "apps/apps.hpp"
#include "bench_util.hpp"
#include "exp/exp.hpp"
#include "metrics/throughput.hpp"
#include "numa/stream.hpp"
#include "rftp/rftp.hpp"

namespace e2e::bench {

using metrics::CpuCategory;

MotivatingResult run_motivating(bool numa_tuned, sim::SimDuration duration) {
  MotivatingResult out;
  {
    sim::Engine eng;
    numa::Host host(eng, model::front_end_lan_host("fe"));
    out.stream_local_gBps =
        numa::run_stream_triad(eng, host, numa::StreamOptions{}).triad_gBps;
  }
  {
    sim::Engine eng;
    numa::Host host(eng, model::front_end_lan_host("fe"));
    numa::StreamOptions opts;
    opts.numa_local = false;
    out.stream_interleaved_gBps =
        numa::run_stream_triad(eng, host, opts).triad_gBps;
  }
  exp::FrontEndPair pair;
  apps::IperfConfig cfg;
  cfg.bidirectional = true;
  cfg.numa_tuned = numa_tuned;
  cfg.sender_buffer_bytes = 256ull << 20;  // defeat the LLC
  cfg.duration = duration;
  const auto r = run_iperf(pair.eng, *pair.a, *pair.b, pair.iperf_links(),
                           cfg);
  out.iperf_gbps = r.aggregate_gbps;
  out.host_usage = r.usage_a;
  out.window = duration;
  out.copy_share = r.usage_a.total()
                       ? static_cast<double>(r.usage_a.get(CpuCategory::kCopy)) /
                             static_cast<double>(r.usage_a.total())
                       : 0.0;
  return out;
}

CostBreakdown run_fig4_rftp(std::uint64_t bytes) {
  exp::FrontEndPair pair;
  numa::Process sp(*pair.a, "rftp-s", numa::NumaBinding::bound(0));
  numa::Process rp(*pair.b, "rftp-r", numa::NumaBinding::bound(0));
  rftp::RftpConfig cfg;
  cfg.streams = 1;
  cfg.block_bytes = 1 << 20;
  rftp::RftpSession sess({&sp, {pair.a_roce[0].get()}},
                         {&rp, {pair.b_roce[0].get()}},
                         {pair.links[0].get()}, cfg);
  rftp::ZeroSource src(bytes);
  rftp::NullSink dst;
  const sim::SimTime t0 = pair.eng.now();
  const auto res = exp::run_task(pair.eng, sess.run(src, dst, bytes));
  CostBreakdown out;
  out.window = pair.eng.now() - t0;
  out.gbps = res.goodput_gbps;
  out.both_ends = pair.a->total_usage();
  out.both_ends.merge(pair.b->total_usage());
  return out;
}

CostBreakdown run_fig4_tcp(sim::SimDuration duration) {
  exp::FrontEndPair pair;
  apps::IperfConfig cfg;
  cfg.numa_tuned = true;
  cfg.streams_per_link = 4;
  cfg.chunk_bytes = 1 << 20;
  cfg.sender_buffer_bytes = 256ull << 20;
  cfg.duration = duration;
  std::vector<apps::IperfLink> one = {pair.iperf_links()[0]};
  const auto r = run_iperf(pair.eng, *pair.a, *pair.b, one, cfg);
  CostBreakdown out;
  out.window = duration;
  out.gbps = r.aggregate_gbps;
  out.both_ends = r.usage_a;
  out.both_ends.merge(r.usage_b);
  return out;
}

IserPoint run_iser_point(bool numa_tuned, bool write, std::uint64_t block,
                         int threads_per_lun, sim::SimDuration duration) {
  exp::SanConfig scfg;
  scfg.numa_tuned = numa_tuned;
  scfg.lun_bytes = 4ull << 30;
  exp::SanTestbed tb(scfg);
  tb.start();
  apps::FioOptions opts;
  opts.block_bytes = block;
  opts.write = write;
  opts.duration = duration;
  const auto r = tb.run_fio(opts, threads_per_lun);
  IserPoint out;
  out.gbps = r.gbps;
  out.target_cpu_pct = r.target_cpu_pct;
  out.target_usage = r.target_usage;
  out.ios = r.ios;
  return out;
}

namespace {

/// Wall-clock mode: brackets a scenario run and records the simulator's own
/// cost — events dispatched and host-CPU seconds — alongside the modeled
/// results, so the perf-regression harness can watch the event core.
struct SimCostProbe {
  explicit SimCostProbe(sim::Engine& eng)
      : eng_(eng),
        events0_(eng.events_processed()),
        t0_(std::chrono::steady_clock::now()) {}
  void finish(E2eResult& out) const {
    out.sim_events = eng_.events_processed() - events0_;
    out.wall_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0_)
            .count();
  }
  sim::Engine& eng_;
  std::uint64_t events0_;
  std::chrono::steady_clock::time_point t0_;
};

E2eResult finish_e2e(exp::EndToEndTestbed& tb, rftp::TransferResult res,
                     const metrics::ThroughputMeter& meter,
                     sim::SimDuration window) {
  E2eResult out;
  out.transfer = res;
  out.series_gbps = meter.series_gbps();
  out.src_usage = tb.src_fe->total_usage();
  out.dst_usage = tb.dst_fe->total_usage();
  out.window = window;
  return out;
}

}  // namespace

E2eResult run_e2e_rftp(std::uint64_t dataset, bool numa_tuned) {
  exp::EndToEndTestbed tb(numa_tuned, dataset);
  tb.start();
  numa::Process sp(*tb.src_fe, "rftp-client", numa::NumaBinding::os_default());
  numa::Process rp(*tb.dst_fe, "rftp-server", numa::NumaBinding::os_default());
  rftp::RftpConfig cfg;
  cfg.numa_aware = numa_tuned;
  rftp::RftpSession sess({&sp, tb.src_roce()}, {&rp, tb.dst_roce()},
                         tb.links(), cfg);
  exp::SanSection* ssan = tb.src_san.get();
  rftp::FileSource src(*tb.src_fs, *tb.src_file, true,
                       [ssan](std::uint64_t off, std::uint64_t) {
                         return ssan->fe_node_of(off);
                       });
  rftp::FileSink dst(*tb.dst_fs, *tb.dst_file);
  metrics::ThroughputMeter meter(tb.eng, sim::kSecond);
  ScopedTrace ts(tb.eng);  // opt-in via E2E_TRACE
  ScopedStats ss(tb.eng);  // always-on; dump opt-in via E2E_STATS
  const sim::SimTime t0 = tb.eng.now();
  const SimCostProbe probe(tb.eng);
  const auto res =
      exp::run_task(tb.eng, sess.run(src, dst, dataset, &meter));
  auto out = finish_e2e(tb, res, meter, tb.eng.now() - t0);
  probe.finish(out);
  out.drain_hist = ss.merged("drain_ns");
  return out;
}

E2eResult run_e2e_gridftp(std::uint64_t dataset, int processes) {
  exp::EndToEndTestbed tb(true, dataset);
  tb.start();
  apps::GridFtpConfig cfg;
  cfg.processes = processes;
  std::vector<apps::GridFtpLink> links;
  for (std::size_t i = 0; i < 3; ++i)
    links.push_back({tb.roce_links[i].get(), tb.src_devs[i]->node(),
                     tb.dst_devs[i]->node()});
  metrics::ThroughputMeter meter(tb.eng, sim::kSecond);
  const sim::SimTime t0 = tb.eng.now();
  const SimCostProbe probe(tb.eng);
  const auto res = exp::run_task(
      tb.eng,
      apps::gridftp_transfer({tb.src_fe.get(), tb.src_fs.get(), tb.src_file},
                             {tb.dst_fe.get(), tb.dst_fs.get(), tb.dst_file},
                             links, dataset, cfg, &meter));
  auto out = finish_e2e(tb, res, meter, tb.eng.now() - t0);
  probe.finish(out);
  return out;
}

BidirResult run_e2e_rftp_bidir(std::uint64_t dataset) {
  // Unidirectional reference on an identical testbed.
  const auto uni = run_e2e_rftp(dataset);

  exp::EndToEndTestbed tb(true, dataset);
  tb.add_reverse_files();
  tb.start();
  numa::Process sp(*tb.src_fe, "rftp-c", numa::NumaBinding::os_default());
  numa::Process rp(*tb.dst_fe, "rftp-s", numa::NumaBinding::os_default());
  numa::Process sp2(*tb.dst_fe, "rftp-c2", numa::NumaBinding::os_default());
  numa::Process rp2(*tb.src_fe, "rftp-s2", numa::NumaBinding::os_default());
  rftp::RftpConfig cfg;
  rftp::RftpSession fwd({&sp, tb.src_roce()}, {&rp, tb.dst_roce()},
                        tb.links(), cfg);
  rftp::RftpSession rev({&sp2, tb.dst_roce()}, {&rp2, tb.src_roce()},
                        tb.links(), cfg);
  exp::SanSection* ssan = tb.src_san.get();
  exp::SanSection* dsan = tb.dst_san.get();
  rftp::FileSource fsrc(*tb.src_fs, *tb.src_file, true,
                        [ssan](std::uint64_t off, std::uint64_t) {
                          return ssan->fe_node_of(off);
                        });
  rftp::FileSink fdst(*tb.dst_fs, *tb.dst_file);
  rftp::FileSource rsrc(*tb.dst_fs, *tb.rev_src_file, true,
                        [dsan](std::uint64_t off, std::uint64_t) {
                          return dsan->fe_node_of(off);
                        });
  rftp::FileSink rdst(*tb.src_fs, *tb.rev_dst_file);

  const sim::SimTime t0 = tb.eng.now();
  sim::WaitGroup wg(tb.eng);
  wg.add(2);
  auto run_one = [](rftp::RftpSession& s, rftp::DataSource& src,
                    rftp::DataSink& dst, std::uint64_t bytes,
                    sim::WaitGroup* w) -> sim::Task<> {
    (void)co_await s.run(src, dst, bytes);
    w->done();
  };
  sim::co_spawn(run_one(fwd, fsrc, fdst, dataset, &wg));
  sim::co_spawn(run_one(rev, rsrc, rdst, dataset, &wg));
  exp::run_task(tb.eng, [](sim::WaitGroup& w) -> sim::Task<> {
    co_await w.wait();
  }(wg));
  const sim::SimDuration window = tb.eng.now() - t0;

  BidirResult out;
  out.unidirectional_gbps = uni.transfer.goodput_gbps;
  out.aggregate_gbps = static_cast<double>(2 * dataset) * 8.0 /
                       static_cast<double>(window);
  out.improvement = out.aggregate_gbps / out.unidirectional_gbps - 1.0;
  out.src_usage = tb.src_fe->total_usage();
  out.window = window;
  return out;
}

BidirResult run_e2e_gridftp_bidir(std::uint64_t dataset, int processes) {
  const auto uni = run_e2e_gridftp(dataset, processes);

  exp::EndToEndTestbed tb(true, dataset);
  tb.add_reverse_files();
  tb.start();
  apps::GridFtpConfig cfg;
  cfg.processes = processes;
  std::vector<apps::GridFtpLink> fwd_links, rev_links;
  for (std::size_t i = 0; i < 3; ++i) {
    fwd_links.push_back({tb.roce_links[i].get(), tb.src_devs[i]->node(),
                         tb.dst_devs[i]->node()});
    rev_links.push_back({tb.roce_links[i].get(), tb.dst_devs[i]->node(),
                         tb.src_devs[i]->node()});
  }

  const sim::SimTime t0 = tb.eng.now();
  sim::WaitGroup wg(tb.eng);
  wg.add(2);
  auto run_one = [](apps::GridFtpEndpoint s, apps::GridFtpEndpoint d,
                    std::vector<apps::GridFtpLink> links, std::uint64_t bytes,
                    apps::GridFtpConfig c, sim::WaitGroup* w) -> sim::Task<> {
    (void)co_await apps::gridftp_transfer(s, d, links, bytes, c);
    w->done();
  };
  sim::co_spawn(run_one({tb.src_fe.get(), tb.src_fs.get(), tb.src_file},
                        {tb.dst_fe.get(), tb.dst_fs.get(), tb.dst_file},
                        fwd_links, dataset, cfg, &wg));
  sim::co_spawn(run_one({tb.dst_fe.get(), tb.dst_fs.get(), tb.rev_src_file},
                        {tb.src_fe.get(), tb.src_fs.get(), tb.rev_dst_file},
                        rev_links, dataset, cfg, &wg));
  exp::run_task(tb.eng, [](sim::WaitGroup& w) -> sim::Task<> {
    co_await w.wait();
  }(wg));
  const sim::SimDuration window = tb.eng.now() - t0;

  BidirResult out;
  out.unidirectional_gbps = uni.transfer.goodput_gbps;
  out.aggregate_gbps = static_cast<double>(2 * dataset) * 8.0 /
                       static_cast<double>(window);
  out.improvement = out.aggregate_gbps / out.unidirectional_gbps - 1.0;
  out.src_usage = tb.src_fe->total_usage();
  out.window = window;
  return out;
}

WanPoint run_wan_point(int streams, std::uint64_t block,
                       std::uint64_t dataset, int credits) {
  exp::WanTestbed tb;
  rftp::RftpConfig cfg;
  cfg.streams = streams;
  cfg.block_bytes = block;
  cfg.credits_per_stream = credits;
  rftp::RftpSession sess({tb.a_proc.get(), {tb.a_dev.get()}},
                         {tb.b_proc.get(), {tb.b_dev.get()}},
                         {tb.link.get()}, cfg);
  rftp::MemorySource src(dataset, numa::Placement::on(0));
  rftp::MemorySink dst;
  const sim::SimTime t0 = tb.eng.now();
  const auto res = exp::run_task(tb.eng, sess.run(src, dst, dataset));
  const sim::SimDuration window = tb.eng.now() - t0;

  WanPoint out;
  out.gbps = res.goodput_gbps;
  out.utilization = res.goodput_gbps / 40.0;
  out.sender_cpu_pct =
      tb.a->total_usage().percent(CpuCategory::kUserProto, window);
  out.receiver_cpu_pct =
      tb.b->total_usage().percent(CpuCategory::kUserProto, window);
  return out;
}

}  // namespace e2e::bench
