#include "scenarios.hpp"

#include <algorithm>
#include <memory>
#include <stdexcept>

#include "apps/apps.hpp"
#include "bench_util.hpp"
#include "exp/exp.hpp"
#include "fault/injector.hpp"
#include "iscsi/initiator.hpp"
#include "iscsi/target.hpp"
#include "iscsi/tcp_datamover.hpp"
#include "iser/session.hpp"
#include "metrics/throughput.hpp"
#include "rftp/rftp.hpp"

namespace e2e::bench {

using metrics::CpuCategory;

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

exp::TransferRun run_e2e_gridftp(std::uint64_t dataset, int processes) {
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
  exp::TransferRun out;
  out.transfer = exp::run_task(
      tb.eng,
      apps::gridftp_transfer({tb.src_fe.get(), tb.src_fs.get(), tb.src_file},
                             {tb.dst_fe.get(), tb.dst_fs.get(), tb.dst_file},
                             links, dataset, cfg, &meter));
  out.window = tb.eng.now() - t0;
  out.series_gbps = meter.series_gbps();
  out.src_usage = tb.src_fe->total_usage();
  out.dst_usage = tb.dst_fe->total_usage();
  return out;
}

BidirResult run_e2e_rftp_bidir(std::uint64_t dataset) {
  // Unidirectional reference on an identical testbed.
  const auto uni =
      exp::run_transfer({.rig = exp::Rig::kE2e, .bytes = dataset});

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

namespace {

constexpr std::uint64_t kSanIoBytes = 4ull << 20;
constexpr int kSanJobs = 8;
constexpr std::uint64_t kSanLunBytes = 4ull << 30;

/// Loops 4 MiB I/Os over its 1/kSanJobs slice of the LUN until `deadline`;
/// a failed command is terminal for the job.
sim::Task<> san_io_job(iscsi::Initiator& init, numa::Thread& th,
                       mem::Buffer* buf, bool write, std::uint64_t region_off,
                       sim::SimTime deadline, std::uint64_t* bytes) {
  auto& eng = th.host().engine();
  std::uint64_t off = region_off;
  const auto blocks = static_cast<std::uint32_t>(kSanIoBytes / 512);
  while (eng.now() < deadline) {
    const auto s =
        write ? co_await init.submit_write(th, 0, off / 512, blocks, *buf)
              : co_await init.submit_read(th, 0, off / 512, blocks, *buf);
    if (s != scsi::Status::kGood) co_return;
    if (eng.now() <= deadline) *bytes += kSanIoBytes;
    off += kSanIoBytes;
    if (off + kSanIoBytes > region_off + kSanLunBytes / kSanJobs)
      off = region_off;
  }
}

}  // namespace

SanLinkResult run_san_link(const SanLinkOptions& o) {
  sim::Engine eng;
  stats::Registry reg(eng);  // command-latency percentiles ride on it
  reg.install();
  numa::Host fe(eng, model::front_end_lan_host("fe"));
  numa::Host be(eng, model::back_end_lan_host("be"));
  auto link = net::make_ib_lan(eng, "ib");
  link->bind_endpoints(&fe, &be);
  numa::Process iproc(fe, "initiator", numa::NumaBinding::bound(0));
  numa::Process tproc(be, "tgtd", numa::NumaBinding::bound(0));

  mem::Tmpfs store(be);
  auto& file = store.create("lun0", kSanLunBytes, numa::MemPolicy::kBind, 0);
  scsi::Lun lun(0, store, file);
  mem::BufferPool staging(be, "staging", 32, 8ull << 20,
                          numa::MemPolicy::kBind, 0);
  staging.mark_registered();

  std::unique_ptr<rdma::Device> fe_dev, be_dev;
  std::unique_ptr<iser::IserSession> rdma_sess;
  std::unique_ptr<iscsi::TcpSession> tcp_sess;
  iscsi::Datamover* init_dm = nullptr;
  iscsi::Datamover* tgt_dm = nullptr;

  numa::Thread& irx = iproc.spawn_thread();
  numa::Thread& itx = iproc.spawn_thread();
  numa::Thread& trx = tproc.spawn_thread();
  numa::Thread& ttx = tproc.spawn_thread();
  if (o.tcp) {
    tcp_sess = std::make_unique<iscsi::TcpSession>(fe, 0, be, 0, *link,
                                                   iproc, tproc);
    exp::run_task(eng, tcp_sess->start(irx, itx, trx, ttx));
    init_dm = &tcp_sess->initiator_ep();
    tgt_dm = &tcp_sess->target_ep();
  } else {
    fe_dev = std::make_unique<rdma::Device>(
        fe, model::NicProfile{"ib0", model::LinkType::kInfiniBand, 56.0,
                              65520, 0, 63.0});
    be_dev = std::make_unique<rdma::Device>(be, be.profile().nics[0]);
    rdma_sess = std::make_unique<iser::IserSession>(*fe_dev, *be_dev, *link,
                                                    iproc, tproc);
    exp::run_task(eng, rdma_sess->start(irx, trx));
    init_dm = &rdma_sess->initiator_ep();
    tgt_dm = &rdma_sess->target_ep();
  }

  iscsi::Target target(tproc, *tgt_dm, {&lun}, staging);
  target.start(8);
  iscsi::Initiator initiator(iproc, *init_dm, o.cmd_timer);
  iscsi::LoginParams params;
  if (!exp::run_task(eng, initiator.login(irx, params)))
    throw std::runtime_error("login failed");
  initiator.start_dispatcher(irx);
  if (o.recovery) {
    iser::SessionRecoveryPolicy rp;
    rp.mr_bytes_initiator = kSanIoBytes;
    rp.mr_bytes_target = 8ull << 20;
    rdma_sess->enable_recovery(irx, trx, rp);
  }

  fault::FaultInjector inj(eng, o.faults);
  inj.attach(*link);
  if (o.recovery)
    inj.set_qp_kill_handler([&rdma_sess](int) { rdma_sess->kill(); });
  inj.arm();

  const sim::SimTime deadline = eng.now() + kSanLinkWindow;
  const sim::SimTime t0 = eng.now();
  auto bytes = std::make_unique<std::uint64_t>(0);
  std::vector<std::unique_ptr<mem::Buffer>> bufs;
  for (int j = 0; j < kSanJobs; ++j) {
    bufs.push_back(std::make_unique<mem::Buffer>());
    bufs.back()->bytes = kSanIoBytes;
    bufs.back()->placement = iproc.alloc(kSanIoBytes);
    bufs.back()->registered = true;
    sim::co_spawn(san_io_job(initiator, iproc.spawn_thread(),
                             bufs.back().get(), o.write,
                             j * (kSanLunBytes / kSanJobs), deadline,
                             bytes.get()));
  }
  eng.run_until(deadline);
  const sim::SimDuration w = eng.now() - t0;

  SanLinkResult r;
  r.gbps = static_cast<double>(*bytes) * 8.0 / static_cast<double>(w);
  r.initiator_cpu = fe.total_usage().total_percent(w);
  r.target_cpu = be.total_usage().total_percent(w);
  r.copy_cpu = fe.total_usage().percent(CpuCategory::kCopy, w) +
               be.total_usage().percent(CpuCategory::kCopy, w);
  r.faults = inj.faults_injected();
  r.messages_failed = inj.messages_failed();
  r.command_retries = initiator.command_retries();
  r.command_failures = initiator.command_failures();
  if (rdma_sess) r.recoveries = rdma_sess->recoveries();
  r.cmd_hist = reg.merged_histogram("cmd_ns");
  eng.run();
  return r;
}

}  // namespace e2e::bench
