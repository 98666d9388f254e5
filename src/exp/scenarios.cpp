// Single-engine scenario runners. The three RFTP rigs differ only in what
// they build before the session, their data source and their sink; the
// session, observers, fault plan, run and result fold are one path
// (drive()).
#include "exp/scenarios.hpp"

#include <memory>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "apps/apps.hpp"
#include "check/audit.hpp"
#include "exp/pair_fleet.hpp"
#include "fault/injector.hpp"
#include "iscsi/initiator.hpp"
#include "iscsi/target.hpp"
#include "iscsi/tcp_datamover.hpp"
#include "iser/session.hpp"
#include "metrics/throughput.hpp"
#include "numa/stream.hpp"
#include "rdma/cm.hpp"
#include "rftp/rftp.hpp"
#include "stats/registry.hpp"
#include "trace/tracer.hpp"

namespace e2e::exp {

namespace {

/// The observers of one run, installed in a fixed order (registry, auditor,
/// tracer) so entity ids never depend on which are on; none schedules an
/// event. Without any, nothing is installed (the zero-cost path).
class Observe {
 public:
  Observe(sim::Engine& eng, const Observers& o) : o_(o) {
    if (o.stats) {
      stats_ = std::make_unique<stats::Registry>(eng);
      stats_->install();
    }
    if (o.audit) audit_ = std::make_unique<check::Auditor>(eng);
    if (o.trace != nullptr) {
      tracer_ = std::make_unique<trace::Tracer>(eng);
      tracer_->install();
      tracer_->enable_resource_sampler(kSamplePeriod);
    }
  }

  [[nodiscard]] stats::Registry* registry() const noexcept {
    return stats_.get();
  }

  /// Folds the run's observer outputs into `out`: the trace (with a
  /// closing snapshot), the audit, the flight dump of a run that failed
  /// (`run_ok` false or the audit broken), and the stats dump.
  void finish(bool run_ok, Observed& out) {
    if (tracer_) {
      tracer_->sample_now();
      tracer_->write_chrome_trace(*o_.trace);
      tracer_.reset();
    }
    bool ok = run_ok;
    if (audit_) {
      audit_->finalize();
      std::ostringstream os;
      audit_->report(os);
      out.report += os.str();
      ok = ok && audit_->ok();
      out.audit_ok = out.audit_ok && audit_->ok();
      audit_.reset();
    }
    if (!stats_) return;
    if (!ok && !stats_->flight_dump_triggered()) {
      std::ostringstream dump;
      stats_->set_flight_stream(&dump);
      stats_->trigger_flight_dump("exp:run-failed");
      out.report += dump.str();
    }
    std::ostringstream os;
    if (o_.stats_csv)
      stats_->write_csv(os);
    else
      stats_->write_json(os);
    out.stats_dump = std::move(os).str();
    stats_.reset();
  }

 private:
  // 10 ms of simulated time per utilization sample: fine enough to see
  // per-second throughput structure, coarse enough to keep traces small.
  static constexpr sim::SimDuration kSamplePeriod = 10 * sim::kMillisecond;
  const Observers o_;
  std::unique_ptr<stats::Registry> stats_;
  std::unique_ptr<check::Auditor> audit_;
  std::unique_ptr<trace::Tracer> tracer_;
};

/// Where a block at `off` of a SAN-backed file lives on the front end.
rftp::FileSource::LocalityFn san_locality(const SanSection* san) {
  return [san](std::uint64_t off, std::uint64_t) {
    return san->fe_node_of(off);
  };
}

/// The shared RFTP path over a built rig (which owns everything the
/// arguments point at): session, e2e's per-second meter, observers, fault
/// plan, the run of `bytes` from `source` into `sink`, and the result fold.
TransferRun drive(const TransferParams& p, const rftp::EndpointConfig& src,
                  const rftp::EndpointConfig& dst,
                  const std::vector<net::Link*>& links,
                  rftp::DataSource& source, rftp::DataSink& sink,
                  std::uint64_t bytes) {
  sim::Engine& eng = src.proc->host().engine();
  rftp::RftpConfig cfg;
  cfg.streams = p.streams_or_default();
  cfg.block_bytes = p.block_bytes;
  cfg.credits_per_stream = p.credits;
  cfg.numa_aware = p.numa || p.rig == Rig::kWan;  // wan: NIC-bound hosts
  cfg.checkpoint_blocks = p.checkpoint_blocks;
  cfg.fast_forward = p.fast_forward;
  std::optional<fault::FaultPlan> plan = p.fault_plan;
  if (!plan && p.fault_seed != 0) {
    fault::FaultPlan::RandomParams rp;
    rp.links = static_cast<int>(links.size());
    rp.qps = cfg.streams;
    plan = fault::FaultPlan::random(p.fault_seed, rp);
  }
  rftp::RftpSession sess(src, dst, links, cfg);
  std::optional<metrics::ThroughputMeter> meter;
  if (p.rig == Rig::kE2e) meter.emplace(eng, sim::kSecond);
  Observe obs(eng, p.obs);
  TransferRun out;
  std::unique_ptr<fault::FaultInjector> inj;
  if (plan) {
    out.fault_plan = plan->to_string();
    inj = std::make_unique<fault::FaultInjector>(eng, std::move(*plan));
    for (auto* l : links) inj->attach(*l);
    sess.attach(*inj);
    inj->arm();
  }

  out.transfer =
      run_task(eng, sess.run(source, sink, bytes, meter ? &*meter : nullptr));
  out.end = eng.virtual_now();
  out.window = out.transfer.end - out.transfer.start;
  if (meter) out.series_gbps = meter->series_gbps();
  out.sink_digest = sess.sink_digest();
  out.src_usage = out.transfer.sender_usage;
  out.dst_usage = out.transfer.receiver_usage;
  if (inj) {
    out.faults_injected = inj->faults_injected();
    out.messages_failed = inj->messages_failed();
  }
  out.retransmissions = sess.retransmissions;
  out.grant_retransmissions = sess.grant_retransmissions;
  out.failovers = sess.failovers;
  out.checkpoints = sess.checkpoints;
  out.rolled_back_blocks = sess.rolled_back_blocks;
  out.false_suspicions = sess.watchdog().false_suspicions();
  if (const stats::Registry* reg = obs.registry()) {
    out.drain_hist = reg->merged_histogram("drain_ns");
    out.mttr_hist = reg->merged_histogram("mttr_ns");
    out.resume_hist = reg->merged_histogram("resume_ns");
  }
  obs.finish(out.transfer.complete && out.transfer.integrity_ok, out);
  return out;
}

}  // namespace

int TransferParams::streams_or_default() const noexcept {
  if (streams > 0) return streams;
  return rig == Rig::kQuick ? 1 : rig == Rig::kWan ? 4 : 3;
}

TransferRun run_transfer(const TransferParams& p) {
  switch (p.rig) {
    case Rig::kQuick: {
      sim::Engine eng;
      HostPair hp(eng, {"a", "b", "wire", "client", "server"},
                  &net::make_roce_lan);
      rftp::MemorySource src(p.bytes, numa::Placement::on(0));
      rftp::MemorySink dst;
      return drive(p, {&hp.pa, {&hp.da}}, {&hp.pb, {&hp.db}},
                   {hp.link.get()}, src, dst, p.bytes);
    }
    case Rig::kE2e: {
      EndToEndTestbed tb(p.numa, p.bytes);
      tb.start();
      numa::Process sp(*tb.src_fe, "client", numa::NumaBinding::os_default());
      numa::Process rp(*tb.dst_fe, "server", numa::NumaBinding::os_default());
      const auto locality = san_locality(tb.src_san.get());
      // One file, or the dataset split into `files` (the source volume
      // keeps its single dataset file either way).
      rftp::FileSet sset(*tb.src_fs), dset(*tb.dst_fs);
      std::unique_ptr<rftp::DataSource> src;
      std::unique_ptr<rftp::DataSink> dst;
      if (p.files > 1) {
        const std::uint64_t each = p.bytes / p.files / 512 * 512;
        sset.create_filled("part", p.files, each);
        dset.create_empty("part-copy", p.files, each);
        src = std::make_unique<rftp::FileSetSource>(sset, locality);
        dst = std::make_unique<rftp::FileSetSink>(dset);
      } else {
        src = std::make_unique<rftp::FileSource>(*tb.src_fs, *tb.src_file,
                                                 true, locality);
        dst = std::make_unique<rftp::FileSink>(*tb.dst_fs, *tb.dst_file);
      }
      return drive(p, {&sp, tb.src_roce()}, {&rp, tb.dst_roce()}, tb.links(),
                   *src, *dst, p.files > 1 ? sset.total_bytes() : p.bytes);
    }
    case Rig::kWan: {
      WanTestbed tb;
      rftp::MemorySource src(p.bytes, numa::Placement::on(0));
      rftp::MemorySink dst;
      return drive(p, {tb.a_proc.get(), {tb.a_dev.get()}},
                   {tb.b_proc.get(), {tb.b_dev.get()}}, {tb.link.get()}, src,
                   dst, p.bytes);
    }
  }
  return {};
}

SanRun run_san(const SanParams& p) {
  SanTestbed tb(p.san);
  tb.start();
  Observe obs(tb.eng, p.obs);
  SanRun out;
  out.fio = tb.run_fio(p.fio, p.threads_per_lun);
  obs.finish(true, out);
  return out;
}

MotivatingRun run_motivating(const Observers& o) {
  MotivatingRun out;
  for (const bool tuned : {false, true}) {
    FrontEndPair pair;
    Observers run_obs = o;
    if (!tuned) run_obs.trace = nullptr;
    Observe obs(pair.eng, run_obs);
    apps::IperfConfig cfg;
    cfg.bidirectional = true;
    cfg.numa_tuned = tuned;
    cfg.sender_buffer_bytes = 256ull << 20;  // defeat the LLC
    cfg.duration = 3 * sim::kSecond;
    (tuned ? out.tuned : out.stock) =
        apps::run_iperf(pair.eng, *pair.a, *pair.b, pair.iperf_links(), cfg);
    obs.finish(true, out);
  }
  return out;
}

double run_stream_triad(bool numa_local) {
  sim::Engine eng;
  numa::Host host(eng, model::front_end_lan_host("fe"));
  numa::StreamOptions opts;
  opts.numa_local = numa_local;
  return numa::run_stream_triad(eng, host, opts).triad_gBps;
}

Fig4Run run_fig4(std::uint64_t bytes, sim::SimDuration tcp_duration) {
  Fig4Run out;
  {
    FrontEndPair pair;
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
    const auto r = run_task(pair.eng, sess.run(src, dst, bytes));
    out.rftp.gbps = r.goodput_gbps;
    out.rftp.window = r.end - r.start;
    out.rftp.both_ends = r.sender_usage;
    out.rftp.both_ends.merge(r.receiver_usage);
  }
  FrontEndPair pair;
  apps::IperfConfig cfg;
  cfg.numa_tuned = true;
  cfg.streams_per_link = 4;
  cfg.chunk_bytes = 1 << 20;
  cfg.sender_buffer_bytes = 256ull << 20;
  cfg.duration = tcp_duration;
  const std::vector<apps::IperfLink> one = {pair.iperf_links()[0]};
  const auto r = apps::run_iperf(pair.eng, *pair.a, *pair.b, one, cfg);
  out.tcp.gbps = r.aggregate_gbps;
  out.tcp.window = tcp_duration;
  out.tcp.both_ends = r.usage_a;
  out.tcp.both_ends.merge(r.usage_b);
  return out;
}

apps::PerftestResult run_perftest(const apps::PerftestConfig& cfg,
                                  bool latency) {
  sim::Engine eng;
  HostPair hp(eng, {"a", "b", "wire", "client", "server"},
              &net::make_roce_lan);
  rdma::ConnectedPair qp(hp.da, hp.db, *hp.link);
  return latency ? apps::run_lat(eng, qp, hp.pa, hp.pb, cfg)
                 : apps::run_bw(eng, qp, hp.pa, hp.pb, cfg);
}

namespace {

/// GridFTP from `tb`'s source to its destination over the three RoCE
/// links, or back in `reverse` between the reverse files.
sim::Task<rftp::TransferResult> gridftp(const EndToEndTestbed& tb,
                                        bool reverse, std::uint64_t bytes,
                                        metrics::ThroughputMeter* meter) {
  std::vector<apps::GridFtpLink> links;
  for (std::size_t i = 0; i < 3; ++i) {
    const numa::NodeId s = tb.src_devs[i]->node();
    const numa::NodeId d = tb.dst_devs[i]->node();
    links.push_back({tb.roce_links[i].get(), reverse ? d : s, reverse ? s : d});
  }
  const apps::GridFtpEndpoint a{tb.src_fe.get(), tb.src_fs.get(),
                                reverse ? tb.rev_dst_file : tb.src_file};
  const apps::GridFtpEndpoint b{tb.dst_fe.get(), tb.dst_fs.get(),
                                reverse ? tb.rev_src_file : tb.dst_file};
  co_return co_await apps::gridftp_transfer(reverse ? b : a, reverse ? a : b,
                                            links, bytes,
                                            apps::GridFtpConfig{}, meter);
}

/// One RFTP direction of a bidirectional run.
struct RftpDirection {
  RftpDirection(EndToEndTestbed& tb, bool reverse)
      : sp(reverse ? *tb.dst_fe : *tb.src_fe, "rftp-c"),
        rp(reverse ? *tb.src_fe : *tb.dst_fe, "rftp-s"),
        sess({&sp, reverse ? tb.dst_roce() : tb.src_roce()},
             {&rp, reverse ? tb.src_roce() : tb.dst_roce()}, tb.links(),
             rftp::RftpConfig{}),
        src(reverse ? *tb.dst_fs : *tb.src_fs,
            reverse ? *tb.rev_src_file : *tb.src_file, true,
            san_locality(reverse ? tb.dst_san.get() : tb.src_san.get())),
        dst(reverse ? *tb.src_fs : *tb.dst_fs,
            reverse ? *tb.rev_dst_file : *tb.dst_file) {}

  numa::Process sp, rp;
  rftp::RftpSession sess;
  rftp::FileSource src;
  rftp::FileSink dst;
};

/// Builds one direction of `app` over `tb`; the returned task runs it. An
/// RFTP direction lives in `rftp` past its transfer: the session's
/// detached coroutines stay suspended on the engine until teardown.
sim::Task<rftp::TransferResult> launch(App app, EndToEndTestbed& tb,
                                       bool reverse, std::uint64_t bytes,
                                       std::unique_ptr<RftpDirection>& rftp) {
  if (app == App::kGridFtp) return gridftp(tb, reverse, bytes, nullptr);
  rftp = std::make_unique<RftpDirection>(tb, reverse);
  return rftp->sess.run(rftp->src, rftp->dst, bytes);
}

sim::Task<> run_then_done(sim::Task<rftp::TransferResult> run,
                          sim::WaitGroup* wg) {
  (void)co_await std::move(run);
  wg->done();
}

}  // namespace

TransferRun run_e2e_gridftp(std::uint64_t bytes) {
  EndToEndTestbed tb(true, bytes);
  tb.start();
  metrics::ThroughputMeter meter(tb.eng, sim::kSecond);
  const sim::SimTime t0 = tb.eng.virtual_now();
  TransferRun out;
  out.transfer = run_task(tb.eng, gridftp(tb, false, bytes, &meter));
  out.end = tb.eng.virtual_now();
  out.window = out.end - t0;
  out.series_gbps = meter.series_gbps();
  out.src_usage = tb.src_fe->total_usage();
  out.dst_usage = tb.dst_fe->total_usage();
  return out;
}

BidirRun run_e2e_bidir(App app, std::uint64_t bytes) {
  EndToEndTestbed tb(true, bytes);
  tb.add_reverse_files();
  tb.start();
  std::unique_ptr<RftpDirection> rftp_fwd, rftp_rev;
  auto fwd = launch(app, tb, false, bytes, rftp_fwd);
  auto rev = launch(app, tb, true, bytes, rftp_rev);

  const sim::SimTime t0 = tb.eng.virtual_now();
  sim::WaitGroup wg(tb.eng);
  wg.add(2);
  sim::co_spawn(run_then_done(std::move(fwd), &wg));
  sim::co_spawn(run_then_done(std::move(rev), &wg));
  // The window closes when both directions complete, not when the engine
  // drains: a GridFTP direction's drain trails its completion by 90-133 ms.
  const sim::SimTime end = run_task(
      tb.eng,
      [](sim::WaitGroup& w, sim::Engine& eng) -> sim::Task<sim::SimTime> {
        co_await w.wait();
        co_return eng.virtual_now();
      }(wg, tb.eng));

  BidirRun out;
  out.window = end - t0;
  out.aggregate_gbps = static_cast<double>(2 * bytes) * 8.0 /
                       static_cast<double>(out.window);
  out.src_usage = tb.src_fe->total_usage();
  return out;
}

double run_sink_fs(SinkFs kind) {
  EndToEndTestbed tb(true, 16ull << 30);
  tb.start();

  // A fresh destination filesystem on the striped volume. Raw is XFS with
  // the file's allocation already covering it (no allocation path at
  // runtime); only the buffered variant goes through the page cache.
  std::unique_ptr<blk::FileSystem> fs;
  if (kind == SinkFs::kExt4) {
    fs = std::make_unique<blk::Ext4Sim>(*tb.dst_fe, tb.dst_san->striped(),
                                        nullptr, std::vector<numa::Thread*>{});
  } else if (kind == SinkFs::kXfsBuffered) {
    std::vector<numa::Thread*> pool;
    for (int i = 0; i < 8; ++i) pool.push_back(&tb.dst_kernel->spawn_thread());
    fs = std::make_unique<blk::XfsSim>(*tb.dst_fe, tb.dst_san->striped(),
                                       tb.dst_cache.get(), pool);
  } else {
    fs = std::make_unique<blk::XfsSim>(*tb.dst_fe, tb.dst_san->striped(),
                                       nullptr, std::vector<numa::Thread*>{});
  }
  blk::File& out = fs->create("sink", tb.dataset_bytes);
  if (kind == SinkFs::kRaw) out.allocated = out.reserved;

  numa::Process sp(*tb.src_fe, "rftp-c", numa::NumaBinding::os_default());
  numa::Process rp(*tb.dst_fe, "rftp-s", numa::NumaBinding::os_default());
  rftp::RftpSession sess({&sp, tb.src_roce()}, {&rp, tb.dst_roce()},
                         tb.links(), rftp::RftpConfig{});
  rftp::FileSource src(*tb.src_fs, *tb.src_file);
  rftp::FileSink dst(*fs, out, kind != SinkFs::kXfsBuffered);
  return run_task(tb.eng, sess.run(src, dst, tb.dataset_bytes)).goodput_gbps;
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
    run_task(eng, tcp_sess->start(irx, itx, trx, ttx));
    init_dm = &tcp_sess->initiator_ep();
    tgt_dm = &tcp_sess->target_ep();
  } else {
    fe_dev = std::make_unique<rdma::Device>(
        fe, model::NicProfile{"ib0", model::LinkType::kInfiniBand, 56.0,
                              65520, 0, 63.0});
    be_dev = std::make_unique<rdma::Device>(be, be.profile().nics[0]);
    rdma_sess = std::make_unique<iser::IserSession>(*fe_dev, *be_dev, *link,
                                                    iproc, tproc);
    run_task(eng, rdma_sess->start(irx, trx));
    init_dm = &rdma_sess->initiator_ep();
    tgt_dm = &rdma_sess->target_ep();
  }

  iscsi::Target target(tproc, *tgt_dm, {&lun}, staging);
  target.start(8);
  iscsi::Initiator initiator(iproc, *init_dm, o.cmd_timer);
  iscsi::LoginParams params;
  if (!run_task(eng, initiator.login(irx, params)))
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

  using metrics::CpuCategory;
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

}  // namespace e2e::exp
