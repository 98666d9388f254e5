// Single-engine scenario runners. The three RFTP rigs differ only in what
// they build before the session, their data source and their sink; the
// session, observers, fault plan, run and result fold are one path
// (drive()).
#include "exp/scenarios.hpp"

#include <memory>
#include <sstream>
#include <utility>

#include "check/audit.hpp"
#include "exp/pair_fleet.hpp"
#include "fault/injector.hpp"
#include "metrics/throughput.hpp"
#include "rftp/rftp.hpp"
#include "stats/registry.hpp"
#include "trace/tracer.hpp"

namespace e2e::exp {

namespace {

/// The observers of one run, installed in a fixed order (registry, auditor,
/// tracer) so entity ids and event sequence numbers never depend on which
/// are on. Without any, nothing is installed (the zero-cost path).
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

/// The shared RFTP path over a built rig (which owns everything the
/// arguments point at): session, e2e's per-second meter, observers, fault
/// plan, the run of `bytes` from `source` into `sink`, and the result fold.
TransferRun drive(const TransferParams& p, const rftp::EndpointConfig& src,
                  const rftp::EndpointConfig& dst,
                  const std::vector<net::Link*>& links,
                  rftp::DataSource& source, rftp::DataSink& sink,
                  std::uint64_t bytes) {
  numa::Host& src_host = src.proc->host();
  numa::Host& dst_host = dst.proc->host();
  sim::Engine& eng = src_host.engine();
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

  const sim::SimTime t0 = eng.now();
  out.transfer =
      run_task(eng, sess.run(source, sink, bytes, meter ? &*meter : nullptr));
  out.end = eng.now();
  out.window = out.end - t0;
  if (meter) out.series_gbps = meter->series_gbps();
  out.sink_digest = sess.sink_digest();
  out.src_usage = src_host.total_usage();
  out.dst_usage = dst_host.total_usage();
  if (inj) {
    out.faults_injected = inj->faults_injected();
    out.messages_failed = inj->messages_failed();
  }
  out.retransmissions = sess.retransmissions;
  out.failovers = sess.failovers;
  out.checkpoints = sess.checkpoints;
  out.rolled_back_blocks = sess.rolled_back_blocks;
  out.false_suspicions = sess.watchdog().false_suspicions();
  if (const stats::Registry* reg = obs.registry())
    out.drain_hist = reg->merged_histogram("drain_ns");
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
      const SanSection* san = tb.src_san.get();
      auto locality = [san](std::uint64_t off, std::uint64_t) {
        return san->fe_node_of(off);
      };
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

}  // namespace e2e::exp
