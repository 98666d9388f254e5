// Bulk workloads: one RFTP transfer through the public scenario API, set
// up exactly as `e2e_transfer_sim e2e` / `wan --fast-forward 1` do.
//
//   e2e-san  EndToEndTestbed (numa-tuned), 128 GiB, 3 streams x 16 credits
//            x 4 MiB over SAN -> RoCE -> SAN, event-exact.
//   wan-ff   WanTestbed (95 ms loop), 64 TiB, 4 streams x 16 credits x
//            4 MiB, fast-forward on.
//
// The transfer draws no random numbers and injects no faults, so the seed
// does not change it. Timed: exp::run_task (wall_s, cpu_s). Everything else
// in the repetition (testbed build, SAN logins, session setup, observer
// finalize/export, teardown) is set-up time.
#include <cinttypes>
#include <cstdio>
#include <memory>
#include <sstream>
#include <string>

#include "check/audit.hpp"
#include "common.hpp"
#include "exp/exp.hpp"
#include "metrics/metrics.hpp"
#include "numa/numa.hpp"
#include "rftp/rftp.hpp"
#include "stats/stats.hpp"
#include "trace/trace.hpp"

namespace perfbench {

using namespace e2e;

namespace {

/// Modeled CPU booked on a group of hosts: {user-proto, kernel-proto, copy}
/// ns, as a JSON array.
std::string usage_json(const std::vector<numa::Host*>& hosts,
                       const std::vector<metrics::CpuUsage>& base) {
  using metrics::CpuCategory;
  sim::SimDuration ns[3] = {0, 0, 0};
  for (std::size_t i = 0; i < hosts.size(); ++i) {
    const metrics::CpuUsage d = hosts[i]->total_usage().since(base[i]);
    ns[0] += d.get(CpuCategory::kUserProto);
    ns[1] += d.get(CpuCategory::kKernelProto);
    ns[2] += d.get(CpuCategory::kCopy);
  }
  std::ostringstream os;
  os << "[" << ns[0] << "," << ns[1] << "," << ns[2] << "]";
  return os.str();
}

std::vector<metrics::CpuUsage> snapshot(const std::vector<numa::Host*>& hs) {
  std::vector<metrics::CpuUsage> out;
  for (auto* h : hs) out.push_back(h->total_usage());
  return out;
}

}  // namespace

int run_bulk(const Options& o) {
  const bool wan = o.workload == "wan-ff";
  const std::uint64_t gib =
      (wan ? (o.tiny ? 64 : 65536) : (o.tiny ? 1 : 128)) /
      static_cast<std::uint64_t>(o.size_div);
  const std::uint64_t bytes = gib << 30;

  SpanLog log;
  const int rep = log.open("rep");

  std::unique_ptr<exp::EndToEndTestbed> etb;
  std::unique_ptr<exp::WanTestbed> wtb;
  {
    Scope s(log, "build");
    if (wan)
      wtb = std::make_unique<exp::WanTestbed>();
    else
      etb = std::make_unique<exp::EndToEndTestbed>(true, bytes);
  }
  sim::Engine& eng = wan ? wtb->eng : etb->eng;
  if (!wan) {
    Scope s(log, "start");
    etb->start();
  }

  std::unique_ptr<numa::Process> sp, rp;
  std::unique_ptr<rftp::RftpSession> sess;
  std::unique_ptr<rftp::DataSource> src;
  std::unique_ptr<rftp::DataSink> dst;
  std::unique_ptr<metrics::ThroughputMeter> meter;
  std::vector<numa::Host*> src_hosts, dst_hosts, tgt_hosts;
  {
    Scope s(log, "session");
    rftp::RftpConfig cfg;  // 4 MiB blocks, 16 credits, checkpoint every ack
    if (wan) {
      cfg.streams = 4;
      cfg.fast_forward = true;
      sess = std::make_unique<rftp::RftpSession>(
          rftp::EndpointConfig{wtb->a_proc.get(), {wtb->a_dev.get()}},
          rftp::EndpointConfig{wtb->b_proc.get(), {wtb->b_dev.get()}},
          std::vector<net::Link*>{wtb->link.get()}, cfg);
      src = std::make_unique<rftp::MemorySource>(bytes,
                                                 numa::Placement::on(0));
      dst = std::make_unique<rftp::MemorySink>();
      src_hosts = {wtb->a.get()};
      dst_hosts = {wtb->b.get()};
    } else {
      sp = std::make_unique<numa::Process>(*etb->src_fe, "client",
                                           numa::NumaBinding::os_default());
      rp = std::make_unique<numa::Process>(*etb->dst_fe, "server",
                                           numa::NumaBinding::os_default());
      sess = std::make_unique<rftp::RftpSession>(
          rftp::EndpointConfig{sp.get(), etb->src_roce()},
          rftp::EndpointConfig{rp.get(), etb->dst_roce()}, etb->links(), cfg);
      exp::SanSection* san = etb->src_san.get();
      src = std::make_unique<rftp::FileSource>(
          *etb->src_fs, *etb->src_file, true,
          [san](std::uint64_t off, std::uint64_t) {
            return san->fe_node_of(off);
          });
      dst = std::make_unique<rftp::FileSink>(*etb->dst_fs, *etb->dst_file);
      meter = std::make_unique<metrics::ThroughputMeter>(eng, sim::kSecond);
      src_hosts = {etb->src_fe.get()};
      dst_hosts = {etb->dst_fe.get()};
      tgt_hosts = {&etb->src_san->target_host(), &etb->dst_san->target_host()};
    }
  }

  // Observers attach after set-up, as the CLI's scopes do, so they cover
  // the transfer only.
  std::unique_ptr<stats::Registry> reg;
  std::unique_ptr<check::Auditor> aud;
  std::unique_ptr<trace::Tracer> tracer;
  if (o.stats) {
    reg = std::make_unique<stats::Registry>(eng);
    reg->install();
  }
  if (o.audit) aud = std::make_unique<check::Auditor>(eng);
  if (o.tracer) {
    tracer = std::make_unique<trace::Tracer>(eng);
    tracer->install();
    tracer->enable_resource_sampler(10 * sim::kMillisecond);
  }
  const auto src_base = snapshot(src_hosts);
  const auto dst_base = snapshot(dst_hosts);
  const auto tgt_base = snapshot(tgt_hosts);

  set_alloc_counting(o.count_allocs);
  const std::uint64_t ev0 = eng.events_processed();
  const std::uint64_t a0 = allocs();
  const double c0 = cpu_s(), s0 = sys_s();
  rftp::TransferResult r;
  const int run = log.open("run_task");
  r = exp::run_task(eng, sess->run(*src, *dst, bytes, meter.get()));
  log.close(run);
  const double cpu = cpu_s() - c0, sys = sys_s() - s0;
  const std::uint64_t n_allocs = allocs() - a0;
  set_alloc_counting(false);
  const std::uint64_t events = eng.events_processed() - ev0;

  bool audit_ok = true;
  std::size_t audit_violations = 0;
  if (aud) {
    Scope s(log, "finalize");
    aud->finalize();
    audit_ok = aud->ok();
    audit_violations = aud->violations().size();
  }
  std::string stats_json = "null";
  if (reg) {
    Scope s(log, "write_json");
    std::ostringstream os;
    reg->write_json(os);
    stats_json = os.str();
  }

  JsonLine j;
  j.str("workload", o.workload)
      .u64("seed", o.seed)
      .str("cli", (wan ? "wan --fast-forward 1 --gib " : "e2e --gib ") +
                      std::to_string(gib))
      .u64("gib", gib);
  char fp[256];
  std::snprintf(fp, sizeof fp,
                "bulk-v1 bytes=%" PRIu64 " blocks=%" PRIu64
                " elapsed=%.17g gbps=%.17g digest=%016" PRIx64
                " complete=%d integrity=%d",
                r.bytes, r.blocks, r.elapsed_s, r.goodput_gbps,
                sess->sink_digest(), r.complete ? 1 : 0,
                r.integrity_ok ? 1 : 0);
  j.str("fingerprint", fp)
      .boolean("complete", r.complete)
      .boolean("integrity_ok", r.integrity_ok)
      .boolean("audit_ok", audit_ok)
      .u64("audit_violations", audit_violations)
      .u64("bytes", r.bytes)
      .u64("blocks", r.blocks)
      .num("elapsed_s", r.elapsed_s)
      .num("gbps", r.goodput_gbps)
      .u64("ff_spans", r.ff_spans)
      .u64("ff_blocks", r.ff_blocks)
      .num("ff_skipped_s", sim::to_seconds(r.ff_skipped_ns))
      .u64("control_msgs", sess->control_messages())
      .u64("events", events)
      .u64("heap_peak", eng.queue_capacity())
      .u64("allocs", n_allocs)
      .raw("cpu_src", usage_json(src_hosts, src_base))
      .raw("cpu_dst", usage_json(dst_hosts, dst_base))
      .raw("cpu_targets", usage_json(tgt_hosts, tgt_base));

  {
    // Destruction order of the CLI's e2e run: observers, then the session,
    // then the processes and testbed.
    Scope s(log, "teardown");
    src.reset();
    dst.reset();
    tracer.reset();
    aud.reset();
    reg.reset();
    meter.reset();
    sess.reset();
    rp.reset();
    sp.reset();
    etb.reset();
    wtb.reset();
  }
  log.close(rep);

  j.num("wall_s", log.seconds(run))
      .num("cpu_s", cpu)
      .num("sys_s", sys)
      .num("setup_s", log.seconds(rep) - log.seconds(run))
      .raw("spans", log.json())
      .raw("stats", stats_json);
  add_build_info(j);
  j.print();
  return 0;
}

}  // namespace perfbench
