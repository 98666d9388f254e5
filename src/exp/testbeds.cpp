#include "exp/testbeds.hpp"

#include <algorithm>

#include "metrics/throughput.hpp"

namespace e2e::exp {

model::HostProfile front_end_with_ib(const std::string& name) {
  auto h = model::front_end_lan_host(name);
  h.nics.push_back(
      {"ib0", model::LinkType::kInfiniBand, 56.0, 65520, 0, 63.0});
  h.nics.push_back(
      {"ib1", model::LinkType::kInfiniBand, 56.0, 65520, 1, 63.0});
  return h;
}

namespace {
std::vector<std::unique_ptr<rdma::Device>> make_devices(numa::Host& host) {
  std::vector<std::unique_ptr<rdma::Device>> devs;
  for (const auto& nic : host.profile().nics)
    devs.push_back(std::make_unique<rdma::Device>(host, nic));
  return devs;
}
}  // namespace

// --- FrontEndPair ---

FrontEndPair::FrontEndPair() {
  a = std::make_unique<numa::Host>(eng, model::front_end_lan_host("fe-a"));
  b = std::make_unique<numa::Host>(eng, model::front_end_lan_host("fe-b"));
  a_roce = make_devices(*a);
  b_roce = make_devices(*b);
  for (int i = 0; i < 3; ++i) {
    links.push_back(net::make_roce_lan(eng, "roce" + std::to_string(i)));
    links.back()->bind_endpoints(a.get(), b.get());
  }
}

std::vector<apps::IperfLink> FrontEndPair::iperf_links() const {
  std::vector<apps::IperfLink> out;
  for (std::size_t i = 0; i < links.size(); ++i)
    out.push_back({links[i].get(), a_roce[i]->node(), b_roce[i]->node()});
  return out;
}

// --- SanTestbed ---

SanTestbed::SanTestbed(SanConfig cfg) {
  fe = std::make_unique<numa::Host>(eng, front_end_with_ib("fe-init"));
  fe_devs = make_devices(*fe);
  // IB devices are profile entries 3 and 4.
  san = std::make_unique<SanSection>(
      eng, *fe, std::vector<rdma::Device*>{fe_devs[3].get(), fe_devs[4].get()},
      "san", cfg);
}

void SanTestbed::start() { run_task(eng, san->start()); }

SanTestbed::FioReport SanTestbed::run_fio(const apps::FioOptions& opts,
                                          int threads_per_lun) {
  const SanConfig& scfg = san->config();
  numa::Process fio_proc(*fe, "fio",
                         numa::NumaBinding{numa::SchedPolicy::kBindNode,
                                           numa::MemPolicy::kBind,
                                           numa::kAnyNode});
  auto counters = std::make_unique<apps::FioCounters>();
  const metrics::CpuUsage base = san->target_usage();
  const sim::SimTime t0 = eng.now();

  for (int l = 0; l < SanSection::kLuns; ++l) {
    const numa::NodeId node = san->lun_fe_node(l);
    // Block-aligned per-thread region within the LUN.
    std::uint64_t region =
        scfg.lun_bytes / static_cast<std::uint64_t>(threads_per_lun);
    region -= region % opts.block_bytes;
    for (int t = 0; t < threads_per_lun; ++t) {
      numa::Thread& th = fio_proc.spawn_thread(node);
      const numa::Placement buf = fio_proc.alloc(opts.block_bytes, node);
      sim::co_spawn(apps::fio_worker(
          th, san->lun_device(l), opts,
          static_cast<std::uint64_t>(t) * region, region, buf,
          counters.get()));
    }
  }

  eng.run_until(t0 + opts.duration);

  FioReport r;
  r.gbps = metrics::gbps(counters->bytes, opts.duration);
  r.ios = counters->ios;
  r.target_usage = san->target_usage().since(base);
  r.target_cpu_pct = r.target_usage.total_percent(opts.duration);
  // Drain in-flight I/O so back-to-back runs start clean.
  eng.run();
  return r;
}

// --- EndToEndTestbed ---

EndToEndTestbed::EndToEndTestbed(bool tuned, std::uint64_t dataset)
    : dataset_bytes(dataset), numa_tuned(tuned) {
  src_fe = std::make_unique<numa::Host>(eng, front_end_with_ib("src-fe"));
  dst_fe = std::make_unique<numa::Host>(eng, front_end_with_ib("dst-fe"));
  src_devs = make_devices(*src_fe);
  dst_devs = make_devices(*dst_fe);
  for (int i = 0; i < 3; ++i) {
    roce_links.push_back(net::make_roce_lan(eng, "fe" + std::to_string(i)));
    roce_links.back()->bind_endpoints(src_fe.get(), dst_fe.get());
  }

  SanConfig scfg;
  scfg.numa_tuned = tuned;
  src_san = std::make_unique<SanSection>(
      eng, *src_fe,
      std::vector<rdma::Device*>{src_devs[3].get(), src_devs[4].get()},
      "src", scfg);
  dst_san = std::make_unique<SanSection>(
      eng, *dst_fe,
      std::vector<rdma::Device*>{dst_devs[3].get(), dst_devs[4].get()},
      "dst", scfg);

  // Kernel context (page cache + flusher) and XFS on both front-ends.
  src_kernel = std::make_unique<numa::Process>(
      *src_fe, "kernel", numa::NumaBinding::os_default());
  dst_kernel = std::make_unique<numa::Process>(
      *dst_fe, "kernel", numa::NumaBinding::os_default());
  src_cache = std::make_unique<blk::PageCache>(*src_fe, 16ull << 30,
                                               2ull << 30);
  dst_cache = std::make_unique<blk::PageCache>(*dst_fe, 16ull << 30,
                                               2ull << 30);
  auto kernel_pool = [](numa::Process& kproc, int n) {
    std::vector<numa::Thread*> pool;
    for (int i = 0; i < n; ++i) pool.push_back(&kproc.spawn_thread());
    return pool;
  };
  src_fs = std::make_unique<blk::XfsSim>(*src_fe, src_san->striped(),
                                         src_cache.get(),
                                         kernel_pool(*src_kernel, 8));
  dst_fs = std::make_unique<blk::XfsSim>(*dst_fe, dst_san->striped(),
                                         dst_cache.get(),
                                         kernel_pool(*dst_kernel, 8));

  // Pre-existing source dataset; pre-created destination file.
  src_file = &src_fs->create("dataset", dataset_bytes);
  src_file->size = src_file->allocated = dataset_bytes;
  dst_file = &dst_fs->create("dataset-copy", dataset_bytes);
}

void EndToEndTestbed::start() {
  run_task(eng, src_san->start());
  run_task(eng, dst_san->start());
}

void EndToEndTestbed::add_reverse_files() {
  rev_src_file = &dst_fs->create("dataset-rev", dataset_bytes);
  rev_src_file->size = rev_src_file->allocated = dataset_bytes;
  rev_dst_file = &src_fs->create("dataset-rev-copy", dataset_bytes);
}

std::vector<rdma::Device*> EndToEndTestbed::src_roce() const {
  return {src_devs[0].get(), src_devs[1].get(), src_devs[2].get()};
}

std::vector<rdma::Device*> EndToEndTestbed::dst_roce() const {
  return {dst_devs[0].get(), dst_devs[1].get(), dst_devs[2].get()};
}

std::vector<net::Link*> EndToEndTestbed::links() const {
  std::vector<net::Link*> out;
  for (const auto& l : roce_links) out.push_back(l.get());
  return out;
}

// --- WanTestbed ---

WanTestbed::WanTestbed() {
  a = std::make_unique<numa::Host>(eng, model::wan_host("nersc"));
  b = std::make_unique<numa::Host>(eng, model::wan_host("anl"));
  a_dev = std::make_unique<rdma::Device>(*a, a->profile().nics[0]);
  b_dev = std::make_unique<rdma::Device>(*b, b->profile().nics[0]);
  link = net::make_ani_wan(eng, "ani-loop");
  link->bind_endpoints(a.get(), b.get());
  a_proc = std::make_unique<numa::Process>(
      *a, "rftp-client", numa::NumaBinding::bound(a_dev->node()));
  b_proc = std::make_unique<numa::Process>(
      *b, "rftp-server", numa::NumaBinding::bound(b_dev->node()));
}

}  // namespace e2e::exp
