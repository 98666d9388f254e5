// Testbed assemblies reproducing the paper's Figure 5 / Figure 6 setups.
//
//  * FrontEndPair   — two front-end hosts, three 40G RoCE links (§2.3
//                     motivating experiment, Fig. 4 cost breakdown).
//  * SanTestbed     — front-end initiator + back-end target over two IB
//                     FDR links (Figs. 7/8 iSER evaluation).
//  * EndToEndTestbed— the full Fig. 5 system: SAN -> front-end pair ->
//                     SAN with XFS over iSER on both sides (Figs. 9-12).
//  * WanTestbed     — two hosts on the 95 ms ANI 40G RoCE loop
//                     (Figs. 13/14).
#pragma once

#include <memory>
#include <vector>

#include "apps/fio.hpp"
#include "apps/iperf.hpp"
#include "blk/filesystem.hpp"
#include "exp/san_section.hpp"
#include "exp/runner.hpp"
#include "model/host_profile.hpp"
#include "net/link.hpp"
#include "numa/numa.hpp"
#include "rdma/device.hpp"

namespace e2e::exp {

/// Front-end host profile with the two extra IB FDR ports that connect it
/// to its SAN (Fig. 5 shows both fabrics on each front-end host).
model::HostProfile front_end_with_ib(const std::string& name);

/// Two front-end hosts joined by their three RoCE links.
class FrontEndPair {
 public:
  FrontEndPair();

  sim::Engine eng;
  std::unique_ptr<numa::Host> a;
  std::unique_ptr<numa::Host> b;
  std::vector<std::unique_ptr<rdma::Device>> a_roce;  // 3 devices
  std::vector<std::unique_ptr<rdma::Device>> b_roce;
  std::vector<std::unique_ptr<net::Link>> links;      // 3 RoCE LAN links

  [[nodiscard]] std::vector<apps::IperfLink> iperf_links() const;
};

/// Figs. 7/8: iSER back-end storage evaluation.
class SanTestbed {
 public:
  explicit SanTestbed(SanConfig cfg);

  /// Brings the SAN up (sessions, logins, target workers).
  void start();

  struct FioReport {
    double gbps = 0.0;
    double target_cpu_pct = 0.0;  // absolute CPU (100% == one core)
    metrics::CpuUsage target_usage;
    std::uint64_t ios = 0;
  };
  /// The paper's fio run: `threads_per_lun` jobs per LUN, sequential
  /// read or write at `opts.block_bytes`, for opts.duration.
  FioReport run_fio(const apps::FioOptions& opts, int threads_per_lun);

  sim::Engine eng;
  std::unique_ptr<numa::Host> fe;
  std::vector<std::unique_ptr<rdma::Device>> fe_devs;  // profile order
  std::unique_ptr<SanSection> san;
};

/// Figs. 9-12: full end-to-end system.
class EndToEndTestbed {
 public:
  EndToEndTestbed(bool numa_tuned, std::uint64_t dataset_bytes);

  void start();

  sim::Engine eng;
  std::unique_ptr<numa::Host> src_fe;
  std::unique_ptr<numa::Host> dst_fe;
  std::vector<std::unique_ptr<rdma::Device>> src_devs;  // 0-2 RoCE, 3-4 IB
  std::vector<std::unique_ptr<rdma::Device>> dst_devs;
  std::vector<std::unique_ptr<net::Link>> roce_links;   // 3
  std::unique_ptr<SanSection> src_san;
  std::unique_ptr<SanSection> dst_san;

  // Front-end filesystems: XFS over the striped iSER volume.
  std::unique_ptr<numa::Process> src_kernel;
  std::unique_ptr<numa::Process> dst_kernel;
  std::unique_ptr<blk::PageCache> src_cache;
  std::unique_ptr<blk::PageCache> dst_cache;
  std::unique_ptr<blk::XfsSim> src_fs;
  std::unique_ptr<blk::XfsSim> dst_fs;
  blk::File* src_file = nullptr;  // pre-existing dataset
  blk::File* dst_file = nullptr;

  std::uint64_t dataset_bytes = 0;
  bool numa_tuned = true;

  [[nodiscard]] std::vector<rdma::Device*> src_roce() const;
  [[nodiscard]] std::vector<rdma::Device*> dst_roce() const;
  [[nodiscard]] std::vector<net::Link*> links() const;

  /// A reverse-direction file pair for bi-directional tests.
  void add_reverse_files();
  blk::File* rev_src_file = nullptr;  // on dst side
  blk::File* rev_dst_file = nullptr;  // on src side
};

/// Figs. 13/14: ANI WAN loop.
class WanTestbed {
 public:
  WanTestbed();

  sim::Engine eng;
  std::unique_ptr<numa::Host> a;
  std::unique_ptr<numa::Host> b;
  std::unique_ptr<rdma::Device> a_dev;
  std::unique_ptr<rdma::Device> b_dev;
  std::unique_ptr<net::Link> link;
  std::unique_ptr<numa::Process> a_proc;
  std::unique_ptr<numa::Process> b_proc;
};

}  // namespace e2e::exp
