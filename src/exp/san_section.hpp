// Back-end SAN section: one target host exporting LUNs to a front-end
// host over two InfiniBand FDR links via iSER (Fig. 5's back-end half).
//
// Tuned mode (the paper's NUMA tuning):
//   * one target *process* per NUMA node, numactl-bound (cpu + memory);
//   * tmpfs LUN files pinned to the serving node via mpol=bind;
//   * each node's process serves the iSER session of the NIC on its node;
//   * LUNs are split across the two links (0,2,4 -> link0; 1,3,5 -> link1).
// Untuned mode: a single target process under the stock scheduler with
// interleaved LUN files and first-touch staging memory.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "blk/block_device.hpp"
#include "iscsi/initiator.hpp"
#include "iscsi/target.hpp"
#include "iser/session.hpp"
#include "mem/buffer_pool.hpp"
#include "mem/tmpfs.hpp"
#include "model/host_profile.hpp"
#include "net/link.hpp"
#include "numa/numa.hpp"
#include "rdma/device.hpp"

namespace e2e::exp {

struct SanConfig {
  bool numa_tuned = true;
  /// Extension (paper's deferred future work): keep a single un-bound
  /// target process but dispatch each SCSI task to a worker on the LUN's
  /// home node via the libnuma-style scheduler (iscsi::TargetSched::
  /// kNumaRouted). Only meaningful with numa_tuned == false.
  bool libnuma_dynamic = false;
  std::uint64_t lun_bytes = 50ull << 30;  // 50 GB each, as the paper
};

class SanSection {
 public:
  /// LUNs exported by the target, as on the paper's testbed.
  static constexpr int kLuns = 6;

  /// `fe_host` is the front-end (initiator) host; `fe_ib` its two IB
  /// devices (index i connects over link i).
  SanSection(sim::Engine& eng, numa::Host& fe_host,
             std::vector<rdma::Device*> fe_ib, std::string name,
             SanConfig cfg);
  SanSection(const SanSection&) = delete;
  SanSection& operator=(const SanSection&) = delete;

  /// Brings up sessions, logins, dispatchers and target workers.
  sim::Task<> start();

  [[nodiscard]] numa::Host& target_host() noexcept { return *target_host_; }
  [[nodiscard]] const SanConfig& config() const noexcept { return cfg_; }

  /// Remote block device for one LUN (as seen from the front-end).
  [[nodiscard]] blk::RemoteBlockDevice& lun_device(int lun) {
    return *lun_devices_.at(static_cast<std::size_t>(lun));
  }
  /// All six LUNs striped RAID-0 (the front-end's logical volume).
  [[nodiscard]] blk::StripedBlockDevice& striped() { return *striped_; }

  /// NIC node on the front-end serving `lun` (for binding I/O threads).
  [[nodiscard]] numa::NodeId lun_fe_node(int lun) const {
    return fe_ib_.at(static_cast<std::size_t>(lun) % fe_ib_.size())->node();
  }

  /// NIC node on the front-end that a byte offset of the striped volume is
  /// served through (for RFTP's locality-aware block routing).
  [[nodiscard]] numa::NodeId fe_node_of(std::uint64_t offset) const {
    const std::uint64_t stripe = striped_->stripe_bytes();
    const auto member = static_cast<int>((offset / stripe) %
                                         striped_->member_count());
    return lun_fe_node(member);
  }

  [[nodiscard]] metrics::CpuUsage target_usage() const {
    return target_host_->total_usage();
  }

 private:
  sim::Engine& eng_;
  numa::Host& fe_host_;
  std::vector<rdma::Device*> fe_ib_;
  SanConfig cfg_;

  std::unique_ptr<numa::Host> target_host_;
  std::vector<std::unique_ptr<rdma::Device>> tgt_ib_;
  std::vector<std::unique_ptr<net::Link>> links_;
  std::unique_ptr<mem::Tmpfs> tmpfs_;
  std::vector<std::unique_ptr<scsi::Lun>> luns_;
  std::vector<std::unique_ptr<numa::Process>> tgt_procs_;
  std::unique_ptr<numa::Process> init_proc_;
  std::vector<std::unique_ptr<mem::BufferPool>> staging_pools_;
  std::vector<std::unique_ptr<iser::IserSession>> sessions_;
  std::vector<std::unique_ptr<iscsi::Target>> targets_;
  std::vector<std::unique_ptr<iscsi::Initiator>> initiators_;
  std::vector<std::unique_ptr<blk::RemoteBlockDevice>> lun_devices_;
  std::unique_ptr<blk::StripedBlockDevice> striped_;
};

}  // namespace e2e::exp
