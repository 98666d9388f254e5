#include "exp/san_section.hpp"

#include <stdexcept>

namespace e2e::exp {

namespace {
// Registered staging pool per target (one target per iSER session):
// 48 buffers of 8 MiB.
constexpr std::size_t kStagingBuffers = 48;
constexpr std::uint64_t kStagingBytes = 8ull << 20;
// Target worker threads per served LUN: the paper's optimum (Sec. 4.2).
constexpr int kThreadsPerLun = 4;
}  // namespace

SanSection::SanSection(sim::Engine& eng, numa::Host& fe_host,
                       std::vector<rdma::Device*> fe_ib, std::string name,
                       SanConfig cfg)
    : eng_(eng), fe_host_(fe_host), fe_ib_(std::move(fe_ib)), cfg_(cfg) {
  if (fe_ib_.size() != 2)
    throw std::invalid_argument("SAN section expects two front-end IB ports");

  target_host_ = std::make_unique<numa::Host>(
      eng, model::back_end_lan_host(name + "-target"));
  for (const auto& nic : target_host_->profile().nics)
    tgt_ib_.push_back(std::make_unique<rdma::Device>(*target_host_, nic));

  for (int i = 0; i < 2; ++i) {
    links_.push_back(net::make_ib_lan(eng, name + "-ib" + std::to_string(i)));
    links_.back()->bind_endpoints(&fe_host_, target_host_.get());
  }

  tmpfs_ = std::make_unique<mem::Tmpfs>(*target_host_);
  // With either static numactl tuning or the dynamic libnuma scheduler the
  // target allocates LUN pages and staging buffers node-locally; only the
  // fully untuned baseline interleaves.
  const bool bound_memory = cfg_.numa_tuned || cfg_.libnuma_dynamic;

  // LUN backing files: pinned per serving node when tuned (mpol=bind),
  // interleaved otherwise. LUN l is served over link (l % 2) whose target
  // NIC sits on node (l % 2).
  for (int l = 0; l < kLuns; ++l) {
    const int session = l % 2;
    const numa::NodeId node = tgt_ib_[session]->node();
    auto& file = tmpfs_->create(
        "lun" + std::to_string(l), cfg_.lun_bytes,
        bound_memory ? numa::MemPolicy::kBind : numa::MemPolicy::kInterleave,
        node);
    luns_.push_back(
        std::make_unique<scsi::Lun>(static_cast<std::uint32_t>(l), *tmpfs_,
                                    file));
  }

  // Target processes: per-node numactl binding when tuned, one untuned
  // process otherwise.
  if (cfg_.numa_tuned) {
    for (int n = 0; n < target_host_->node_count(); ++n)
      tgt_procs_.push_back(std::make_unique<numa::Process>(
          *target_host_, name + "-tgtd" + std::to_string(n),
          numa::NumaBinding::bound(n)));
  } else {
    tgt_procs_.push_back(std::make_unique<numa::Process>(
        *target_host_, name + "-tgtd", numa::NumaBinding::os_default()));
  }

  init_proc_ = std::make_unique<numa::Process>(
      fe_host_, name + "-initiator",
      cfg_.numa_tuned ? numa::NumaBinding{numa::SchedPolicy::kBindNode,
                                          numa::MemPolicy::kBind,
                                          numa::kAnyNode}
                      : numa::NumaBinding::os_default());

  // One iSER session per link; one Target per session.
  for (int s = 0; s < 2; ++s) {
    numa::Process& tproc =
        *tgt_procs_[cfg_.numa_tuned ? static_cast<std::size_t>(s) : 0];
    sessions_.push_back(std::make_unique<iser::IserSession>(
        *fe_ib_[s], *tgt_ib_[s], *links_[s], *init_proc_, tproc));

    staging_pools_.push_back(std::make_unique<mem::BufferPool>(
        *target_host_, name + "-staging" + std::to_string(s),
        kStagingBuffers, kStagingBytes,
        bound_memory ? numa::MemPolicy::kBind : numa::MemPolicy::kInterleave,
        tgt_ib_[s]->node()));
    staging_pools_.back()->mark_registered();

    std::vector<scsi::Lun*> subset;
    for (int l = s; l < kLuns; l += 2) subset.push_back(luns_[l].get());
    targets_.push_back(std::make_unique<iscsi::Target>(
        tproc, sessions_.back()->target_ep(), subset, *staging_pools_.back(),
        cfg_.libnuma_dynamic ? iscsi::TargetSched::kNumaRouted
                             : iscsi::TargetSched::kShared));

    initiators_.push_back(std::make_unique<iscsi::Initiator>(
        *init_proc_, sessions_.back()->initiator_ep()));
  }

  for (int l = 0; l < kLuns; ++l)
    lun_devices_.push_back(std::make_unique<blk::RemoteBlockDevice>(
        *initiators_[static_cast<std::size_t>(l % 2)],
        static_cast<std::uint32_t>(l), cfg_.lun_bytes));

  std::vector<blk::BlockDevice*> members;
  for (auto& d : lun_devices_) members.push_back(d.get());
  striped_ =
      std::make_unique<blk::StripedBlockDevice>(members, 4ull << 20);
}

sim::Task<> SanSection::start() {
  for (int s = 0; s < 2; ++s) {
    numa::Process& tproc =
        *tgt_procs_[cfg_.numa_tuned ? static_cast<std::size_t>(s) : 0];
    numa::Thread& ith = init_proc_->spawn_thread(fe_ib_[s]->node());
    numa::Thread& tth = tproc.spawn_thread(tgt_ib_[s]->node());
    co_await sessions_[s]->start(ith, tth);

    // Each session serves half of the (even) LUN count.
    targets_[s]->start(kThreadsPerLun * (kLuns / 2));

    const iscsi::LoginParams proposal{};
    const bool ok = co_await initiators_[s]->login(ith, proposal);
    if (!ok) throw std::runtime_error("iSER login failed");
    initiators_[s]->start_dispatcher(ith);
  }
}

}  // namespace e2e::exp
