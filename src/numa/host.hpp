// NUMA host model.
//
// A Host owns the simulated hardware of one machine from Table 1:
//  * per-node CPU cores (rate = core_ghz cycles/s each),
//  * per-node memory channels (rate = STREAM-class GB/s),
//  * a QPI-style socket interconnect (one Resource per direction),
//  * per-node allocation accounting,
//  * DMA charging for devices (NICs) attached to a PCIe slot on some node.
//
// Threads (numa/thread.hpp) execute on cores and charge these resources;
// devices charge memory channels + interconnect through charge_dma().
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "metrics/cpu_usage.hpp"
#include "model/host_profile.hpp"
#include "numa/types.hpp"
#include "sim/engine.hpp"
#include "sim/period_marks.hpp"
#include "sim/resource.hpp"

namespace e2e::numa {

struct Core {
  CoreId id = 0;
  NodeId node = 0;
  std::unique_ptr<sim::Resource> cycles;  // cycles/s
  metrics::CpuUsage usage;
};

class Host {
 public:
  Host(sim::Engine& eng, model::HostProfile profile);
  Host(const Host&) = delete;
  Host& operator=(const Host&) = delete;

  [[nodiscard]] sim::Engine& engine() noexcept { return eng_; }
  [[nodiscard]] const model::HostProfile& profile() const noexcept {
    return profile_;
  }
  [[nodiscard]] const model::CostModel& costs() const noexcept {
    return profile_.costs;
  }
  [[nodiscard]] const std::string& name() const noexcept {
    return profile_.name;
  }

  [[nodiscard]] int node_count() const noexcept { return profile_.numa_nodes; }
  [[nodiscard]] int core_count() const noexcept {
    return static_cast<int>(cores_.size());
  }

  [[nodiscard]] Core& core(CoreId id) { return *cores_.at(id); }
  [[nodiscard]] const Core& core(CoreId id) const { return *cores_.at(id); }

  /// Memory channel (bandwidth) of one NUMA node.
  [[nodiscard]] sim::Resource& channel(NodeId n) { return *channels_.at(n); }

  /// Interconnect direction `from` -> `to` (from != to).
  [[nodiscard]] sim::Resource& interconnect(NodeId from, NodeId to);

  /// Canonical single-node placement for `n`, with stable identity for the
  /// host's whole lifetime. Hot paths that describe "memory on node n" per
  /// operation (e.g. kernel page-cache pages) must use this instead of
  /// minting a fresh Placement::on(n) — every fresh placement gets a new
  /// plan-cache identity on first booking (see PlanKeyTag), so per-op
  /// placements would grow threads' cost-plan caches without bound.
  [[nodiscard]] const Placement& node_placement(NodeId n) const {
    return node_placements_.at(static_cast<std::size_t>(n));
  }

  // --- allocation ---

  /// Allocates `bytes` under `policy`. `preferred` is the bind target for
  /// kBind; `toucher` is the first-touch node for kFirstTouch.
  Placement alloc(std::uint64_t bytes, MemPolicy policy, NodeId preferred,
                  NodeId toucher);
  void free(const Placement& p, std::uint64_t bytes) noexcept;
  [[nodiscard]] std::uint64_t used_bytes(NodeId n) const {
    return used_bytes_.at(n);
  }

  // --- DMA ---

  /// Books the memory-side traffic of a device DMA: `to_device` reads from
  /// memory (NIC tx), otherwise writes to memory (NIC rx). Charges the
  /// placement's memory channels and, for extents remote to `dev_node`,
  /// the interconnect. Returns the completion time of the slowest charge.
  sim::SimTime charge_dma(const Placement& p, std::uint64_t bytes,
                          NodeId dev_node, bool to_device);

  // --- scheduling ---

  /// Picks a core per policy. kOsDefault round-robins over all cores
  /// ignoring `preferred`; kBindNode round-robins within `preferred`.
  CoreId pick_core(SchedPolicy policy, NodeId preferred);

  /// Analytic STREAM-triad peak: sum of node channel bandwidths, in Gbps.
  [[nodiscard]] double stream_peak_gbps() const noexcept {
    return model::bytes_per_s_to_gbps(
        model::gBps_to_bytes_per_s(profile_.total_mem_gBps()));
  }

  /// Sum of all per-core usage (whole-host CPU accounting).
  [[nodiscard]] metrics::CpuUsage total_usage() const;

  // Fast-forward contract for the per-core CpuUsage (the same three calls
  // as sim::Observer::ff_mark; the cycle servers fold as engine resources).
  void ff_mark();
  [[nodiscard]] bool ff_repeats() const noexcept { return ff_.repeats(); }
  void ff_advance(std::uint64_t k);

 private:
  sim::Engine& eng_;
  model::HostProfile profile_;
  std::vector<std::unique_ptr<Core>> cores_;
  std::vector<std::unique_ptr<sim::Resource>> channels_;
  // interconnect_[from * nodes + to], empty Resource for from==to unused.
  std::vector<std::unique_ptr<sim::Resource>> interconnect_;
  std::vector<Placement> node_placements_;  // one canonical Placement per node
  std::vector<std::uint64_t> used_bytes_;
  int rr_all_ = 0;
  std::vector<int> rr_node_;
  sim::PeriodMarks ff_;
};

}  // namespace e2e::numa
