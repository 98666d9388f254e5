// RDMA-capable network adapter.
//
// A Device is one RoCE/InfiniBand port installed in a PCIe slot attached to
// a specific NUMA node of a Host. DMA engines move data between host memory
// and the wire with no CPU involvement: tx reads memory, rx writes memory,
// both charged against the host's memory channels (plus interconnect when
// the buffer is remote to the slot) and the slot's PCIe lanes.
#pragma once

#include <memory>
#include <string>

#include "model/host_profile.hpp"
#include "numa/host.hpp"
#include "sim/resource.hpp"

namespace e2e::rdma {

class Device {
 public:
  Device(numa::Host& host, model::NicProfile profile)
      : host_(host),
        profile_(std::move(profile)),
        pcie_tx_(host.engine(), model::gbps_to_bytes_per_s(profile_.pcie_gbps),
                 host.name() + "/" + profile_.name + "/pcie-tx"),
        pcie_rx_(host.engine(), model::gbps_to_bytes_per_s(profile_.pcie_gbps),
                 host.name() + "/" + profile_.name + "/pcie-rx") {}

  Device(const Device&) = delete;
  Device& operator=(const Device&) = delete;

  [[nodiscard]] numa::Host& host() noexcept { return host_; }
  [[nodiscard]] numa::NodeId node() const noexcept {
    return profile_.numa_node;
  }

  /// Books the host-side cost of a DMA and returns its completion time.
  /// `to_wire` reads from memory (transmit); otherwise writes to memory.
  sim::SimTime charge_dma(const numa::Placement& placement,
                          std::uint64_t bytes, bool to_wire) {
    const sim::SimTime mem_done =
        host_.charge_dma(placement, bytes, node(), to_wire);
    auto& pcie = to_wire ? pcie_tx_ : pcie_rx_;
    const sim::SimTime pcie_done =
        pcie.charge(static_cast<double>(bytes));
    return mem_done > pcie_done ? mem_done : pcie_done;
  }

 private:
  numa::Host& host_;
  model::NicProfile profile_;
  sim::Resource pcie_tx_;
  sim::Resource pcie_rx_;
};

}  // namespace e2e::rdma
