#include "numa/host.hpp"

#include <algorithm>
#include <stdexcept>

namespace e2e::numa {

Host::Host(sim::Engine& eng, model::HostProfile profile)
    : eng_(eng), profile_(std::move(profile)) {
  const int nodes = profile_.numa_nodes;
  if (nodes < 1) throw std::invalid_argument("host needs >= 1 NUMA node");

  for (NodeId n = 0; n < nodes; ++n) {
    for (int c = 0; c < profile_.cores_per_node; ++c) {
      auto core = std::make_unique<Core>();
      core->id = static_cast<CoreId>(cores_.size());
      core->node = n;
      core->cycles = std::make_unique<sim::Resource>(
          eng_, profile_.cycles_per_second(),
          profile_.name + "/core" + std::to_string(core->id));
      cores_.push_back(std::move(core));
    }
    channels_.push_back(std::make_unique<sim::Resource>(
        eng_, model::gBps_to_bytes_per_s(profile_.mem_gBps_per_node),
        profile_.name + "/mem" + std::to_string(n)));
  }

  interconnect_.resize(static_cast<std::size_t>(nodes) * nodes);
  for (NodeId a = 0; a < nodes; ++a)
    for (NodeId b = 0; b < nodes; ++b)
      if (a != b)
        interconnect_[static_cast<std::size_t>(a) * nodes + b] =
            std::make_unique<sim::Resource>(
                eng_, model::gBps_to_bytes_per_s(profile_.interconnect_gBps),
                profile_.name + "/qpi" + std::to_string(a) + "-" +
                    std::to_string(b));

  node_placements_.reserve(static_cast<std::size_t>(nodes));
  for (NodeId n = 0; n < nodes; ++n)
    node_placements_.push_back(Placement::on(n));

  used_bytes_.assign(static_cast<std::size_t>(nodes), 0);
  rr_node_.assign(static_cast<std::size_t>(nodes), 0);
}

sim::Resource& Host::interconnect(NodeId from, NodeId to) {
  if (from == to)
    throw std::invalid_argument("interconnect requires distinct nodes");
  return *interconnect_.at(static_cast<std::size_t>(from) * profile_.numa_nodes +
                           to);
}

Placement Host::alloc(std::uint64_t bytes, MemPolicy policy, NodeId preferred,
                      NodeId toucher) {
  Placement p;
  switch (policy) {
    case MemPolicy::kBind:
      p = Placement::on(preferred == kAnyNode ? 0 : preferred);
      break;
    case MemPolicy::kFirstTouch:
      p = Placement::on(toucher == kAnyNode ? 0 : toucher);
      break;
    case MemPolicy::kInterleave:
      p = Placement::interleaved(profile_.numa_nodes);
      break;
  }
  for (const auto& e : p.extents)
    used_bytes_.at(static_cast<std::size_t>(e.node)) +=
        static_cast<std::uint64_t>(static_cast<double>(bytes) * e.fraction);
  return p;
}

sim::SimTime Host::charge_dma(const Placement& p, std::uint64_t bytes,
                              NodeId dev_node, bool to_device) {
  sim::SimTime done = eng_.now();
  for (const auto& e : p.extents) {
    const double share = static_cast<double>(bytes) * e.fraction;
    if (share <= 0.0) continue;
    const double channel_share =
        e.node != dev_node ? share * costs().numa_remote_channel_factor
                           : share;
    done = std::max(done, channel(e.node).charge(channel_share));
    if (e.node != dev_node) {
      auto& qpi = to_device ? interconnect(e.node, dev_node)
                            : interconnect(dev_node, e.node);
      done = std::max(done, qpi.charge(share));
    }
  }
  return done;
}

CoreId Host::pick_core(SchedPolicy policy, NodeId preferred) {
  switch (policy) {
    case SchedPolicy::kOsDefault: {
      const CoreId c = static_cast<CoreId>(rr_all_ % core_count());
      ++rr_all_;
      return c;
    }
    case SchedPolicy::kBindNode: {
      const NodeId n = preferred == kAnyNode ? 0 : preferred;
      auto& rr = rr_node_.at(static_cast<std::size_t>(n));
      const CoreId c =
          static_cast<CoreId>(n * profile_.cores_per_node +
                              rr % profile_.cores_per_node);
      ++rr;
      return c;
    }
    case SchedPolicy::kPinCore:
      // Pinning is expressed by the caller choosing the core directly;
      // fall back to node binding if used through this path.
      return pick_core(SchedPolicy::kBindNode, preferred);
  }
  return 0;
}

metrics::CpuUsage Host::total_usage() const {
  metrics::CpuUsage u;
  for (const auto& c : cores_) u.merge(c->usage);
  return u;
}

namespace {
// The fast-forward fold's words: every core's CpuUsage, in core order.
auto usage_fields(std::vector<std::unique_ptr<Core>>& cores) {
  return [&cores](auto&& word, auto&&) {
    for (auto& c : cores) c->usage.ff_fields(word);
  };
}
}  // namespace

void Host::ff_mark() { ff_.mark(usage_fields(cores_)); }

void Host::ff_advance(std::uint64_t k) {
  ff_.advance(k, usage_fields(cores_));
}

}  // namespace e2e::numa
