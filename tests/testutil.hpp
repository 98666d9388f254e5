// Shared fixtures and rig builders for the test suite.
#pragma once

#include <memory>

#include "exp/runner.hpp"
#include "fault/injector.hpp"
#include "model/host_profile.hpp"
#include "net/link.hpp"
#include "numa/numa.hpp"
#include "rdma/rdma.hpp"
#include "sim/sim.hpp"

namespace e2e::test {

/// Small 2-node/2-cores-per-node host profile with round numbers so tests
/// can compute expected service times by hand:
///   cores: 2 GHz; memory: 10 GB/s per node; QPI: 5 GB/s per direction.
inline model::HostProfile tiny_host(const std::string& name) {
  model::HostProfile h;
  h.name = name;
  h.numa_nodes = 2;
  h.cores_per_node = 2;
  h.core_ghz = 2.0;
  h.mem_gbytes = 16;
  h.mem_gBps_per_node = 10.0;
  h.interconnect_gBps = 5.0;
  h.nics = {{"nic0", model::LinkType::kRoCE, 40.0, 9000, 0, 63.0},
            {"nic1", model::LinkType::kRoCE, 40.0, 9000, 1, 63.0}};
  return h;
}

/// Two tiny hosts joined by one 40G link, with one RDMA device each.
struct TinyRig {
  sim::Engine eng;
  std::unique_ptr<numa::Host> a;
  std::unique_ptr<numa::Host> b;
  std::unique_ptr<rdma::Device> dev_a;
  std::unique_ptr<rdma::Device> dev_b;
  std::unique_ptr<net::Link> link;
  std::unique_ptr<numa::Process> proc_a;
  std::unique_ptr<numa::Process> proc_b;

  TinyRig() {
    a = std::make_unique<numa::Host>(eng, tiny_host("a"));
    b = std::make_unique<numa::Host>(eng, tiny_host("b"));
    dev_a = std::make_unique<rdma::Device>(*a, a->profile().nics[0]);
    dev_b = std::make_unique<rdma::Device>(*b, b->profile().nics[0]);
    link = net::make_roce_lan(eng, "t");
    proc_a = std::make_unique<numa::Process>(*a, "pa",
                                             numa::NumaBinding::bound(0));
    proc_b = std::make_unique<numa::Process>(*b, "pb",
                                             numa::NumaBinding::bound(0));
  }
};

/// Fails the next `n` messages sent on `link` in direction `d`: a
/// fault::FaultInjector loss burst, live before this returns. Its window
/// outlasts any test (a plan burst lapses after 10 ms by default). Keep the
/// injector alive while the messages go out, and destroy it before the
/// link.
inline std::unique_ptr<fault::FaultInjector> lose_next(sim::Engine& eng,
                                                       net::Link& link,
                                                       net::Direction d,
                                                       int n) {
  fault::FaultEvent burst;
  burst.type = fault::FaultType::kLossBurst;
  burst.at = eng.now();
  burst.dir = d;
  burst.count = n;
  burst.duration = 3600 * sim::kSecond;
  auto inj =
      std::make_unique<fault::FaultInjector>(eng, fault::FaultPlan{{burst}});
  inj->attach(link);
  inj->arm();
  eng.run_until(eng.now());  // fire the burst event itself
  return inj;
}

/// Wraps an awaitable — a numa::Thread booking, a sim::Delay — in a Task,
/// so exp::run_task and sim::co_spawn can drive it.
template <typename Awaitable>
sim::Task<> as_task(Awaitable a) { co_await a; }

/// Makes a registered buffer descriptor on `host` at `node`.
inline mem::Buffer make_buffer(numa::Host& host, std::uint64_t bytes,
                               numa::NodeId node) {
  mem::Buffer buf;
  buf.bytes = bytes;
  buf.placement = host.alloc(bytes, numa::MemPolicy::kBind, node, node);
  buf.registered = true;
  return buf;
}

}  // namespace e2e::test
