// Multi-pair scenario harness. HostPair is the standard two-host rig: two
// front-end LAN hosts, nics[0] on each, one link, and a process per host
// bound to its NIC's node. PairFleet runs P HostPairs as the shards of one
// sim::Cluster and owns the lifecycle the multi-pair scenarios share
// (exp/fleet.cpp, exp/kv_scenario.cpp supply only a per-pair Rig, workload
// coroutines and a result fold). Entity ids, tie-break sequence numbers and
// seeds follow construction order, so each pair is built in a fixed order:
// engine, observers, hosts, the scenario's rig, chaos.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "fault/plan.hpp"
#include "net/link.hpp"
#include "numa/host.hpp"
#include "numa/process.hpp"
#include "rdma/device.hpp"

namespace e2e::fault {
class FaultInjector;
}

namespace e2e::rdma {
class ConnectedPair;
}

namespace e2e::exp {

struct HostPair {
  struct Names {  // key every stats and trace entity
    std::string a, b, link, proc_a, proc_b;
  };
  /// net::make_roce_lan or net::make_roce_rack (equal engines: one-engine
  /// link).
  using LinkFactory = std::unique_ptr<net::Link> (*)(sim::Engine&,
                                                      sim::Engine&,
                                                      const std::string&);

  HostPair(sim::Engine& eng, const Names& names, LinkFactory make_link);

  numa::Host a, b;
  rdma::Device da, db;
  std::unique_ptr<net::Link> link;
  numa::Process pa, pb;
};

class PairFleet {
 public:
  struct Config {
    int pairs = 1;
    int shards = 1;  // worker threads, in [1, pairs]
    bool stats = false, trace = false, audit = false;
    // != 0: pair i arms FaultPlan::random(fault_seed + 1000003 * i, chaos)
    // against its intra-pair link.
    std::uint64_t fault_seed = 0;
    fault::FaultPlan::RandomParams chaos{};
    // Pair i's names are tag + i + names.*; ring link i is ring_tag + i.
    std::string tag;
    HostPair::Names names;
    std::string ring_tag;
    HostPair::LinkFactory link = nullptr;
  };

  /// One pair's scenario state. The fleet owns it, hands it the pair's
  /// chaos injector, and destroys it before any host or engine.
  struct Rig {
    Rig() = default;
    Rig(const Rig&) = delete;  // chaos handlers hold its address
    Rig& operator=(const Rig&) = delete;
    virtual ~Rig() = default;
    /// Sets the handlers for the plan's qpkill and crash events.
    virtual void attach(fault::FaultInjector& inj) = 0;
    /// Drops what the rig built in link_ring(); runs on every rig before
    /// any ring connection goes.
    virtual void drop_ring() noexcept {}
  };

  struct RunStats {
    double wall_seconds = 0.0;
    std::uint64_t events = 0, windows = 0, cross_posts = 0;
  };
  struct Merged {
    bool audit_ok = true;
    std::size_t audit_violations = 0;
    std::string stats_json, trace_json;
  };

  /// Builds every pair; `build` makes pair i's rig on its engine and hosts.
  /// Throws std::invalid_argument unless 1 <= shards <= pairs.
  PairFleet(Config cfg,
            const std::function<std::unique_ptr<Rig>(int i, sim::Engine&,
                                                     HostPair&)>& build);
  ~PairFleet();
  PairFleet(const PairFleet&) = delete;
  PairFleet& operator=(const PairFleet&) = delete;

  [[nodiscard]] HostPair& hosts(int i);

  /// For each pair i in order: a cross-engine link from pair i's host a
  /// into pair (i+1)%P's host b, a ConnectedPair over it, then `wire` for
  /// the scenario's ring objects.
  void link_ring(const std::function<void(int i, HostPair& self,
                                          HostPair& next,
                                          rdma::ConnectedPair& cp)>& wire);

  /// Runs everything queued so far (the scenario's establish coroutines)
  /// in exact global order; throws unless `done(i)` holds for every pair.
  void establish(const std::function<bool(int i)>& done);

  /// The parallel phase: sim::Cluster::run(), timed.
  RunStats run();

  /// Folds the split QP ledgers (rank order), finalizes every auditor,
  /// and merges the stats and trace shards.
  Merged finish();

  /// Digest fragments: "[now_0,...]", "[x_0,...]" at %.9g, and FNV-1a
  /// hashes of the merged JSON (" stats_fnv=... trace_fnv=...").
  [[nodiscard]] std::string clocks() const;
  [[nodiscard]] static std::string g9(const std::vector<double>& v);
  [[nodiscard]] std::string hashes(const Merged& m) const;

 private:
  struct Pair;

  Config cfg_;
  sim::Cluster cluster_;  // outlives every engine in pairs_
  std::vector<std::unique_ptr<Pair>> pairs_;
};

}  // namespace e2e::exp
