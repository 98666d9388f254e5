#include "exp/pair_fleet.hpp"

#include <chrono>
#include <cstdio>
#include <sstream>
#include <stdexcept>
#include <string_view>

#include "check/audit.hpp"
#include "fault/injector.hpp"
#include "model/host_profile.hpp"
#include "rdma/cm.hpp"
#include "stats/registry.hpp"
#include "trace/tracer.hpp"

namespace e2e::exp {

namespace {

std::uint64_t fnv1a(std::string_view s) noexcept {
  std::uint64_t h = 1469598103934665603ull;
  for (char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

}  // namespace

HostPair::HostPair(sim::Engine& eng, const Names& names,
                   LinkFactory make_link)
    : a(eng, model::front_end_lan_host(names.a)),
      b(eng, model::front_end_lan_host(names.b)),
      da(a, a.profile().nics[0]),
      db(b, b.profile().nics[0]),
      link(make_link(eng, eng, names.link)),
      pa(a, names.proc_a, numa::NumaBinding::bound(da.node())),
      pb(b, names.proc_b, numa::NumaBinding::bound(db.node())) {
  link->bind_endpoints(&a, &b);
}

/// Everything the fleet owns for one pair. Member order is
/// destruction-safe: the rig goes before the injector, which detaches from
/// the hosts' link, which go before the observers and the engine.
struct PairFleet::Pair {
  std::unique_ptr<sim::Engine> eng;
  std::unique_ptr<stats::Registry> stats;
  std::unique_ptr<trace::Tracer> tracer;
  std::unique_ptr<check::Auditor> audit;
  std::unique_ptr<HostPair> hosts;
  std::unique_ptr<fault::FaultInjector> inj;
  std::unique_ptr<net::Link> ring_link;  // into the next pair (cross-shard)
  std::unique_ptr<rdma::ConnectedPair> ring_cp;
  std::unique_ptr<Rig> rig;
};

PairFleet::PairFleet(
    Config cfg,
    const std::function<std::unique_ptr<Rig>(int, sim::Engine&, HostPair&)>&
        build)
    : cfg_(std::move(cfg)), cluster_(cfg_.shards) {
  if (cfg_.shards < 1 || cfg_.shards > cfg_.pairs)  // also rejects pairs < 1
    throw std::invalid_argument("PairFleet: need 1 <= shards <= pairs");
  pairs_.reserve(static_cast<std::size_t>(cfg_.pairs));
  for (int i = 0; i < cfg_.pairs; ++i) {
    auto pr = std::make_unique<Pair>();
    pr->eng = std::make_unique<sim::Engine>();
    cluster_.add(*pr->eng);
    sim::Engine& eng = *pr->eng;
    if (cfg_.stats) {
      pr->stats = std::make_unique<stats::Registry>(eng);
      pr->stats->install();
    }
    if (cfg_.trace) {
      pr->tracer = std::make_unique<trace::Tracer>(eng);
      pr->tracer->install();
    }
    if (cfg_.audit) pr->audit = std::make_unique<check::Auditor>(eng);

    const std::string tag = cfg_.tag + std::to_string(i);
    const HostPair::Names& n = cfg_.names;
    pr->hosts = std::make_unique<HostPair>(
        eng,
        HostPair::Names{tag + n.a, tag + n.b, tag + n.link, tag + n.proc_a,
                        tag + n.proc_b},
        cfg_.link);
    pr->rig = build(i, eng, *pr->hosts);

    if (cfg_.fault_seed != 0) {
      // Chaos stays shard-local: each pair draws its own plan against its
      // own link and rig, so fault timing never depends on the worker count.
      auto plan = fault::FaultPlan::random(
          cfg_.fault_seed + 1000003ull * static_cast<std::uint64_t>(i),
          cfg_.chaos);
      pr->inj = std::make_unique<fault::FaultInjector>(eng, std::move(plan));
      pr->inj->attach(*pr->hosts->link);
      Rig* rig = pr->rig.get();
      pr->inj->set_qp_kill_handler([rig](int qp) { rig->on_qp_kill(qp); });
      pr->inj->set_crash_handler([rig](int host, sim::SimDuration down) {
        rig->on_crash(host, down);
      });
      pr->inj->arm();
    }
    pairs_.push_back(std::move(pr));
  }
}

PairFleet::~PairFleet() {
  // A cross-engine Link owns one Resource per direction, each registered on
  // its source engine, so pair i's ring link holds a Resource on pair
  // (i+1)%P's engine and the last pair's partner is pair 0. Letting pairs_
  // destruct front-to-back would deregister that Resource from a destroyed
  // engine. Tear the ring down across ALL pairs while every engine is
  // alive: the scenario's ring objects, then connections, then links.
  for (auto& pr : pairs_) pr->rig->drop_ring();
  for (auto& pr : pairs_) pr->ring_cp.reset();
  for (auto& pr : pairs_) pr->ring_link.reset();
}

HostPair& PairFleet::hosts(int i) {
  return *pairs_[static_cast<std::size_t>(i)]->hosts;
}

void PairFleet::link_ring(
    const std::function<void(int, HostPair&, HostPair&, rdma::ConnectedPair&)>&
        wire) {
  const int P = cfg_.pairs;
  for (int i = 0; i < P; ++i) {
    Pair& self = *pairs_[static_cast<std::size_t>(i)];
    Pair& next = *pairs_[static_cast<std::size_t>((i + 1) % P)];
    self.ring_link =
        cfg_.link(*self.eng, *next.eng, cfg_.ring_tag + std::to_string(i));
    self.ring_link->bind_endpoints(&self.hosts->a, &next.hosts->b);
    self.ring_cp = std::make_unique<rdma::ConnectedPair>(
        self.hosts->da, next.hosts->db, *self.ring_link);
    wire(i, *self.hosts, *next.hosts, *self.ring_cp);
  }
}

void PairFleet::establish(const std::function<bool(int)>& done) {
  cluster_.run_sequential();
  for (int i = 0; i < cfg_.pairs; ++i)
    if (!done(i))
      throw std::runtime_error(cfg_.tag + std::to_string(i) +
                               ": establish did not complete");
}

PairFleet::RunStats PairFleet::run() {
  const std::uint64_t events0 = cluster_.events_processed();
  const auto t0 = std::chrono::steady_clock::now();
  cluster_.run();
  const std::chrono::duration<double> wall =
      std::chrono::steady_clock::now() - t0;
  return {wall.count(), cluster_.events_processed() - events0,
          cluster_.windows(), cluster_.cross_posts()};
}

PairFleet::Merged PairFleet::finish() {
  Merged m;
  if (cfg_.audit) {  // ring ledgers span two shards: fold before finalize
    std::vector<check::Auditor*> audits;
    for (const auto& pr : pairs_) audits.push_back(pr->audit.get());
    check::Auditor::merge_qp_ledgers(audits);
    for (const auto& pr : pairs_) {
      pr->audit->finalize();
      m.audit_ok = m.audit_ok && pr->audit->ok();
      m.audit_violations += pr->audit->violations().size();
    }
  }
  if (cfg_.stats) {
    std::vector<const stats::Registry*> regs;
    for (const auto& pr : pairs_) regs.push_back(pr->stats.get());
    std::ostringstream os;
    stats::Registry::write_merged_json(os, regs);
    m.stats_json = os.str();
  }
  if (cfg_.trace) {
    std::vector<const trace::Tracer*> trs;
    for (const auto& pr : pairs_) trs.push_back(pr->tracer.get());
    std::ostringstream os;
    trace::write_merged_chrome_trace(os, trs);
    m.trace_json = os.str();
  }
  return m;
}

std::string PairFleet::clocks() const {
  std::string s = "[";
  for (const auto& pr : pairs_) {
    if (s.size() > 1) s += ',';
    s += std::to_string(pr->eng->now());
  }
  return s + "]";
}

std::string PairFleet::g9(const std::vector<double>& v) {
  std::string s = "[";
  char buf[48];
  for (const double x : v) {
    std::snprintf(buf, sizeof buf, "%s%.9g", s.size() > 1 ? "," : "", x);
    s += buf;
  }
  return s + "]";
}

std::string PairFleet::hashes(const Merged& m) const {
  std::string s;
  if (cfg_.stats) s += " stats_fnv=" + std::to_string(fnv1a(m.stats_json));
  if (cfg_.trace) s += " trace_fnv=" + std::to_string(fnv1a(m.trace_json));
  return s;
}

}  // namespace e2e::exp
