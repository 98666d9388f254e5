// Point-to-point duplex link model.
//
// A Link is the wire between two adapters (through a non-blocking switch or
// a long-haul circuit): per-direction serialization at the signalling rate,
// a fixed one-way propagation delay, and an MTU that determines per-packet
// header overhead. RoCE LAN, InfiniBand LAN and the 95 ms ANI WAN loop of
// the paper are all instances with different parameters.
#pragma once

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>

#include "model/host_profile.hpp"
#include "model/units.hpp"
#include "sim/cluster.hpp"
#include "sim/engine.hpp"
#include "sim/resource.hpp"

namespace e2e::net {

class Link;

/// Transmission direction over a duplex link. The numeric values match the
/// historical `int d` convention (0: a->b, 1: b->a) so the enum converts
/// losslessly at the resource-array boundary.
enum class Direction : int { kAtoB = 0, kBtoA = 1 };

[[nodiscard]] constexpr int index(Direction d) noexcept {
  return static_cast<int>(d);
}
[[nodiscard]] constexpr Direction opposite(Direction d) noexcept {
  return d == Direction::kAtoB ? Direction::kBtoA : Direction::kAtoB;
}
[[nodiscard]] constexpr const char* to_string(Direction d) noexcept {
  return d == Direction::kAtoB ? "ab" : "ba";
}

/// Verdict for one message about to be transmitted on a link direction.
/// Produced by Link::transmit_fate() from the attached FaultHook (plus any
/// legacy injected-failure counters).
struct TxFate {
  /// Message is corrupted/dropped in flight: the sender sees a failed
  /// completion and the payload is never delivered.
  bool fail = false;
  /// When failing, how long the sender waits before the failure surfaces
  /// (models RC retry exhaustion on a blackholed path; 0 = immediate).
  sim::SimDuration fail_delay = 0;
  /// Extra one-way propagation delay added to this message (latency spike).
  /// Applies to successful deliveries.
  sim::SimDuration extra_latency = 0;
};

/// Fault-injection hook consulted once per message transmission. Implemented
/// by fault::FaultInjector; the indirection keeps net:: free of any
/// dependency on the fault library. Hooks must be deterministic for a given
/// event sequence — the simulation's reproducibility depends on it.
class FaultHook {
 public:
  virtual ~FaultHook() = default;
  /// Decides the fate of one `bytes`-sized message about to transmit on
  /// `link` in direction `d`.
  virtual TxFate on_transmit(Link& link, Direction d, double bytes) = 0;
};

class Link {
 public:
  Link(sim::Engine& eng, std::string name, double rate_gbps,
       sim::SimDuration one_way_latency, std::uint32_t mtu)
      : Link(eng, eng, std::move(name), rate_gbps, one_way_latency, mtu) {}

  /// Cross-shard link: side A's serialization resource (a->b) lives on
  /// `eng_a`, side B's (b->a) on `eng_b`, so each sender books wire time on
  /// its own shard's engine. When the two engines are shards of the same
  /// sim::Cluster, the link's one-way latency is declared as a lookahead
  /// seam — the cluster's conservative window is bounded by the minimum
  /// such latency. With eng_a == eng_b this is exactly the legacy ctor.
  Link(sim::Engine& eng_a, sim::Engine& eng_b, std::string name,
       double rate_gbps, sim::SimDuration one_way_latency, std::uint32_t mtu)
      : eng_{&eng_a, &eng_b},
        name_(std::move(name)),
        latency_(one_way_latency),
        mtu_(mtu),
        rate_gbps_(rate_gbps) {
    for (int d = 0; d < 2; ++d)
      dir_[d] = std::make_unique<sim::Resource>(
          *eng_[d], model::gbps_to_bytes_per_s(rate_gbps),
          name_ + (d ? "/ba" : "/ab"));
    if (&eng_a != &eng_b && eng_a.cluster() != nullptr &&
        eng_a.cluster() == eng_b.cluster())
      eng_a.cluster()->note_lookahead(latency_);
  }

  /// Serialization resource for one direction (0: a->b, 1: b->a).
  [[nodiscard]] sim::Resource& dir(int d) { return *dir_[d]; }
  [[nodiscard]] sim::Resource& dir(Direction d) { return *dir_[index(d)]; }

  /// Declares which physical endpoints sit on the link's two sides, so
  /// connections attached later transmit on the correct direction
  /// regardless of which side initiates. Endpoints are identified by any
  /// stable address (this library uses numa::Host pointers).
  void bind_endpoints(const void* side_a, const void* side_b) noexcept {
    ep_[0] = side_a;
    ep_[1] = side_b;
  }
  [[nodiscard]] bool bound() const noexcept { return ep_[0] != nullptr; }

  /// Direction index for transmissions originating at `from`.
  [[nodiscard]] int dir_from(const void* from) const {
    if (from == ep_[0]) return 0;
    if (from == ep_[1]) return 1;
    throw std::logic_error("endpoint not bound to link " + name_);
  }

  /// Attaches (or detaches, with nullptr) the fault-injection hook consulted
  /// on every transmission. At most one hook per link; the caller keeps
  /// ownership and must outlive the link or detach first.
  void set_fault_hook(FaultHook* hook) noexcept { hook_ = hook; }
  [[nodiscard]] FaultHook* fault_hook() const noexcept { return hook_; }

  /// Decides the fate of one message of `bytes` wire bytes about to be
  /// transmitted in direction `d`: consults the attached FaultHook first,
  /// then the legacy injected-failure counters. Senders (rdma::QueuePair,
  /// tcp::Connection) call this exactly once per message.
  [[nodiscard]] TxFate transmit_fate(Direction d, double bytes) {
    TxFate fate;
    if (hook_ != nullptr) fate = hook_->on_transmit(*this, d, bytes);
    if (!fate.fail && take_failure(d)) fate.fail = true;
    return fate;
  }

  /// Failure injection: the next `count` messages transmitted in direction
  /// `d` are corrupted in flight (delivered as failed completions).
  /// Deprecated counter API — new code should drive faults through a
  /// fault::FaultInjector attached via set_fault_hook(); the counters remain
  /// for cheap single-shot injections in unit tests.
  void inject_failures(Direction d, int count) noexcept {
    inject_[index(d)] += count;
  }

  /// Consumes one pending injected failure for direction `d`. Prefer
  /// transmit_fate(), which folds these counters in with hook-driven faults.
  [[nodiscard]] bool take_failure(Direction d) noexcept {
    if (inject_[index(d)] <= 0) return false;
    --inject_[index(d)];
    return true;
  }

  [[nodiscard]] sim::SimDuration latency() const noexcept { return latency_; }
  [[nodiscard]] sim::SimDuration rtt() const noexcept { return 2 * latency_; }
  [[nodiscard]] std::uint32_t mtu() const noexcept { return mtu_; }
  [[nodiscard]] double rate_gbps() const noexcept { return rate_gbps_; }
  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  [[nodiscard]] sim::Engine& engine() noexcept { return *eng_[0]; }
  /// Engine of the sending side for direction `d` (the one whose shard
  /// books the serialization resource). Both sides on one engine in the
  /// legacy single-shard configuration.
  [[nodiscard]] sim::Engine& engine_for(Direction d) noexcept {
    return *eng_[index(d)];
  }
  /// True when the link spans two different engines (a cross-shard seam).
  [[nodiscard]] bool cross_engine() const noexcept {
    return eng_[0] != eng_[1];
  }

  /// Wire bytes for `payload` given per-MTU transport headers.
  [[nodiscard]] double wire_bytes(double payload,
                                  double header_per_mtu) const noexcept {
    const double per_pkt = static_cast<double>(mtu_);
    return payload * (1.0 + header_per_mtu / per_pkt);
  }

  /// Number of MTU-sized packets for `payload` bytes.
  [[nodiscard]] double packets(double payload) const noexcept {
    return payload / static_cast<double>(mtu_);
  }

 private:
  sim::Engine* eng_[2];  // per-direction sender engine; equal when one shard
  std::string name_;
  sim::SimDuration latency_;
  std::uint32_t mtu_;
  double rate_gbps_;
  std::unique_ptr<sim::Resource> dir_[2];
  const void* ep_[2] = {nullptr, nullptr};
  int inject_[2] = {0, 0};
  FaultHook* hook_ = nullptr;
};

/// LAN RoCE link per Table 1 (40 Gbps QDR, MTU 9000, RTT 166 us).
inline std::unique_ptr<Link> make_roce_lan(sim::Engine& eng,
                                           const std::string& name) {
  return std::make_unique<Link>(eng, name, 40.0, model::kLanRoceRtt / 2, 9000);
}

/// Cross-shard RoCE LAN link (side A on `eng_a`, side B on `eng_b`).
inline std::unique_ptr<Link> make_roce_lan(sim::Engine& eng_a,
                                           sim::Engine& eng_b,
                                           const std::string& name) {
  return std::make_unique<Link>(eng_a, eng_b, name, 40.0,
                                model::kLanRoceRtt / 2, 9000);
}

/// Rack-scale RoCE link: the Table 1 signalling rate (40 Gbps, MTU 9000)
/// but a single top-of-rack switch hop — ~2 us one-way — instead of the
/// paper's routed 83 us LAN path. This is the regime where the
/// small-message RPC tier is latency- rather than wire-bound, and where
/// the two-sided-RPC vs one-sided-READ crossover lands inside a
/// 64 B..256 KiB value sweep (bench/bench_rpc.cpp).
inline constexpr sim::SimDuration kRackOneWay = 2 * sim::kMicrosecond;

/// Side A on `eng_a`, side B on `eng_b` (the same engine for a one-shard
/// link).
inline std::unique_ptr<Link> make_roce_rack(sim::Engine& eng_a,
                                            sim::Engine& eng_b,
                                            const std::string& name) {
  return std::make_unique<Link>(eng_a, eng_b, name, 40.0, kRackOneWay, 9000);
}

/// LAN InfiniBand FDR link per Table 1 (56 Gbps, MTU 65520, RTT 144 us).
inline std::unique_ptr<Link> make_ib_lan(sim::Engine& eng,
                                         const std::string& name) {
  return std::make_unique<Link>(eng, name, 56.0, model::kLanIbRtt / 2, 65520);
}

/// ANI WAN loop per Table 1 / Fig. 6 (40 Gbps RoCE, RTT 95 ms).
inline std::unique_ptr<Link> make_ani_wan(sim::Engine& eng,
                                          const std::string& name) {
  return std::make_unique<Link>(eng, name, 40.0, model::kWanRtt / 2, 9000);
}

}  // namespace e2e::net
