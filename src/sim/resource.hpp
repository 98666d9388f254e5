// Rate-based queueing resource.
//
// A Resource models a device that serves work at a fixed rate (bytes/s,
// cycles/s, ...). Requests are served FIFO: a request of `units` issued at
// time t completes at max(t, busy_until) + units/rate. This is the
// work-conserving single-server queue used for CPU cores, memory channels,
// NUMA interconnect directions, PCIe lanes, NIC engines, and network links.
//
// Concurrent requests therefore share the device's full rate in aggregate
// (back-to-back service), which is the behaviour that matters for the
// throughput/bottleneck analysis in this library.
#pragma once

#include <bit>
#include <coroutine>
#include <cstdint>
#include <stdexcept>
#include <string>

#include "sim/engine.hpp"
#include "sim/time.hpp"

namespace e2e::sim {

class Resource {
 public:
  /// `units_per_second` must be > 0 (e.g. bytes/s for a link); the rate
  /// is fixed for the resource's lifetime.
  Resource(Engine& eng, double units_per_second, std::string name = {})
      : eng_(eng),
        name_(std::move(name)),
        rate_per_ns_(units_per_second / 1e9) {
    if (units_per_second <= 0.0)
      throw std::invalid_argument("Resource rate must be positive: " + name_);
    eng_.register_resource(this);
  }
  ~Resource() { eng_.deregister_resource(this); }
  Resource(const Resource&) = delete;
  Resource& operator=(const Resource&) = delete;

  [[nodiscard]] double rate_per_second() const noexcept {
    return rate_per_ns_ * 1e9;
  }

  /// Service duration for `units` at the current rate, in ns (>= 1 for
  /// non-zero work so that ordering through the engine stays strict).
  [[nodiscard]] SimDuration service_time(double units) const noexcept {
    if (units <= 0.0) return 0;
    const double ns = units / rate_per_ns_;
    return ns < 1.0 ? 1 : static_cast<SimDuration>(ns);
  }

  /// Awaitable that completes when the request has been fully served.
  /// Usage: `co_await link.acquire(bytes);`
  auto acquire(double units) {
    struct Awaiter {
      Resource& r;
      double units;
      bool await_ready() const noexcept { return units <= 0.0; }
      void await_suspend(std::coroutine_handle<> h) {
        r.eng_.resume_at(r.plan(units), h);
      }
      void await_resume() const noexcept {}
    };
    return Awaiter{*this, units};
  }

  /// Books service without suspending; returns the completion time. Used by
  /// fire-and-forget charges (e.g. DMA traffic accounted against a memory
  /// channel while the initiating actor continues).
  SimTime charge(double units) { return plan(units); }

  // --- fast-forward contract (see Observer::ff_mark) ---
  // The conserved state is busy_time() and units_served(). A replayable
  // period moves both by the same delta in each interval, units bitwise.

  void ff_mark() noexcept {
    ff_busy_[ff_marks_ % 3] = busy_ns_;
    ff_units_[ff_marks_ % 3] = units_served_;
    ++ff_marks_;
  }
  [[nodiscard]] bool ff_repeats() const noexcept {
    if (ff_marks_ < 3) return false;
    const std::uint64_t a = ff_marks_ % 3, b = (a + 1) % 3, c = (a + 2) % 3;
    return ff_busy_[b] - ff_busy_[a] == ff_busy_[c] - ff_busy_[b] &&
           std::bit_cast<std::uint64_t>(ff_units_[b] - ff_units_[a]) ==
               std::bit_cast<std::uint64_t>(ff_units_[c] - ff_units_[b]);
  }
  /// Books `k` more copies of the last interval's service analytically. The
  /// busy horizon is deliberately untouched: fast-forward skips modeled
  /// time on the engine's *virtual* clock only, so queueing behaviour of
  /// requests issued after the collapse is unchanged. Notifies the engine's
  /// observers so conservation ledgers absorb the same deltas.
  void ff_advance(std::uint64_t k) {
    const std::uint64_t b = (ff_marks_ + 1) % 3, c = (ff_marks_ + 2) % 3;
    const SimDuration busy = ff_busy_[c] - ff_busy_[b];
    const double units = ff_units_[c] - ff_units_[b];
    if (busy == 0 && units == 0.0) return;
    const SimDuration busy_delta = busy * k;
    const double units_delta = units * static_cast<double>(k);
    busy_ns_ += busy_delta;
    units_served_ += units_delta;
    eng_.notify([&](Observer& o) {
      o.on_resource_fast_forward(*this, busy_delta, units_delta);
    });
  }

  /// Time at which the server drains the currently queued work.
  [[nodiscard]] SimTime busy_until() const noexcept { return busy_until_; }

  /// Queueing delay a request issued now would see before service begins.
  [[nodiscard]] SimDuration backlog_delay() const noexcept {
    return busy_until_ > eng_.now() ? busy_until_ - eng_.now() : 0;
  }

  /// Total busy time accumulated (ns) and units served since construction.
  [[nodiscard]] SimDuration busy_time() const noexcept { return busy_ns_; }
  [[nodiscard]] double units_served() const noexcept { return units_served_; }

  /// Mean utilization over [t0, t1] assuming stats captured at both ends:
  /// callers snapshot busy_time() themselves; this helper is for whole-run
  /// utilization.
  [[nodiscard]] double utilization() const noexcept {
    const SimTime t = eng_.now();
    return t == 0 ? 0.0 : static_cast<double>(busy_ns_) / static_cast<double>(t);
  }

  [[nodiscard]] const std::string& name() const noexcept { return name_; }

 private:
  SimTime plan(double units) {
    const SimTime start = busy_until_ > eng_.now() ? busy_until_ : eng_.now();
    const SimDuration svc = service_time(units);
    busy_until_ = Engine::saturating_add(start, svc);
    busy_ns_ += svc;
    units_served_ += units;
    eng_.notify([&](Observer& o) {
      o.on_resource_service(*this, start, busy_until_, units);
    });
    return busy_until_;
  }

  Engine& eng_;
  std::string name_;
  const double rate_per_ns_;
  SimTime busy_until_ = 0;
  SimDuration busy_ns_ = 0;
  double units_served_ = 0.0;
  SimDuration ff_busy_[3] = {};  // busy_ns_ at the last three marks
  double ff_units_[3] = {};      // units_served_ at the last three marks
  std::uint64_t ff_marks_ = 0;
};

}  // namespace e2e::sim
