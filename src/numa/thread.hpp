// Simulated thread: the execution context protocol code runs in.
//
// A Thread is bound to one core (chosen by its Process's scheduling policy
// or pinned explicitly) and exposes awaitable operations that charge the
// host's resources with NUMA-correct costs:
//
//   compute()   - pure CPU work
//   copy()      - memcpy between two placements (CPU + both channels +
//                 interconnect for remote extents + optional coherence
//                 penalty on the destination)
//   mem_read()  - streaming touch/read of data
//   mem_write() - streaming write, with optional coherence penalty
//   zero_fill() - /dev/zero-style page clearing
//
// All CPU time is tagged with a metrics::CpuCategory and accounted on the
// core and on the owning Process.
//
// Each operation books its costs at the call, not when its result is
// awaited: it charges the resources right away and returns the sim::Delay
// that completes when the last of them drains (sim::until). Callers write
// `co_await th.compute(...)`, so call and await are one instant; two
// bookings made back to back queue in call order whichever is awaited
// first. No coroutine frame is built per booking.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "mem/flat_table.hpp"
#include "metrics/cpu_usage.hpp"
#include "numa/host.hpp"
#include "numa/types.hpp"
#include "sim/sync.hpp"

namespace e2e::numa {

class Process;

class Thread {
 public:
  /// Binds to a core chosen by `policy` (see Host::pick_core).
  Thread(Host& host, Process* proc, SchedPolicy policy, NodeId preferred);
  /// Pins to an explicit core.
  Thread(Host& host, Process* proc, CoreId pinned);

  [[nodiscard]] Host& host() noexcept { return host_; }
  [[nodiscard]] CoreId core_id() const noexcept { return core_; }
  [[nodiscard]] NodeId node() const noexcept {
    return host_.core(core_).node;
  }

  /// Burns `cycles` of CPU in category `cat`.
  [[nodiscard]] sim::Delay compute(double cycles, metrics::CpuCategory cat);

  /// memcpy of `bytes` from `src` to `dst`. `dst_coherence` is
  /// kSharedRemote when the destination pages are cached by other nodes
  /// (write-invalidate traffic + stall cycles). `src_in_cache` skips the
  /// source's memory-channel traffic (data served from LLC — the iperf
  /// small-buffer cache effect of §2.3).
  [[nodiscard]] sim::Delay copy(std::uint64_t bytes, const Placement& src,
                                const Placement& dst, metrics::CpuCategory cat,
                                Coherence dst_coherence = Coherence::kPrivate,
                                bool src_in_cache = false);

  /// Streaming read (touch) of `bytes` from `src`.
  [[nodiscard]] sim::Delay mem_read(std::uint64_t bytes, const Placement& src,
                                    metrics::CpuCategory cat);

  /// Streaming write of `bytes` to `dst`.
  [[nodiscard]] sim::Delay mem_write(std::uint64_t bytes,
                                     const Placement& dst,
                                     metrics::CpuCategory cat,
                                     Coherence coherence = Coherence::kPrivate);

  /// Kernel zero-fill of `bytes` into `dst` (reading /dev/zero).
  [[nodiscard]] sim::Delay zero_fill(std::uint64_t bytes,
                                     const Placement& dst,
                                     metrics::CpuCategory cat);

  /// Books CPU cycles and memory traffic; returns overall completion time.
  /// Placement costs come from a per-thread cached plan (see CostPlan) —
  /// resolved once per (thread, extent layout), bit-identical to the
  /// uncached arithmetic.
  sim::SimTime book(double cycles, std::uint64_t read_bytes,
                    const Placement* src, std::uint64_t write_bytes,
                    const Placement* dst, metrics::CpuCategory cat,
                    Coherence dst_coherence);

 private:
  friend class Process;

  /// Cost ingredients for one memory layout, resolved against this
  /// thread's node: per-extent channel/interconnect handles and factors,
  /// coherence hops, and the summed remote fraction. Built once per
  /// (thread, extent layout); plans are keyed by a content hash of the
  /// extents (see PlanKeyTag) and verified against the stored `extents` on
  /// every lookup, so any number of Placement copies of the same layout
  /// share one plan and steady-state bookings recompute nothing.
  struct CostPlan {
    struct Traffic {
      sim::Resource* channel = nullptr;
      sim::Resource* qpi_read = nullptr;   // remote extents only
      sim::Resource* qpi_write = nullptr;  // remote extents only
      double fraction = 0.0;
      double channel_factor = 1.0;  // numa_remote_channel_factor if remote
    };
    struct CoherenceHop {
      sim::Resource* qpi = nullptr;
      double fraction = 0.0;
    };
    std::vector<Traffic> traffic;
    std::vector<CoherenceHop> coherence;
    double remote_fraction = 0.0;
    // The layout this plan was built from; checked on every cache hit so a
    // key collision or post-booking extent edit can never alias two
    // layouts to one plan.
    SmallVec<Placement::Extent, 4> extents;
  };

  /// CPU penalty multiplier for touching `p` from this thread's node.
  [[nodiscard]] double locality_penalty(const Placement& p) const noexcept;

  const CostPlan& plan_for(const Placement& p) const;
  void build_plan(CostPlan& plan, const Placement& p) const;

  void account(metrics::CpuCategory cat, sim::SimDuration ns);

  Host& host_;
  Process* proc_;
  CoreId core_;
  // Plans keyed by extent-content hash, one bucket per key (the bucket
  // scan verifies extents, so a 64-bit collision degrades to a two-entry
  // bucket instead of wrong costs). Sized by distinct layouts this thread
  // books — a handful per run — never by I/O count. The unique_ptr keeps
  // each plan's address stable across table growth. Mutable: plan caching
  // is invisible to callers (locality_penalty stays const).
  mutable mem::FlatMap<std::vector<std::unique_ptr<CostPlan>>> plans_;
};

}  // namespace e2e::numa
