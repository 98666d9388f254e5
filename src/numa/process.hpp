// Simulated process: a named group of threads with a shared NUMA policy.
//
// Maps to the unit `numactl` operates on: constructing a Process with
// SchedPolicy::kBindNode + MemPolicy::kBind on node N models
// `numactl --cpunodebind=N --membind=N <app>`, the static tuning the paper
// applies to the iSER target, RFTP and GridFTP. SchedPolicy::kOsDefault +
// MemPolicy::kFirstTouch models the untuned baseline.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "metrics/cpu_usage.hpp"
#include "numa/host.hpp"
#include "numa/thread.hpp"
#include "numa/types.hpp"

namespace e2e::numa {

struct NumaBinding {
  SchedPolicy sched = SchedPolicy::kOsDefault;
  MemPolicy mem = MemPolicy::kFirstTouch;
  NodeId node = kAnyNode;  // bind target for kBindNode / kBind

  /// numactl --cpunodebind=N --membind=N
  static NumaBinding bound(NodeId n) {
    return {SchedPolicy::kBindNode, MemPolicy::kBind, n};
  }
  /// Stock Linux scheduling + first-touch allocation.
  static NumaBinding os_default() { return {}; }
};

class Process {
 public:
  Process(Host& host, std::string name,
          NumaBinding binding = NumaBinding::os_default())
      : host_(host), name_(std::move(name)), binding_(binding) {}
  Process(const Process&) = delete;
  Process& operator=(const Process&) = delete;

  /// Creates a thread placed per the process scheduling policy.
  /// `preferred` overrides the binding's node (for per-thread placement
  /// inside a bound process, e.g. one worker per NIC-local node).
  Thread& spawn_thread(NodeId preferred = kAnyNode) {
    const NodeId n = preferred != kAnyNode ? preferred : binding_.node;
    threads_.push_back(
        std::make_unique<Thread>(host_, this, binding_.sched, n));
    return *threads_.back();
  }

  /// Creates a thread pinned to an explicit core.
  Thread& spawn_pinned_thread(CoreId core) {
    threads_.push_back(std::make_unique<Thread>(host_, this, core));
    return *threads_.back();
  }

  /// Allocates memory under the process memory policy. `toucher` is the
  /// node of the thread that first touches the pages (first-touch policy);
  /// it also serves as the bind target when the process binding says
  /// "bind" without naming a node (per-thread numactl-style placement).
  Placement alloc(std::uint64_t bytes, NodeId toucher = kAnyNode) {
    const NodeId touch = toucher != kAnyNode ? toucher
                         : binding_.node != kAnyNode ? binding_.node
                                                     : 0;
    const NodeId bind_to = binding_.node != kAnyNode ? binding_.node : touch;
    return host_.alloc(bytes, binding_.mem, bind_to, touch);
  }

  [[nodiscard]] Host& host() noexcept { return host_; }
  [[nodiscard]] metrics::CpuUsage& usage() noexcept { return usage_; }
  [[nodiscard]] std::size_t thread_count() const noexcept {
    return threads_.size();
  }

 private:
  Host& host_;
  std::string name_;
  NumaBinding binding_;
  metrics::CpuUsage usage_;
  std::vector<std::unique_ptr<Thread>> threads_;
};

}  // namespace e2e::numa
