// CPU time accounting by cost category.
//
// The paper reports CPU cost broken down into the categories of Fig. 4 /
// Fig. 10 / Fig. 12 / Fig. 14: user-space protocol processing, kernel-space
// protocol processing (TCP/IP stack + interrupts), memory copies between
// user and kernel space, data loading (storage/source reads), and data
// offloading (storage/sink writes). Every simulated CPU charge in the
// library is tagged with one of these categories, giving a getrusage/perf
// style breakdown per thread, per process, or per host.
#pragma once

#include <array>
#include <cstdint>
#include <string_view>

#include "sim/time.hpp"

namespace e2e::metrics {

enum class CpuCategory : std::uint8_t {
  kUserProto = 0,  // user-space protocol processing (RFTP/GridFTP logic)
  kKernelProto,    // kernel TCP/IP stack, interrupt handling, syscalls
  kCopy,           // user<->kernel memory copies
  kLoad,           // loading data from the source (storage read, zero-fill)
  kOffload,        // offloading data to the sink (storage write, discard)
  kOther,          // anything else (setup, bookkeeping)
};

inline constexpr std::size_t kCpuCategoryCount = 6;

constexpr std::string_view to_string(CpuCategory c) noexcept {
  switch (c) {
    case CpuCategory::kUserProto: return "user-proto";
    case CpuCategory::kKernelProto: return "kernel-proto";
    case CpuCategory::kCopy: return "copy";
    case CpuCategory::kLoad: return "load";
    case CpuCategory::kOffload: return "offload";
    case CpuCategory::kOther: return "other";
  }
  return "?";
}

/// Accumulated CPU time per category. "100%" equals one fully utilized core
/// over the measurement window, matching the paper's absolute-CPU-time
/// convention (122% == 1.22 cores).
class CpuUsage {
 public:
  void add(CpuCategory c, sim::SimDuration ns) noexcept {
    ns_[static_cast<std::size_t>(c)] += ns;
  }

  void merge(const CpuUsage& o) noexcept {
    for (std::size_t i = 0; i < kCpuCategoryCount; ++i) ns_[i] += o.ns_[i];
  }

  [[nodiscard]] sim::SimDuration get(CpuCategory c) const noexcept {
    return ns_[static_cast<std::size_t>(c)];
  }

  [[nodiscard]] sim::SimDuration total() const noexcept {
    sim::SimDuration s = 0;
    for (auto v : ns_) s += v;
    return s;
  }

  /// Percent of one core over `window` spent in category `c`.
  [[nodiscard]] double percent(CpuCategory c,
                               sim::SimDuration window) const noexcept {
    if (window == 0) return 0.0;
    return 100.0 * static_cast<double>(get(c)) / static_cast<double>(window);
  }

  [[nodiscard]] double total_percent(sim::SimDuration window) const noexcept {
    if (window == 0) return 0.0;
    return 100.0 * static_cast<double>(total()) / static_cast<double>(window);
  }

  /// Calls word(ns) on each category's total, by reference (the
  /// fast-forward fold of numa::Host, see sim::PeriodMarks).
  template <typename Word>
  void ff_fields(Word&& word) {
    for (sim::SimDuration& ns : ns_) word(ns);
  }

  /// Difference (this - baseline), used to report a measurement window.
  [[nodiscard]] CpuUsage since(const CpuUsage& baseline) const noexcept {
    CpuUsage d;
    for (std::size_t i = 0; i < kCpuCategoryCount; ++i)
      d.ns_[i] = ns_[i] - baseline.ns_[i];
    return d;
  }

 private:
  std::array<sim::SimDuration, kCpuCategoryCount> ns_{};
};

}  // namespace e2e::metrics
