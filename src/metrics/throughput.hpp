// Throughput measurement: total averages and binned time series.
//
// Used to regenerate the paper's throughput-over-time figures (Figs. 9/11)
// and all headline Gbps numbers.
#pragma once

#include <cassert>
#include <cstdint>
#include <string>
#include <vector>

#include "sim/engine.hpp"
#include "sim/time.hpp"

namespace e2e::metrics {

/// Converts bytes over a window to Gbps (decimal gigabits, as the paper).
constexpr double gbps(std::uint64_t bytes, sim::SimDuration window) noexcept {
  if (window == 0) return 0.0;
  return static_cast<double>(bytes) * 8.0 / static_cast<double>(window);
  // bytes*8 bits over window ns == bits/ns == Gbit/s.
}

class ThroughputMeter {
 public:
  ThroughputMeter(sim::Engine& eng, sim::SimDuration bin_width,
                  std::string name = {})
      : eng_(eng), bin_width_(bin_width ? bin_width : sim::kSecond),
        name_(std::move(name)) {}

  /// Records `bytes` delivered at the current *modeled* time
  /// (Engine::virtual_now — identical to now() unless a fast-forward
  /// skipped time, which a metered RFTP session never does).
  ///
  /// Bins are stored sparsely (one entry per bin that saw traffic), so a
  /// record arriving after a long idle gap appends one entry instead of
  /// zero-filling every empty bin in between — a multi-hour WAN sim with
  /// 1 ms bins would otherwise allocate gigabytes. Engine time is
  /// non-decreasing, so the append-or-accumulate-at-tail fast path covers
  /// every call.
  void record(std::uint64_t bytes) {
    const sim::SimTime t = eng_.virtual_now();
    const std::uint64_t bin = t / bin_width_;
    if (!bins_.empty() && bins_.back().index == bin) {
      bins_.back().bytes += bytes;
    } else {
      assert(bins_.empty() || bin > bins_.back().index);
      bins_.push_back({bin, bytes});
    }
    total_ += bytes;
    if (first_ == sim::kTimeInfinity) first_ = t;
    last_ = t;
  }

  [[nodiscard]] std::uint64_t total_bytes() const noexcept { return total_; }

  /// Mean throughput over the full modeled time.
  [[nodiscard]] double mean_gbps() const noexcept {
    return gbps(total_, eng_.virtual_now());
  }

  /// Mean throughput between first and last recorded byte.
  [[nodiscard]] double active_gbps() const noexcept {
    if (first_ == sim::kTimeInfinity || last_ <= first_) return 0.0;
    return gbps(total_, last_ - first_);
  }

  /// Per-bin throughput series in Gbps, dense from bin 0 through the last
  /// bin that saw traffic (idle bins read 0, exactly as the old dense
  /// storage reported them).
  [[nodiscard]] std::vector<double> series_gbps() const {
    std::vector<double> out(
        bins_.empty() ? 0 : static_cast<std::size_t>(bins_.back().index) + 1,
        0.0);
    for (const auto& b : bins_)
      out[static_cast<std::size_t>(b.index)] = gbps(b.bytes, bin_width_);
    return out;
  }

  /// Number of bins that actually saw traffic (the sparse storage size —
  /// bounded by record() calls, not by idle time).
  [[nodiscard]] std::size_t active_bin_count() const noexcept {
    return bins_.size();
  }

  [[nodiscard]] sim::SimDuration bin_width() const noexcept {
    return bin_width_;
  }

 private:
  struct Bin {
    std::uint64_t index;
    std::uint64_t bytes;
  };

  sim::Engine& eng_;
  sim::SimDuration bin_width_;
  std::string name_;
  std::vector<Bin> bins_;  // sparse, index strictly increasing
  std::uint64_t total_ = 0;
  sim::SimTime first_ = sim::kTimeInfinity;
  sim::SimTime last_ = 0;
};

}  // namespace e2e::metrics
