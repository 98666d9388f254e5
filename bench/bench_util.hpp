// Output helpers shared by the bench_figures rows.
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "metrics/cpu_usage.hpp"
#include "metrics/table.hpp"
#include "stats/stats.hpp"

namespace e2e::bench {

/// Appends one `label: count/mean/p50/p90/p99/p999` row per histogram to
/// `t` — the single percentile-summary formatter every bench shares (the
/// math itself lives in stats::Histogram).
inline void add_hist_rows(
    metrics::Table& t,
    const std::vector<std::pair<std::string, const stats::Histogram*>>& hists,
    double scale = 1e-3, int digits = 1) {
  for (const auto& [label, h] : hists) {
    if (h == nullptr || h->count() == 0) continue;
    auto n = [&](std::uint64_t v) {
      return metrics::Table::num(static_cast<double>(v) * scale, digits);
    };
    t.row({label, std::to_string(h->count()), n(static_cast<std::uint64_t>(h->mean())),
           n(h->p50()), n(h->p90()), n(h->p99()), n(h->p999())});
  }
}

/// Prints a percentile table for a set of named latency histograms
/// (values scaled by `scale`; the default renders ns as us).
inline void print_hist_percentiles(
    const std::string& title,
    const std::vector<std::pair<std::string, const stats::Histogram*>>&
        hists,
    double scale = 1e-3, int digits = 1) {
  metrics::Table t(title);
  t.header({"metric", "count", "mean", "p50", "p90", "p99", "p999"});
  add_hist_rows(t, hists, scale, digits);
  std::fputs(t.to_string().c_str(), stdout);
  std::fputc('\n', stdout);
}

struct PaperRow {
  std::string label;
  double paper = 0.0;     // value reported in the paper (0 = not reported)
  double measured = 0.0;  // value this reproduction measured
  std::string unit;
};

/// Prints a paper-vs-measured table with relative deltas.
inline void print_comparison(const std::string& title,
                             const std::vector<PaperRow>& rows) {
  metrics::Table t(title);
  t.header({"metric", "paper", "measured", "delta", "unit"});
  for (const auto& r : rows) {
    std::string delta = "-";
    if (r.paper != 0.0)
      delta = metrics::Table::num(100.0 * (r.measured - r.paper) / r.paper, 1) +
              "%";
    t.row({r.label,
           r.paper != 0.0 ? metrics::Table::num(r.paper, 1) : std::string("-"),
           metrics::Table::num(r.measured, 1), delta, r.unit});
  }
  std::fputs(t.to_string().c_str(), stdout);
  std::fputc('\n', stdout);
}

/// Formats a CPU usage breakdown as one table row set.
inline void print_cpu_breakdown(const std::string& title,
                                const metrics::CpuUsage& u,
                                sim::SimDuration window) {
  using metrics::CpuCategory;
  metrics::Table t(title);
  t.header({"category", "cpu%"});
  for (auto c : {CpuCategory::kUserProto, CpuCategory::kKernelProto,
                 CpuCategory::kCopy, CpuCategory::kLoad,
                 CpuCategory::kOffload, CpuCategory::kOther})
    t.row({std::string(metrics::to_string(c)),
           metrics::Table::num(u.percent(c, window), 1)});
  t.row({"total", metrics::Table::num(u.total_percent(window), 1)});
  std::fputs(t.to_string().c_str(), stdout);
  std::fputc('\n', stdout);
}

}  // namespace e2e::bench
