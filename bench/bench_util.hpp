// Output helpers shared by the bench_figures rows.
#pragma once

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "metrics/cpu_usage.hpp"
#include "metrics/table.hpp"
#include "stats/stats.hpp"
#include "trace/trace.hpp"

namespace e2e::bench {

/// Opt-in tracing for scenario runs, shared by the bench drivers.
///
/// When E2E_TRACE=out.json names a Chrome/Perfetto trace-event JSON file,
/// constructing a ScopedTrace installs a tracer (plus a 10 ms resource
/// sampler) on `eng` and writes the file on destruction. Without it no
/// tracer is installed, so benchmark numbers are the untraced numbers.
/// Repeated scenario runs overwrite the same file; the surviving trace
/// describes the last run.
class ScopedTrace {
 public:
  explicit ScopedTrace(sim::Engine& eng) {
    const char* trace_file = std::getenv("E2E_TRACE");
    if (trace_file != nullptr) trace_file_ = trace_file;
    if (trace_file_.empty()) return;
    tracer_ = std::make_unique<trace::Tracer>(eng);
    tracer_->install();
    tracer_->enable_resource_sampler(10 * sim::kMillisecond);
  }
  ScopedTrace(const ScopedTrace&) = delete;
  ScopedTrace& operator=(const ScopedTrace&) = delete;
  ~ScopedTrace() {
    if (!tracer_) return;
    tracer_->sample_now();
    std::ofstream os(trace_file_);
    if (os) tracer_->write_chrome_trace(os);
  }

 private:
  std::string trace_file_;
  std::unique_ptr<trace::Tracer> tracer_;
};

/// Always-on metric registry for scenario runs, shared by the bench
/// drivers. Constructing one installs a stats::Registry on `eng` (the
/// stats hot path is cheap enough to leave on under the timer, unlike the
/// tracer); when E2E_STATS names a file the aggregated dump is written on
/// destruction (.csv suffix -> CSV, else JSON). Scenario drivers read
/// latency histograms back through get()/merged() so bench percentiles and
/// scenario percentiles come from the one stats::Histogram implementation.
class ScopedStats {
 public:
  explicit ScopedStats(sim::Engine& eng) : stats_(eng) {
    if (const char* p = std::getenv("E2E_STATS")) out_ = p;
    stats_.install();
  }
  ScopedStats(const ScopedStats&) = delete;
  ScopedStats& operator=(const ScopedStats&) = delete;
  ~ScopedStats() {
    stats_.uninstall();
    if (out_.empty()) return;
    std::ofstream os(out_);
    if (!os) return;
    if (out_.size() >= 4 && out_.compare(out_.size() - 4, 4, ".csv") == 0)
      stats_.write_csv(os);
    else
      stats_.write_json(os);
  }

  [[nodiscard]] stats::Registry* get() noexcept { return &stats_; }
  /// All entities' `name` histograms merged into one distribution.
  [[nodiscard]] stats::Histogram merged(std::string_view name) const {
    return stats_.merged_histogram(name);
  }

 private:
  std::string out_;
  stats::Registry stats_;
};

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
