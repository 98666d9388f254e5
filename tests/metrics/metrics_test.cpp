#include "metrics/metrics.hpp"

#include <gtest/gtest.h>

#include "sim/engine.hpp"

namespace e2e::metrics {
namespace {

using sim::kMillisecond;
using sim::kSecond;

TEST(CpuUsage, AccumulatesPerCategory) {
  CpuUsage u;
  u.add(CpuCategory::kCopy, 100);
  u.add(CpuCategory::kCopy, 50);
  u.add(CpuCategory::kLoad, 25);
  EXPECT_EQ(u.get(CpuCategory::kCopy), 150u);
  EXPECT_EQ(u.get(CpuCategory::kLoad), 25u);
  EXPECT_EQ(u.total(), 175u);
}

TEST(CpuUsage, PercentIsAbsoluteCpuConvention) {
  CpuUsage u;
  // 1.22 cores busy over a 1-second window == 122%.
  u.add(CpuCategory::kUserProto, static_cast<sim::SimDuration>(1.22 * 1e9));
  EXPECT_NEAR(u.total_percent(kSecond), 122.0, 0.01);
}

TEST(CpuUsage, MergeAndSince) {
  CpuUsage a, b;
  a.add(CpuCategory::kCopy, 100);
  b.add(CpuCategory::kCopy, 30);
  b.add(CpuCategory::kOffload, 5);
  a.merge(b);
  EXPECT_EQ(a.get(CpuCategory::kCopy), 130u);
  CpuUsage d = a.since(b);
  EXPECT_EQ(d.get(CpuCategory::kCopy), 100u);
  EXPECT_EQ(d.get(CpuCategory::kOffload), 0u);
}

TEST(CpuUsage, ZeroWindowGivesZeroPercent) {
  CpuUsage u;
  u.add(CpuCategory::kCopy, 100);
  EXPECT_EQ(u.percent(CpuCategory::kCopy, 0), 0.0);
}

TEST(CpuCategory, NamesAreDistinct) {
  EXPECT_EQ(to_string(CpuCategory::kUserProto), "user-proto");
  EXPECT_EQ(to_string(CpuCategory::kKernelProto), "kernel-proto");
  EXPECT_EQ(to_string(CpuCategory::kCopy), "copy");
  EXPECT_EQ(to_string(CpuCategory::kLoad), "load");
  EXPECT_EQ(to_string(CpuCategory::kOffload), "offload");
  EXPECT_EQ(to_string(CpuCategory::kOther), "other");
}

TEST(Gbps, Conversion) {
  // 1.25 GB over 1 s = 10 Gbit/s.
  EXPECT_NEAR(gbps(1'250'000'000ull, kSecond), 10.0, 1e-9);
  EXPECT_EQ(gbps(100, 0), 0.0);
}

TEST(ThroughputMeter, TotalsAndMean) {
  sim::Engine eng;
  ThroughputMeter m(eng, kSecond, "t");
  m.record(1'250'000'000ull);
  eng.run_until(kSecond);
  EXPECT_EQ(m.total_bytes(), 1'250'000'000ull);
  EXPECT_NEAR(m.mean_gbps(), 10.0, 1e-9);
}

TEST(ThroughputMeter, SeriesBinsByTime) {
  sim::Engine eng;
  ThroughputMeter m(eng, kSecond);
  m.record(125'000'000);  // t=0, bin 0
  eng.run_until(kSecond + 1);
  m.record(250'000'000);  // bin 1
  eng.run_until(3 * kSecond + 1);
  m.record(375'000'000);  // bin 3
  auto s = m.series_gbps();
  ASSERT_EQ(s.size(), 4u);
  EXPECT_NEAR(s[0], 1.0, 1e-9);
  EXPECT_NEAR(s[1], 2.0, 1e-9);
  EXPECT_NEAR(s[2], 0.0, 1e-9);
  EXPECT_NEAR(s[3], 3.0, 1e-9);
}

TEST(ThroughputMeter, ActiveWindowExcludesIdleLead) {
  sim::Engine eng;
  eng.run_until(5 * kSecond);
  ThroughputMeter m(eng, kSecond);
  m.record(625'000'000);
  eng.run_until(6 * kSecond);
  m.record(625'000'000);
  // 1.25 GB over the 1s active span = 10 Gbps.
  EXPECT_NEAR(m.active_gbps(), 10.0, 1e-9);
}

TEST(ThroughputMeter, ZeroBinWidthFallsBackToOneSecond) {
  sim::Engine eng;
  ThroughputMeter m(eng, 0);
  EXPECT_EQ(m.bin_width(), kSecond);
  m.record(125'000'000);  // must not divide by zero
  ASSERT_EQ(m.series_gbps().size(), 1u);
  EXPECT_NEAR(m.series_gbps()[0], 1.0, 1e-9);
}

TEST(ThroughputMeter, ExactBinBoundaryLandsInNextBin) {
  sim::Engine eng;
  ThroughputMeter m(eng, kSecond);
  eng.run_until(kSecond);  // now == exactly one bin width
  m.record(125'000'000);
  auto s = m.series_gbps();
  ASSERT_EQ(s.size(), 2u);
  EXPECT_NEAR(s[0], 0.0, 1e-9);
  EXPECT_NEAR(s[1], 1.0, 1e-9);
}

TEST(ThroughputMeter, LongIdleGapStaysSparse) {
  sim::Engine eng;
  ThroughputMeter m(eng, kMillisecond);
  m.record(125'000);                // bin 0
  eng.run_until(100 * kSecond);     // long idle gap: 100k empty bins
  m.record(125'000);                // bin 100000
  // Storage is bounded by record() calls, not idle time.
  EXPECT_EQ(m.active_bin_count(), 2u);
  // The dense series still reports the idle bins as zero.
  auto s = m.series_gbps();
  ASSERT_EQ(s.size(), 100'000u + 1u);
  EXPECT_NEAR(s.front(), 1.0, 1e-9);
  EXPECT_NEAR(s.back(), 1.0, 1e-9);
  EXPECT_NEAR(s[50'000], 0.0, 1e-9);
  EXPECT_EQ(m.total_bytes(), 250'000u);
}

TEST(ThroughputMeter, SingleRecordHasNoActiveWindow) {
  sim::Engine eng;
  eng.run_until(kSecond);
  ThroughputMeter m(eng, kSecond);
  m.record(1'000'000);
  // first == last: a zero-width active span must not divide by zero.
  EXPECT_EQ(m.active_gbps(), 0.0);
  EXPECT_GT(m.mean_gbps(), 0.0);
}

TEST(Table, AsciiRendering) {
  Table t("demo");
  t.header({"name", "gbps"});
  t.row({"rftp", Table::num(91.0)});
  t.row({"gridftp", Table::num(29.0)});
  const std::string s = t.to_string();
  EXPECT_NE(s.find("demo"), std::string::npos);
  EXPECT_NE(s.find("rftp"), std::string::npos);
  EXPECT_NE(s.find("91.0"), std::string::npos);
  EXPECT_EQ(t.row_count(), 2u);
}

TEST(Table, CsvRendering) {
  Table t;
  t.header({"a", "b"});
  t.row({"1", "2,3"});
  EXPECT_EQ(t.to_csv(), "a,b\n1,2;3\n");
}

TEST(Table, NumFormatting) {
  EXPECT_EQ(Table::num(3.14159, 2), "3.14");
  EXPECT_EQ(Table::num(10, 0), "10");
}

}  // namespace
}  // namespace e2e::metrics
