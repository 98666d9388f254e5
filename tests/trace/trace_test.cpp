#include "trace/trace.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "exp/runner.hpp"
#include "model/host_profile.hpp"
#include "net/link.hpp"
#include "numa/host.hpp"
#include "numa/process.hpp"
#include "obs/probe.hpp"
#include "rdma/device.hpp"
#include "rftp/rftp.hpp"
#include "sim/engine.hpp"
#include "sim/resource.hpp"

namespace e2e::trace {
namespace {

TEST(Tracer, OfIsNullUntilInstalled) {
  sim::Engine eng;
  EXPECT_EQ(of(eng), nullptr);
  {
    Tracer t(eng);
    EXPECT_EQ(of(eng), nullptr);  // construction alone does not install
    t.install();
    EXPECT_EQ(of(eng), &t);
  }
  // Destruction uninstalls, so no dangling observer survives the tracer.
  EXPECT_EQ(of(eng), nullptr);
}

TEST(Tracer, TrackIsIdempotentAndMintNumbersInOrder) {
  sim::Engine eng;
  Tracer t(eng);
  EXPECT_EQ(t.track(obs::Layer::kRdma, "qp"), t.track(obs::Layer::kRdma, "qp"));
  // Same actor string under a different layer is a different track.
  EXPECT_NE(t.track(obs::Layer::kRdma, "qp"), t.track(obs::Layer::kTcp, "qp"));
  const TrackId a = t.mint_track(obs::Layer::kRftp, "fill");
  const TrackId b = t.mint_track(obs::Layer::kRftp, "fill");
  EXPECT_NE(a, b);
}

TEST(Tracer, CachedTrackRemintsPerTracer) {
  sim::Engine eng;
  obs::Track site(obs::Layer::kRftp, {"s0/fill"});
  TrackId first;
  {
    Tracer t1(eng);
    t1.install();
    first = site.get(&t1);
    EXPECT_EQ(site.get(&t1), first);  // cached
  }
  Tracer t2(eng);
  t2.install();
  // A fresh tracer starts numbering from scratch; the cache must re-mint
  // rather than hand back a track id from the dead tracer.
  EXPECT_EQ(site.get(&t2), first);
  EXPECT_EQ(t2.event_count(), 0u);
}

TEST(Tracer, CountersAreMonotoneAcrossSamples) {
  sim::Engine eng;
  Tracer t(eng);
  t.install();
  t.enable_resource_sampler(10 * sim::kMicrosecond);
  for (int i = 1; i <= 5; ++i)
    eng.schedule_at(static_cast<sim::SimTime>(i) * 25 * sim::kMicrosecond,
                    [&t] { t.counter("test/ticks").add(3); });
  eng.run();
  EXPECT_EQ(t.counter_value("test/ticks"), 15u);
  double prev = -1.0;
  int seen = 0;
  for (const auto& s : t.samples()) {
    if (t.name_of(s.series) != "test/ticks") continue;
    EXPECT_GE(s.value, prev);
    prev = s.value;
    ++seen;
  }
  EXPECT_GT(seen, 1);
}

TEST(Tracer, ResourceSamplerRecordsUtilization) {
  sim::Engine eng;
  sim::Resource res(eng, 1e9, "wire");  // 1 unit/ns
  Tracer t(eng);
  t.install();
  t.enable_resource_sampler(10 * sim::kMicrosecond);
  // Half-load the resource: 5 us of service per 10 us sample period.
  for (int i = 0; i < 10; ++i)
    eng.schedule_at(static_cast<sim::SimTime>(i) * 10 * sim::kMicrosecond,
                    [&res] { res.charge(5.0 * 1e3); });
  eng.run();
  double util_sum = 0.0;
  int n = 0;
  for (const auto& s : t.samples())
    if (t.name_of(s.series) == "util/wire") {
      util_sum += s.value;
      ++n;
    }
  ASSERT_GT(n, 0);
  EXPECT_NEAR(util_sum / n, 0.5, 0.2);
  // Service windows also appear as spans on the sim layer.
  EXPECT_GT(t.event_count(), 0u);
}

TEST(Tracer, SamplerDoesNotKeepEngineAlive) {
  sim::Engine eng;
  sim::Resource res(eng, 1e9, "wire");
  Tracer t(eng);
  t.install();
  t.enable_resource_sampler(sim::kMicrosecond);
  eng.schedule_at(5 * sim::kMicrosecond, [] {});
  eng.run();  // the samples ride on dispatch: no event of their own
  EXPECT_EQ(eng.now(), 5 * sim::kMicrosecond);
  EXPECT_EQ(eng.events_processed(), 1u);
  std::vector<sim::SimTime> stamps;
  for (const auto& s : t.samples()) stamps.push_back(s.ts);
  // Boundaries 1..4 us, each stamped with its boundary; 5 us is not past.
  EXPECT_EQ(stamps, (std::vector<sim::SimTime>{1000, 2000, 3000, 4000}));
}

TEST(Tracer, UninstallStopsTheSampler) {
  sim::Engine eng;
  sim::Resource res(eng, 1e9, "wire");
  {
    Tracer t(eng);
    t.install();
    t.enable_resource_sampler(sim::kMicrosecond);
    t.uninstall();
    eng.schedule_at(5 * sim::kMicrosecond, [] {});
    eng.run();
    EXPECT_TRUE(t.samples().empty());
    t.install();
    t.enable_resource_sampler(sim::kMicrosecond);
  }
  // Destruction uninstalls the tracer, so no sample reaches it after.
  eng.schedule_at(10 * sim::kMicrosecond, [] {});
  eng.run();
  EXPECT_EQ(eng.events_processed(), 2u);
}

TEST(Tracer, SampleAtABoundarySeesEveryEventAtIt) {
  sim::Engine eng;
  sim::Resource res(eng, 1e9, "wire");  // 1 unit/ns
  Tracer t(eng);
  t.install();
  t.enable_resource_sampler(10 * sim::kMicrosecond);
  // 5 us of service booked exactly at the 10 us boundary, by an event
  // scheduled after the sampler was armed: the 10 us sample still sees it.
  eng.schedule_at(10 * sim::kMicrosecond, [&res] { res.charge(5.0 * 1e3); });
  eng.schedule_at(25 * sim::kMicrosecond, [] {});
  eng.run();
  std::vector<std::pair<sim::SimTime, double>> util;
  for (const auto& s : t.samples())
    if (t.name_of(s.series) == "util/wire") util.emplace_back(s.ts, s.value);
  EXPECT_EQ(util, (std::vector<std::pair<sim::SimTime, double>>{
                      {10 * sim::kMicrosecond, 0.5},
                      {20 * sim::kMicrosecond, 0.0}}));
}

// Minimal JSON well-formedness scan: balanced structure outside strings,
// legal escapes, no trailing garbage. Not a full parser, but rejects the
// classic exporter bugs (unbalanced brackets, raw quotes in names).
bool json_well_formed(const std::string& s) {
  int depth = 0;
  bool in_str = false;
  bool esc = false;
  for (const char c : s) {
    if (in_str) {
      if (esc) {
        esc = false;
      } else if (c == '\\') {
        esc = true;
      } else if (c == '"') {
        in_str = false;
      } else if (static_cast<unsigned char>(c) < 0x20) {
        return false;  // raw control character inside a string
      }
      continue;
    }
    if (c == '"') in_str = true;
    if (c == '{' || c == '[') ++depth;
    if (c == '}' || c == ']') {
      if (--depth < 0) return false;
    }
    if (depth == 0 && (c == '}' || c == ']') && &c != &s.back()) {
      // Only whitespace may follow the closing brace.
      const std::size_t pos = static_cast<std::size_t>(&c - s.data());
      for (std::size_t i = pos + 1; i < s.size(); ++i)
        if (s[i] != '\n' && s[i] != ' ') return false;
    }
  }
  return depth == 0 && !in_str;
}

// One small but real transfer (memory-to-memory RFTP over a RoCE link),
// traced end to end. Returns the exported Chrome trace.
struct TraceOutput {
  std::string chrome;
};

TraceOutput run_traced_transfer() {
  sim::Engine eng;
  numa::Host a(eng, model::front_end_lan_host("a"));
  numa::Host b(eng, model::front_end_lan_host("b"));
  rdma::Device da(a, a.profile().nics[0]);
  rdma::Device db(b, b.profile().nics[0]);
  auto link = net::make_roce_lan(eng, "wire");
  link->bind_endpoints(&a, &b);
  numa::Process pa(a, "client", numa::NumaBinding::bound(da.node()));
  numa::Process pb(b, "server", numa::NumaBinding::bound(db.node()));
  rftp::RftpConfig cfg;
  cfg.streams = 2;
  cfg.block_bytes = 1 << 20;
  cfg.credits_per_stream = 4;
  rftp::RftpSession sess({&pa, {&da}}, {&pb, {&db}}, {link.get()}, cfg);
  rftp::MemorySource src(64ull << 20, numa::Placement::on(0));
  rftp::MemorySink dst;

  Tracer tracer(eng);
  tracer.install();
  tracer.enable_resource_sampler(sim::kMillisecond);
  exp::run_task(eng, sess.run(src, dst, 64ull << 20));
  tracer.sample_now();

  std::ostringstream c;
  tracer.write_chrome_trace(c);
  return TraceOutput{c.str()};
}

TEST(TraceExport, ChromeTraceIsWellFormedAndPopulated) {
  const TraceOutput out = run_traced_transfer();
  EXPECT_TRUE(json_well_formed(out.chrome));
  EXPECT_EQ(out.chrome.rfind("{\"traceEvents\":[", 0), 0u);
  // Layer processes, span events, counter samples, async block spans.
  EXPECT_NE(out.chrome.find("\"process_name\""), std::string::npos);
  EXPECT_NE(out.chrome.find("\"rftp\""), std::string::npos);
  EXPECT_NE(out.chrome.find("\"rdma\""), std::string::npos);
  EXPECT_NE(out.chrome.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(out.chrome.find("\"ph\":\"C\""), std::string::npos);
  EXPECT_NE(out.chrome.find("\"ph\":\"b\""), std::string::npos);
  EXPECT_NE(out.chrome.find("\"ph\":\"e\""), std::string::npos);
  EXPECT_NE(out.chrome.find("util/wire"), std::string::npos);
}

TEST(TraceExport, RerunsAreByteIdentical) {
  const TraceOutput first = run_traced_transfer();
  const TraceOutput second = run_traced_transfer();
  EXPECT_EQ(first.chrome, second.chrome);
  EXPECT_GT(first.chrome.size(), 1000u);  // and not trivially empty
}

}  // namespace
}  // namespace e2e::trace
