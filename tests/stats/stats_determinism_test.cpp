#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "check/audit.hpp"
#include "exp/runner.hpp"
#include "model/host_profile.hpp"
#include "net/link.hpp"
#include "numa/host.hpp"
#include "numa/process.hpp"
#include "rdma/device.hpp"
#include "rftp/rftp.hpp"
#include "sim/engine.hpp"
#include "stats/stats.hpp"

namespace e2e::stats {
namespace {

// Same scanner the trace tests use: balanced structure outside strings,
// legal escapes, no trailing garbage.
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
        return false;
      }
      continue;
    }
    if (c == '"') in_str = true;
    if (c == '{' || c == '[') ++depth;
    if (c == '}' || c == ']') {
      if (--depth < 0) return false;
    }
  }
  return depth == 0 && !in_str;
}

struct StatsOutput {
  std::string json;
  std::string csv;
};

// One small but real transfer (memory-to-memory RFTP over a RoCE link)
// with the registry installed — the stats analog of run_traced_transfer.
StatsOutput run_instrumented_transfer() {
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

  Registry st(eng);
  st.install();
  exp::run_task(eng, sess.run(src, dst, 64ull << 20));

  StatsOutput out;
  std::ostringstream j, v;
  st.write_json(j);
  st.write_csv(v);
  out.json = j.str();
  out.csv = v.str();
  return out;
}

TEST(StatsExport, JsonIsWellFormedAndCoversTheStack) {
  const StatsOutput out = run_instrumented_transfer();
  EXPECT_TRUE(json_well_formed(out.json));
  EXPECT_NE(out.json.find("\"e2e-stats-v1\""), std::string::npos);
  // RFTP stream histograms and RDMA QP counters both made it through.
  EXPECT_NE(out.json.find("drain_ns"), std::string::npos);
  EXPECT_NE(out.json.find("fill_ns"), std::string::npos);
  EXPECT_NE(out.json.find("wr_posted"), std::string::npos);
  EXPECT_NE(out.json.find("blocks_delivered"), std::string::npos);
  EXPECT_NE(out.csv.find("wr_posted"), std::string::npos);
}

TEST(StatsExport, SameSeedRunsAreByteIdentical) {
  const StatsOutput first = run_instrumented_transfer();
  const StatsOutput second = run_instrumented_transfer();
  EXPECT_EQ(first.json, second.json);
  EXPECT_EQ(first.csv, second.csv);
  EXPECT_GT(first.json.size(), 500u);  // and not trivially empty
}

TEST(StatsFlight, AuditViolationTriggersDumpWithPrecedingWindow) {
  sim::Engine eng;
  Registry st(eng);
  st.install();
  std::ostringstream os;
  st.set_flight_stream(&os);

  // Seed the ring with ordinary-operation records so the dump shows the
  // window *before* the fault, not just the fault itself.
  const EntityId e = st.entity(obs::Layer::kRftp, "stream#0");
  const CodeId drained = st.code("block-drained");
  for (int i = 0; i < 5; ++i) st.flight(obs::Layer::kRftp, e, drained, i);

  // Plant a violation: over-delivery fires the instant flow_out exceeds
  // flow_in, and Auditor::violate routes it into the flight recorder.
  check::Auditor au(eng);
  int dummy = 0;
  au.flow_out(&dummy, "planted", 1);

  EXPECT_TRUE(st.flight_dump_triggered());
  const std::string dump = os.str();
  EXPECT_NE(dump.find("reason: audit:flow.over-delivery"), std::string::npos)
      << dump;
  EXPECT_NE(dump.find("block-drained"), std::string::npos) << dump;
  EXPECT_NE(dump.find("arg=4"), std::string::npos);  // newest pre-fault row
}

}  // namespace
}  // namespace e2e::stats
