// WAN tuning: filling a long fat pipe with credits.
//
// The DOE ANI loop of the paper: 40 Gbps RoCE, 95 ms RTT, which puts the
// bandwidth-delay product near 475 MB. This example sweeps the two knobs
// that control how much data RFTP keeps in flight — parallel streams and
// credit tokens per stream — and prints when the pipe fills.
//
//   $ ./wan_tuning
#include <cstdio>

#include "exp/scenarios.hpp"
#include "metrics/table.hpp"

using namespace e2e;

int main() {
  const std::uint64_t block = 8ull << 20;
  std::printf("link: 40 Gbps, RTT 95 ms -> BDP = 475 MB; block = 8 MiB\n\n");

  metrics::Table t("WAN throughput (Gbps) vs in-flight data");
  t.header({"streams", "credits", "in-flight", "Gbps", "pipe"});
  for (int streams : {1, 2, 4}) {
    for (int credits : {4, 16, 32}) {
      const double inflight_mb =
          static_cast<double>(streams) * credits * block / 1e6;
      const double gbps = exp::run_transfer({.rig = exp::Rig::kWan,
                                             .bytes = 12ull << 30,
                                             .streams = streams,
                                             .block_bytes = block,
                                             .credits = credits})
                              .transfer.goodput_gbps;
      t.row({std::to_string(streams), std::to_string(credits),
             metrics::Table::num(inflight_mb, 0) + " MB",
             metrics::Table::num(gbps),
             gbps > 38.0 ? "full" : (gbps > 20 ? "partial" : "starved")});
    }
  }
  std::fputs(t.to_string().c_str(), stdout);
  std::printf(
      "\nrule of thumb: streams x credits x block must exceed the BDP;\n"
      "past that, bigger blocks only trim per-block protocol overhead.\n");
  return 0;
}
