// Data-center synchronization: the paper's Figure 1 / Figure 5 scenario.
//
// Moves a dataset across the full end-to-end path:
//
//   source SAN (iSER over 2x56G IB) -> source front-end
//     -> three 40G RoCE links -> destination front-end
//     -> destination SAN (iSER over 2x56G IB)
//
// with XFS over the striped iSER volume on both sides, NUMA-tuned
// throughout, and RFTP's locality-aware block routing keeping each block's
// storage DMA, staging buffer and wire DMA on one socket.
//
//   $ ./datacenter_sync [GiB]
#include <cstdio>
#include <cstdlib>

#include "exp/scenarios.hpp"

using namespace e2e;

int main(int argc, char** argv) {
  const std::uint64_t gib = argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 16;

  std::printf("bringing up the end-to-end testbed (two SANs, 3x40G RoCE)...\n");
  // Defaults: NUMA-tuned throughout; RFTP with 3 streams, 4 MiB blocks and
  // 16 credits. The source file lives on XFS over the striped iSER volume,
  // and RFTP routes each block through the socket whose NIC serves it.
  const exp::TransferRun r =
      exp::run_transfer({.rig = exp::Rig::kE2e, .bytes = gib << 30});

  std::printf("synchronized %llu GiB in %.1f s  ->  %.1f Gbps end to end\n",
              static_cast<unsigned long long>(gib), r.transfer.elapsed_s,
              r.transfer.goodput_gbps);
  std::printf("throughput per second: ");
  for (double g : r.series_gbps) std::printf("%.0f ", g);
  std::printf("Gbps\n");

  const auto& usage = r.src_usage;
  std::printf("source host CPU: %.0f%% total (user-proto %.0f%%, kernel %.0f%%)\n",
              usage.total_percent(r.end),
              usage.percent(metrics::CpuCategory::kUserProto, r.end),
              usage.percent(metrics::CpuCategory::kKernelProto, r.end));
  return 0;
}
