// Verbs micro-benchmarks (the perftest suite: ib_send_bw / ib_write_bw /
// ib_read_bw / ib_send_lat analogues).
//
// Every RDMA deployment starts with these: single-QP bandwidth sweeps over
// message sizes, message-rate tests for small messages, and ping-pong
// latency. They validate the verbs layer against the obvious analytic
// targets (line rate, RTT) and give users the familiar first tool.
#pragma once

#include <cstdint>

#include "net/link.hpp"
#include "numa/process.hpp"
#include "rdma/rdma.hpp"

namespace e2e::apps {

enum class PerftestOp { kSend, kWrite, kRead };

struct PerftestConfig {
  PerftestOp op = PerftestOp::kWrite;
  std::uint64_t msg_bytes = 1 << 16;
  int iterations = 1000;
};

struct PerftestResult {
  double gbps = 0.0;          // payload bandwidth
  double msgs_per_sec = 0.0;  // message rate
  double avg_lat_us = 0.0;    // latency tests: one-way ping-pong half-RTT
};

/// Bandwidth test: keeps 64 messages in flight for `iterations`
/// messages and reports payload bandwidth and message rate.
PerftestResult run_bw(sim::Engine& eng, rdma::ConnectedPair& pair,
                      numa::Process& client, numa::Process& server,
                      const PerftestConfig& cfg);

/// Latency test: SEND ping-pong, reports the average half-round-trip.
PerftestResult run_lat(sim::Engine& eng, rdma::ConnectedPair& pair,
                       numa::Process& client, numa::Process& server,
                       const PerftestConfig& cfg);

}  // namespace e2e::apps
