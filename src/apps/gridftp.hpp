// GridFTP-style TCP file transfer baseline (Figs. 9-12 comparator).
//
// Models the three handicaps the paper identifies:
//  1. TCP stack cost — inherited from tcp::Connection (copies, per-packet
//     kernel work);
//  2. single-threaded design — each process runs ONE thread that
//     alternates blocking file I/O and blocking socket I/O, so the network
//     idles while the disk works and vice versa; parallelism comes only
//     from running multiple processes;
//  3. no direct I/O — file I/O goes through the page cache (extra copy,
//     writeback pressure, eviction churn).
#pragma once

#include <cstdint>
#include <vector>

#include "blk/filesystem.hpp"
#include "metrics/throughput.hpp"
#include "net/link.hpp"
#include "numa/host.hpp"
#include "rftp/config.hpp"
#include "tcp/connection.hpp"

namespace e2e::apps {

struct GridFtpConfig {
  std::uint64_t chunk_bytes = 256 * 1024;  // read/send unit
  int processes = 4;                       // parallel single-threaded procs
  bool direct_io = false;                  // GridFTP default: buffered
};

struct GridFtpEndpoint {
  numa::Host* host = nullptr;
  blk::FileSystem* fs = nullptr;
  blk::File* file = nullptr;
};

struct GridFtpLink {
  net::Link* link = nullptr;
  numa::NodeId node_src = 0;
  numa::NodeId node_dst = 0;
};

/// Transfers `total_bytes` from src.file to dst.file; the byte range is
/// partitioned across processes. Completes when every process finishes.
/// `meter` (optional) records bytes as they are written at the receiver.
sim::Task<rftp::TransferResult> gridftp_transfer(
    GridFtpEndpoint src, GridFtpEndpoint dst,
    const std::vector<GridFtpLink>& links, std::uint64_t total_bytes,
    GridFtpConfig cfg, metrics::ThroughputMeter* meter = nullptr);

}  // namespace e2e::apps
