// Data sources and sinks for RFTP transfers.
//
// The paper evaluates three shapes: real files on XFS-over-iSER (the
// end-to-end experiments), /dev/zero -> /dev/null (the Fig. 4 cost
// breakdown), and memory-to-memory (the WAN tests). FileSource/FileSink
// wrap a filesystem with direct I/O; ZeroSource charges the kernel
// zero-fill cost; NullSink discards; MemorySource/MemorySink touch
// pre-resident memory only.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>

#include "blk/filesystem.hpp"
#include "mem/buffer.hpp"
#include "metrics/cpu_usage.hpp"
#include "numa/thread.hpp"
#include "sim/task.hpp"

namespace e2e::rftp {

class DataSource {
 public:
  virtual ~DataSource() = default;
  /// Fills `buf` with up to `len` bytes at logical `offset`; returns bytes
  /// produced (0 at EOF).
  virtual sim::Task<std::uint64_t> fill(numa::Thread& th, mem::Buffer& buf,
                                        std::uint64_t offset,
                                        std::uint64_t len) = 0;

  /// NUMA node whose devices/memory serve the source's bytes from
  /// `offset`, when known (kAnyNode otherwise), and the end of the extent
  /// it serves: every `len`-byte block starting in [offset, end) has that
  /// home. The NUMA-aware sender routes each block to a stream whose NIC
  /// sits on this node, so staging buffers, storage DMA and wire DMA all
  /// stay socket-local — the paper's "co-schedule CPU cores, memory, and
  /// devices" policy. The block plan asks once per extent, so a source
  /// without locality plans any transfer with one call.
  struct Home {
    numa::NodeId node = numa::kAnyNode;
    std::uint64_t end = UINT64_MAX;  // default: the end of the transfer
  };
  virtual Home home(std::uint64_t offset, std::uint64_t len) const {
    (void)offset;
    (void)len;
    return Home{};
  }
};

class DataSink {
 public:
  virtual ~DataSink() = default;
  virtual sim::Task<> drain(numa::Thread& th, mem::Buffer& buf,
                            std::uint64_t offset, std::uint64_t len) = 0;
};

/// Reads a file (direct I/O by default, as RFTP does).
class FileSource final : public DataSource {
 public:
  using LocalityFn =
      std::function<numa::NodeId(std::uint64_t offset, std::uint64_t len)>;

  /// `locality` (optional) reports which NUMA node's storage path serves a
  /// given byte range — e.g. which iSER session's NIC a striped volume
  /// routes the range through.
  FileSource(blk::FileSystem& fs, blk::File& f, bool direct = true,
             LocalityFn locality = nullptr)
      : fs_(fs), f_(f), direct_(direct), locality_(std::move(locality)) {}

  sim::Task<std::uint64_t> fill(numa::Thread& th, mem::Buffer& buf,
                                std::uint64_t offset,
                                std::uint64_t len) override {
    co_return co_await fs_.read(th, f_, offset, len, buf.placement, direct_,
                                metrics::CpuCategory::kLoad);
  }

  Home home(std::uint64_t offset, std::uint64_t len) const override {
    if (!locality_) return Home{};
    return Home{locality_(offset, len), offset + len};
  }

 private:
  blk::FileSystem& fs_;
  blk::File& f_;
  bool direct_;
  LocalityFn locality_;
};

class FileSink final : public DataSink {
 public:
  FileSink(blk::FileSystem& fs, blk::File& f, bool direct = true)
      : fs_(fs), f_(f), direct_(direct) {}

  sim::Task<> drain(numa::Thread& th, mem::Buffer& buf, std::uint64_t offset,
                    std::uint64_t len) override {
    co_await fs_.write(th, f_, offset, len, buf.placement, direct_,
                       metrics::CpuCategory::kOffload);
  }

 private:
  blk::FileSystem& fs_;
  blk::File& f_;
  bool direct_;
};

/// /dev/zero: the kernel clears the destination pages (no DMA).
class ZeroSource final : public DataSource {
 public:
  explicit ZeroSource(std::uint64_t total_bytes) : total_(total_bytes) {}

  sim::Task<std::uint64_t> fill(numa::Thread& th, mem::Buffer& buf,
                                std::uint64_t offset,
                                std::uint64_t len) override {
    if (offset >= total_) co_return 0;
    const std::uint64_t n = std::min(len, total_ - offset);
    co_await th.zero_fill(n, buf.placement, metrics::CpuCategory::kLoad);
    co_return n;
  }

 private:
  std::uint64_t total_;
};

/// /dev/null: a write syscall that drops the data.
class NullSink final : public DataSink {
 public:
  sim::Task<> drain(numa::Thread& th, mem::Buffer& buf, std::uint64_t offset,
                    std::uint64_t len) override {
    (void)buf;
    (void)offset;
    (void)len;
    co_await th.compute(th.host().costs().sink_discard_cycles_per_call,
                        metrics::CpuCategory::kOffload);
  }
};

/// Pre-resident memory dataset (WAN memory-to-memory mode): the source
/// streams existing pages, the sink touches the landed data once.
class MemorySource final : public DataSource {
 public:
  MemorySource(std::uint64_t total_bytes, numa::Placement data)
      : total_(total_bytes), data_(std::move(data)) {}

  sim::Task<std::uint64_t> fill(numa::Thread& th, mem::Buffer& buf,
                                std::uint64_t offset,
                                std::uint64_t len) override {
    if (offset >= total_) co_return 0;
    const std::uint64_t n = std::min(len, total_ - offset);
    co_await th.copy(n, data_, buf.placement, metrics::CpuCategory::kLoad);
    co_return n;
  }

 private:
  std::uint64_t total_;
  numa::Placement data_;
};

class MemorySink final : public DataSink {
 public:
  sim::Task<> drain(numa::Thread& th, mem::Buffer& buf, std::uint64_t offset,
                    std::uint64_t len) override {
    (void)offset;
    // Data already landed in the receive buffer via RDMA; account a
    // lightweight ownership touch only (no extra copy: zero-copy path).
    (void)buf;
    (void)len;
    co_await th.compute(th.host().costs().sink_discard_cycles_per_call,
                        metrics::CpuCategory::kOffload);
  }
};

}  // namespace e2e::rftp
