// Filesystem layer over a block device.
//
// POSIX-shaped API (create, pread/pwrite) with two concrete
// filesystems that differ where it mattered to the paper:
//
//  * XfsSim — allocation groups allow concurrent extent allocation from
//    parallel writers (why the paper formats the exported LUNs with XFS);
//  * Ext4Sim — a single journal serializes metadata commits.
//
// Both support direct I/O (device DMA straight to/from the caller's
// buffer — RFTP's path) and buffered I/O through the PageCache (extra
// copies + writeback — GridFTP's path).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "blk/block_device.hpp"
#include "blk/page_cache.hpp"
#include "sim/channel.hpp"

namespace e2e::blk {

struct File {
  std::string name;
  std::uint64_t size = 0;       // bytes written (high-water mark)
  std::uint64_t allocated = 0;  // bytes with extents on the device
  std::uint64_t base = 0;       // device offset of the file's region
  std::uint64_t reserved = 0;   // region length
  std::uint64_t extent_count = 0;
  int ag = 0;  // XFS allocation group
};

class FileSystem {
 public:
  /// `cache` may be null: a filesystem mounted for direct-I/O-only use.
  /// `kernel_threads` are the kernel-context threads used for writeback
  /// flushers and readahead workers; required non-empty when a cache is
  /// attached (real kernels run several kworker flushers per device).
  FileSystem(numa::Host& host, BlockDevice& dev, PageCache* cache,
             std::vector<numa::Thread*> kernel_threads);
  virtual ~FileSystem() = default;
  FileSystem(const FileSystem&) = delete;
  FileSystem& operator=(const FileSystem&) = delete;

  /// Creates a file with a contiguous region reservation of `size_hint`.
  File& create(const std::string& name, std::uint64_t size_hint);

  /// pread: returns bytes read (0 past EOF). Buffered reads hit the page
  /// cache for the resident fraction.
  sim::Task<std::uint64_t> read(numa::Thread& th, File& f,
                                std::uint64_t offset, std::uint64_t len,
                                const numa::Placement& buf, bool direct,
                                metrics::CpuCategory cat);

  /// pwrite: allocates extents as the file grows; returns bytes written.
  sim::Task<std::uint64_t> write(numa::Thread& th, File& f,
                                 std::uint64_t offset, std::uint64_t len,
                                 const numa::Placement& buf, bool direct,
                                 metrics::CpuCategory cat);

 protected:
  /// Allocates extents so the file covers offset+len; filesystem-specific
  /// concurrency (AG locks vs global journal).
  virtual sim::Task<> alloc_extent(numa::Thread& th, File& f,
                                   std::uint64_t new_end) = 0;

  numa::Host& host_;

 private:
  struct WritebackItem {
    File* file;
    std::uint64_t offset;
    std::uint64_t len;
    // Host-owned canonical placement (outlives the filesystem); a by-value
    // Placement here would mint a fresh plan-cache identity per writeback.
    const numa::Placement* pages;
  };
  struct Prefetch {
    explicit Prefetch(sim::Engine& eng) : done(eng) {}
    sim::ManualEvent done;
  };
  using PrefetchKey = std::pair<const File*, std::uint64_t>;

  sim::Task<> flusher_loop(numa::Thread& th);
  sim::Task<> aligned_device_read(numa::Thread& th, File& f,
                                  std::uint64_t offset, std::uint64_t len,
                                  const numa::Placement& into,
                                  metrics::CpuCategory cat);
  sim::Task<> prefetch_task(File& f, std::uint64_t offset, std::uint64_t len,
                            Prefetch* p, numa::Thread& th);
  numa::Thread& next_kernel_thread();

  BlockDevice& dev_;
  PageCache* cache_;
  std::vector<numa::Thread*> kernel_threads_;
  std::size_t rr_kernel_ = 0;
  std::map<std::string, std::unique_ptr<File>> files_;
  std::uint64_t next_free_ = 0;
  std::unique_ptr<sim::Channel<WritebackItem>> writeback_q_;
  std::map<PrefetchKey, std::unique_ptr<Prefetch>> prefetches_;
};

/// XFS-like: extent allocation parallel across allocation groups.
class XfsSim final : public FileSystem {
 public:
  XfsSim(numa::Host& host, BlockDevice& dev, PageCache* cache,
         std::vector<numa::Thread*> kernel_threads = {},
         int allocation_groups = 8,
         std::uint64_t extent_bytes = 16ull << 20);

 protected:
  sim::Task<> alloc_extent(numa::Thread& th, File& f,
                           std::uint64_t new_end) override;

 private:
  std::vector<std::unique_ptr<sim::Semaphore>> ag_locks_;
  std::uint64_t extent_bytes_;
  int next_ag_ = 0;
};

/// ext4-like: one journal, metadata commits serialize.
class Ext4Sim final : public FileSystem {
 public:
  Ext4Sim(numa::Host& host, BlockDevice& dev, PageCache* cache,
          std::vector<numa::Thread*> kernel_threads = {},
          std::uint64_t extent_bytes = 16ull << 20);

 protected:
  sim::Task<> alloc_extent(numa::Thread& th, File& f,
                           std::uint64_t new_end) override;

 private:
  sim::Semaphore journal_;
  std::uint64_t extent_bytes_;
};

}  // namespace e2e::blk
