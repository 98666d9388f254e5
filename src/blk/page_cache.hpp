// Page cache model.
//
// Buffered (non-direct) I/O stages data through kernel pages: an extra
// memcpy on every read and write, dirty-page accounting with writeback
// throttling, and eviction pressure once the working set exceeds the cache.
// This is the "I/O cache effect" the paper names as one of GridFTP's three
// handicaps; direct I/O (RFTP) bypasses this layer entirely.
//
// Residency is tracked per file as a byte count with sequential-access
// semantics (the bulk-transfer workloads here stream files): a read hits
// for the resident fraction and pays device I/O for the rest.
#pragma once

#include <cstdint>
#include <map>

#include "numa/host.hpp"
#include "numa/thread.hpp"
#include "sim/sync.hpp"
#include "sim/task.hpp"

namespace e2e::blk {

class PageCache {
 public:
  PageCache(numa::Host& host, std::uint64_t capacity_bytes,
            std::uint64_t max_dirty_bytes)
      : host_(host),
        capacity_(capacity_bytes),
        max_dirty_(max_dirty_bytes),
        writeback_event_(host.engine()) {}

  struct FileState {
    std::uint64_t resident = 0;  // cached bytes
    std::uint64_t dirty = 0;     // not yet written back
  };

  /// Kernel pages for this file, allocated near the accessing thread
  /// (first-touch); charged as a normal placement by callers. Returns the
  /// host's canonical per-node placement: its identity is stable, so the
  /// per-thread cost-plan cache hits on every buffered I/O instead of
  /// minting a fresh plan per call (callers must bind by reference, not
  /// copy — a copy gets a new identity).
  [[nodiscard]] const numa::Placement& page_placement(
      numa::Thread& th) const {
    return host_.node_placement(th.node());
  }

  FileState& state(const void* file_key) { return files_[file_key]; }

  /// Records `bytes` inserted for `file_key`, evicting (globally) if over
  /// capacity. Returns evicted byte count.
  std::uint64_t insert(const void* file_key, std::uint64_t bytes);

  /// Marks bytes dirty; suspends the caller while dirty exceeds the
  /// writeback threshold (balance_dirty_pages behaviour).
  sim::Task<> mark_dirty(const void* file_key, std::uint64_t bytes);

  /// Completes writeback of `bytes` for `file_key`.
  void complete_writeback(const void* file_key, std::uint64_t bytes);

  [[nodiscard]] std::uint64_t total_resident() const noexcept {
    return resident_;
  }
  [[nodiscard]] std::uint64_t total_dirty() const noexcept { return dirty_; }

 private:
  numa::Host& host_;
  std::uint64_t capacity_;
  std::uint64_t max_dirty_;
  std::uint64_t resident_ = 0;
  std::uint64_t dirty_ = 0;
  sim::ManualEvent writeback_event_;
  std::map<const void*, FileState> files_;
};

}  // namespace e2e::blk
