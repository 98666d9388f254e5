// tmpfs: memory-backed file store with NUMA placement policies.
//
// Models the paper's back-end storage: the target hosts export logical
// units backed by files in Linux tmpfs. Placement mirrors the tmpfs mpol
// mount option — kBind pins a file's pages to one node (the tuned setup),
// kInterleave spreads them (what an untuned mount effectively gives a
// multi-node workload).
//
// The store tracks which NUMA nodes have touched each file. A write issued
// from node A to a file whose pages are also cached by other nodes is a
// Coherence::kSharedRemote write: it pays invalidation stalls and extra
// interconnect traffic. This is the mechanism behind the paper's Fig. 7/8
// observation that un-tuned *writes* lose ~19% bandwidth and 3x CPU while
// reads barely care (read sharing keeps lines in Shared state).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>

#include "metrics/cpu_usage.hpp"
#include "numa/host.hpp"
#include "numa/thread.hpp"
#include "numa/types.hpp"
#include "sim/task.hpp"

namespace e2e::mem {

struct TmpFile {
  std::string name;
  std::uint64_t size = 0;
  numa::Placement placement;
  std::set<numa::NodeId> sharers;  // nodes that have touched the pages
  std::uint64_t bytes_read = 0;
  std::uint64_t bytes_written = 0;

  /// True when nodes other than `writer` also hold the file's lines.
  [[nodiscard]] bool shared_beyond(numa::NodeId writer) const {
    for (auto n : sharers)
      if (n != writer) return true;
    return false;
  }
};

class Tmpfs {
 public:
  explicit Tmpfs(numa::Host& host) : host_(host) {}
  Tmpfs(const Tmpfs&) = delete;
  Tmpfs& operator=(const Tmpfs&) = delete;

  /// Creates a file of `size` bytes (a name already in use is refused).
  /// `policy`/`node` mirror the mpol mount option of the paper's setup.
  TmpFile& create(const std::string& name, std::uint64_t size,
                  numa::MemPolicy policy, numa::NodeId node);

  /// Reads [offset, offset+len) into a staging buffer placed at `dst`.
  /// Executes as a memcpy by `th`, charged in category `cat`.
  sim::Task<> read(numa::Thread& th, TmpFile& f, std::uint64_t offset,
                   std::uint64_t len, const numa::Placement& dst,
                   metrics::CpuCategory cat);

  /// Writes [offset, offset+len) from a staging buffer placed at `src`.
  sim::Task<> write(numa::Thread& th, TmpFile& f, std::uint64_t offset,
                    std::uint64_t len, const numa::Placement& src,
                    metrics::CpuCategory cat);

  [[nodiscard]] std::size_t file_count() const noexcept {
    return files_.size();
  }

 private:
  static void check_range(const TmpFile& f, std::uint64_t offset,
                          std::uint64_t len);

  numa::Host& host_;
  std::map<std::string, std::unique_ptr<TmpFile>> files_;
};

}  // namespace e2e::mem
