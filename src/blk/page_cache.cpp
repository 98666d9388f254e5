#include "blk/page_cache.hpp"

#include <algorithm>

namespace e2e::blk {

std::uint64_t PageCache::insert(const void* file_key, std::uint64_t bytes) {
  FileState& fs = files_[file_key];
  fs.resident += bytes;
  resident_ += bytes;
  std::uint64_t evicted = 0;
  if (resident_ > capacity_) {
    // Evict clean pages proportionally from all files (approximation of
    // global LRU under streaming workloads). Dirty pages are not evicted.
    std::uint64_t need = resident_ - capacity_;
    for (auto& [key, st] : files_) {
      const std::uint64_t clean = st.resident - std::min(st.resident, st.dirty);
      const std::uint64_t take = std::min(clean, need);
      st.resident -= take;
      resident_ -= take;
      evicted += take;
      need -= take;
      if (need == 0) break;
    }
  }
  return evicted;
}

sim::Task<> PageCache::mark_dirty(const void* file_key, std::uint64_t bytes) {
  while (dirty_ + bytes > max_dirty_) {
    writeback_event_.reset();
    co_await writeback_event_.wait();
  }
  files_[file_key].dirty += bytes;
  dirty_ += bytes;
}

void PageCache::complete_writeback(const void* file_key, std::uint64_t bytes) {
  FileState& fs = files_[file_key];
  const std::uint64_t done = std::min(fs.dirty, bytes);
  fs.dirty -= done;
  dirty_ -= std::min(dirty_, done);
  writeback_event_.set();
}

}  // namespace e2e::blk
