#include "blk/filesystem.hpp"

#include <algorithm>
#include <stdexcept>

namespace e2e::blk {

namespace {
// Sequential readahead window: chunks prefetched beyond each buffered read.
constexpr std::uint64_t kReadaheadChunks = 2;

std::uint64_t round_up(std::uint64_t v, std::uint64_t align) {
  return (v + align - 1) / align * align;
}
}  // namespace

FileSystem::FileSystem(numa::Host& host, BlockDevice& dev, PageCache* cache,
                       std::vector<numa::Thread*> kernel_threads)
    : host_(host),
      dev_(dev),
      cache_(cache),
      kernel_threads_(std::move(kernel_threads)) {
  if (cache_ != nullptr) {
    if (kernel_threads_.empty())
      throw std::invalid_argument("buffered filesystem needs kernel threads");
    writeback_q_ =
        std::make_unique<sim::Channel<WritebackItem>>(host.engine());
    for (auto* th : kernel_threads_) sim::co_spawn(flusher_loop(*th));
  }
}

numa::Thread& FileSystem::next_kernel_thread() {
  numa::Thread& th = *kernel_threads_[rr_kernel_ % kernel_threads_.size()];
  ++rr_kernel_;
  return th;
}

File& FileSystem::create(const std::string& name, std::uint64_t size_hint) {
  if (files_.count(name)) throw std::invalid_argument("file exists: " + name);
  auto f = std::make_unique<File>();
  f->name = name;
  f->reserved = round_up(std::max<std::uint64_t>(size_hint, 1), 4096);
  f->base = next_free_;
  if (next_free_ + f->reserved > dev_.capacity_bytes())
    throw std::length_error("filesystem full: " + name);
  next_free_ += f->reserved;
  File& ref = *f;
  files_[name] = std::move(f);
  return ref;
}

sim::Task<> FileSystem::flusher_loop(numa::Thread& th) {
  for (;;) {
    auto item = co_await writeback_q_->recv();
    if (!item) co_return;
    // Writeback happens in whole blocks: round the dirty range out to
    // device alignment (partial pages rewrite their full block).
    const std::uint64_t begin =
        item->offset / scsi::Cdb::kBlockSize * scsi::Cdb::kBlockSize;
    const std::uint64_t end = std::min(
        item->file->reserved,
        round_up(item->offset + item->len, scsi::Cdb::kBlockSize));
    co_await dev_.write(th, item->file->base + begin, end - begin,
                        *item->pages, metrics::CpuCategory::kOffload);
    cache_->complete_writeback(item->file, item->len);
  }
}

sim::Task<> FileSystem::aligned_device_read(numa::Thread& th, File& f,
                                            std::uint64_t offset,
                                            std::uint64_t len,
                                            const numa::Placement& into,
                                            metrics::CpuCategory cat) {
  // The block layer reads whole blocks; round the byte range out.
  const std::uint64_t begin =
      offset / scsi::Cdb::kBlockSize * scsi::Cdb::kBlockSize;
  const std::uint64_t end =
      std::min(f.reserved, round_up(offset + len, scsi::Cdb::kBlockSize));
  if (end <= begin) co_return;
  co_await dev_.read(th, f.base + begin, end - begin, into, cat);
}

sim::Task<> FileSystem::prefetch_task(File& f, std::uint64_t offset,
                                      std::uint64_t len, Prefetch* p,
                                      numa::Thread& th) {
  co_await aligned_device_read(th, f, offset, len, cache_->page_placement(th),
                               metrics::CpuCategory::kLoad);
  cache_->insert(&f, len);
  p->done.set();
}

sim::Task<std::uint64_t> FileSystem::read(numa::Thread& th, File& f,
                                          std::uint64_t offset,
                                          std::uint64_t len,
                                          const numa::Placement& buf,
                                          bool direct,
                                          metrics::CpuCategory cat) {
  const auto& cm = host_.costs();
  co_await th.compute(cm.fs_op_cycles, metrics::CpuCategory::kKernelProto);
  if (offset >= f.size) co_return 0;
  len = std::min(len, f.size - offset);

  if (direct || cache_ == nullptr) {
    co_await dev_.read(th, f.base + offset, len, buf, cat);
    co_return len;
  }

  // Buffered path. A sequential reader finds its chunk already in flight
  // from readahead; a cold start pays the device read synchronously.
  const numa::Placement& pages = cache_->page_placement(th);
  auto it = prefetches_.find({&f, offset});
  if (it != prefetches_.end()) {
    auto pf = std::move(it->second);
    prefetches_.erase(it);
    co_await pf->done.wait();
  } else {
    co_await aligned_device_read(th, f, offset, len, pages, cat);
    cache_->insert(&f, len);
  }

  // Kick readahead for the next windows of this sequential stream.
  for (std::uint64_t d = 1; d <= kReadaheadChunks; ++d) {
    const std::uint64_t next = offset + d * len;
    if (next >= f.size || len == 0) break;
    const PrefetchKey key{&f, next};
    if (prefetches_.count(key)) continue;
    auto pf = std::make_unique<Prefetch>(host_.engine());
    const std::uint64_t ra_len = std::min(len, f.size - next);
    sim::co_spawn(
        prefetch_task(f, next, ra_len, pf.get(), next_kernel_thread()));
    prefetches_.emplace(key, std::move(pf));
  }

  co_await th.compute(static_cast<double>(len) *
                          cm.page_cache_insert_cycles_per_byte,
                      metrics::CpuCategory::kKernelProto);
  co_await th.copy(len, pages, buf, metrics::CpuCategory::kCopy);
  co_return len;
}

sim::Task<std::uint64_t> FileSystem::write(numa::Thread& th, File& f,
                                           std::uint64_t offset,
                                           std::uint64_t len,
                                           const numa::Placement& buf,
                                           bool direct,
                                           metrics::CpuCategory cat) {
  const auto& cm = host_.costs();
  co_await th.compute(cm.fs_op_cycles, metrics::CpuCategory::kKernelProto);
  if (offset + len > f.reserved)
    throw std::length_error("write beyond reservation: " + f.name);
  if (offset + len > f.allocated) co_await alloc_extent(th, f, offset + len);

  if (direct || cache_ == nullptr) {
    co_await dev_.write(th, f.base + offset, len, buf, cat);
    f.size = std::max(f.size, offset + len);
    co_return len;
  }

  // Buffered: user->kernel copy, dirty accounting (throttles when the
  // flushers fall behind), asynchronous writeback.
  const numa::Placement& pages = cache_->page_placement(th);
  co_await th.copy(len, buf, pages, metrics::CpuCategory::kCopy);
  co_await th.compute(static_cast<double>(len) *
                          cm.page_cache_insert_cycles_per_byte,
                      metrics::CpuCategory::kKernelProto);
  cache_->insert(&f, len);
  co_await cache_->mark_dirty(&f, len);
  writeback_q_->send(WritebackItem{&f, offset, len, &pages});
  f.size = std::max(f.size, offset + len);
  co_return len;
}

// --- XFS ---

XfsSim::XfsSim(numa::Host& host, BlockDevice& dev, PageCache* cache,
               std::vector<numa::Thread*> kernel_threads,
               int allocation_groups, std::uint64_t extent_bytes)
    : FileSystem(host, dev, cache, std::move(kernel_threads)),
      extent_bytes_(extent_bytes) {
  for (int i = 0; i < allocation_groups; ++i)
    ag_locks_.push_back(std::make_unique<sim::Semaphore>(host.engine(), 1));
}

sim::Task<> XfsSim::alloc_extent(numa::Thread& th, File& f,
                                 std::uint64_t new_end) {
  if (f.allocated == 0) f.ag = next_ag_++ % static_cast<int>(ag_locks_.size());
  auto& lock = *ag_locks_[static_cast<std::size_t>(f.ag)];
  while (f.allocated < new_end) {
    co_await lock.acquire();
    co_await th.compute(host_.costs().fs_metadata_cycles,
                        metrics::CpuCategory::kKernelProto);
    f.allocated = std::min(f.reserved, f.allocated + extent_bytes_);
    ++f.extent_count;
    lock.release();
  }
}

// --- ext4 ---

Ext4Sim::Ext4Sim(numa::Host& host, BlockDevice& dev, PageCache* cache,
                 std::vector<numa::Thread*> kernel_threads,
                 std::uint64_t extent_bytes)
    : FileSystem(host, dev, cache, std::move(kernel_threads)),
      journal_(host.engine(), 1),
      extent_bytes_(extent_bytes) {}

sim::Task<> Ext4Sim::alloc_extent(numa::Thread& th, File& f,
                                  std::uint64_t new_end) {
  while (f.allocated < new_end) {
    co_await journal_.acquire();
    co_await th.compute(host_.costs().fs_metadata_cycles +
                            host_.costs().journal_commit_cycles,
                        metrics::CpuCategory::kKernelProto);
    f.allocated = std::min(f.reserved, f.allocated + extent_bytes_);
    ++f.extent_count;
    journal_.release();
  }
}

}  // namespace e2e::blk
