#include "mem/tmpfs.hpp"

#include <stdexcept>

namespace e2e::mem {

TmpFile& Tmpfs::create(const std::string& name, std::uint64_t size,
                       numa::MemPolicy policy, numa::NodeId node) {
  if (files_.contains(name))
    throw std::invalid_argument("tmpfs file exists: " + name);
  auto f = std::make_unique<TmpFile>();
  f->name = name;
  f->size = size;
  f->placement = host_.alloc(size, policy, node, node);
  TmpFile& ref = *f;
  files_[name] = std::move(f);
  return ref;
}

void Tmpfs::check_range(const TmpFile& f, std::uint64_t offset,
                        std::uint64_t len) {
  if (offset + len > f.size)
    throw std::out_of_range("tmpfs I/O beyond EOF on " + f.name);
}

sim::Task<> Tmpfs::read(numa::Thread& th, TmpFile& f, std::uint64_t offset,
                        std::uint64_t len, const numa::Placement& dst,
                        metrics::CpuCategory cat) {
  check_range(f, offset, len);
  f.sharers.insert(th.node());
  f.bytes_read += len;
  // Reads leave lines Shared: no invalidation, just locality costs.
  co_await th.copy(len, f.placement, dst, cat, numa::Coherence::kPrivate);
}

sim::Task<> Tmpfs::write(numa::Thread& th, TmpFile& f, std::uint64_t offset,
                         std::uint64_t len, const numa::Placement& src,
                         metrics::CpuCategory cat) {
  check_range(f, offset, len);
  const bool shared = f.shared_beyond(th.node());
  f.sharers.insert(th.node());
  f.bytes_written += len;
  co_await th.copy(len, src, f.placement, cat,
                   shared ? numa::Coherence::kSharedRemote
                          : numa::Coherence::kPrivate);
}

}  // namespace e2e::mem
