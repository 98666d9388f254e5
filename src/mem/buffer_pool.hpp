// Fixed-size NUMA-aware buffer pool.
//
// RFTP and the iSER target stage all transfers through pools of pinned,
// fixed-size buffers. NUMA tuning allocates each pool on the node local to
// the NIC that will DMA it; the untuned baseline allocates first-touch
// from wherever the allocating thread happened to run.
//
// acquire() suspends when the pool is empty — this is the natural
// backpressure point of the data pipelines.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "mem/buffer.hpp"
#include "numa/host.hpp"
#include "sim/sync.hpp"
#include "sim/task.hpp"

namespace e2e::mem {

class BufferPool {
 public:
  BufferPool(numa::Host& host, std::string name, std::size_t count,
             std::uint64_t buffer_bytes, numa::MemPolicy policy,
             numa::NodeId node)
      : host_(host),
        name_(std::move(name)),
        sem_(host.engine(), static_cast<std::int64_t>(count)) {
    buffers_.reserve(count);
    free_.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
      Buffer b;
      b.bytes = buffer_bytes;
      b.placement = host.alloc(buffer_bytes, policy, node, node);
      b.id = i;
      buffers_.push_back(b);
      free_.push_back(&buffers_.back());
    }
    // vector::push_back may reallocate; rebuild the free list.
    free_.clear();
    for (auto& b : buffers_) free_.push_back(&b);
  }

  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  /// Takes a buffer, suspending while none are free.
  sim::Task<Buffer*> acquire() {
    co_await sem_.acquire();
    Buffer* b = free_.back();
    free_.pop_back();
    co_return b;
  }

  /// Non-suspending take; nullptr when empty.
  Buffer* try_acquire() {
    if (!sem_.try_acquire()) return nullptr;
    Buffer* b = free_.back();
    free_.pop_back();
    return b;
  }

  void release(Buffer* b) {
    if (b == nullptr) throw std::invalid_argument("release(nullptr)");
    free_.push_back(b);
    sem_.release();
  }

  [[nodiscard]] std::size_t capacity() const noexcept {
    return buffers_.size();
  }
  [[nodiscard]] std::size_t available() const noexcept { return free_.size(); }
  [[nodiscard]] std::uint64_t buffer_bytes() const noexcept {
    return buffers_.empty() ? 0 : buffers_.front().bytes;
  }

  /// Marks every buffer registered (RDMA pinning bookkeeping).
  void mark_registered() {
    for (auto& b : buffers_) b.registered = true;
  }

 private:
  numa::Host& host_;
  std::string name_;
  sim::Semaphore sem_;
  std::vector<Buffer> buffers_;
  std::vector<Buffer*> free_;
};

}  // namespace e2e::mem
