// Verbs-style vocabulary: protection domains, memory regions, work
// requests, work completions, completion queues.
//
// The shapes mirror the ibverbs API closely enough that code written
// against this layer reads like a real RDMA application: buffers must be
// registered before use, sends consume posted receives, RDMA READ/WRITE
// name a remote region the peer advertised, completions are reaped from
// CQs.
#pragma once

#include <cstdint>
#include <optional>
#include <stdexcept>

#include "mem/buffer.hpp"
#include "mem/msg_pool.hpp"
#include "metrics/cpu_usage.hpp"
#include "numa/thread.hpp"
#include "sim/channel.hpp"
#include "sim/task.hpp"

namespace e2e::rdma {

class Device;

enum class Opcode : std::uint8_t {
  kSend,      // two-sided send (consumes a posted receive)
  kWrite,     // one-sided RDMA Write (silent at the responder)
  kWriteImm,  // RDMA Write with immediate (consumes a receive, signals CQE)
  kRead,      // one-sided RDMA Read
};

consteval const char* to_string(Opcode op) noexcept {
  switch (op) {
    case Opcode::kSend: return "send";
    case Opcode::kWrite: return "write";
    case Opcode::kWriteImm: return "write-imm";
    case Opcode::kRead: return "read";
  }
  return "?";
}

/// Advertised remote buffer (the moral equivalent of addr+rkey).
struct RemoteKey {
  mem::Buffer* buffer = nullptr;
};

struct SendWr {
  Opcode op = Opcode::kSend;
  std::uint64_t wr_id = 0;
  mem::Buffer* local = nullptr;  // registered local buffer
  std::uint64_t bytes = 0;       // payload length
  RemoteKey remote;              // for kWrite/kWriteImm/kRead
  std::uint32_t imm = 0;         // for kSend/kWriteImm (app header word)
  // Message content carried to the peer's completion (the simulation moves
  // no real bytes; protocol layers ship their headers/PDUs through this).
  mem::MsgPtr payload;
  // Integrity tag describing the payload identity (fault/integrity.hpp).
  // For kWrite/kWriteImm it is XORed into the remote buffer's content_tag
  // on delivery, so sinks can verify what actually landed.
  std::uint64_t content_tag = 0;
};

struct RecvWr {
  std::uint64_t wr_id = 0;
  mem::Buffer* buf = nullptr;
};

struct WorkCompletion {
  Opcode op = Opcode::kSend;
  std::uint64_t wr_id = 0;
  std::uint64_t byte_len = 0;
  std::uint32_t imm = 0;
  bool success = true;
  // For receive completions of kSend/kWriteImm: the message content.
  mem::MsgPtr payload;

  /// Typed view of the payload.
  template <typename T>
  [[nodiscard]] const T* as() const noexcept {
    return payload.as<T>();
  }
};

/// Completion queue. Completions are delivered through a channel; wait()
/// suspends until one is available and charges the polling thread the CQE
/// processing cost.
class CompletionQueue {
 public:
  explicit CompletionQueue(sim::Engine& eng) : ch_(eng) {}

  void push(WorkCompletion wc) { ch_.send(wc); }

  /// Reaps the next completion (suspends when empty).
  sim::Task<WorkCompletion> wait(numa::Thread& th) {
    auto wc = co_await ch_.recv();
    if (!wc) throw std::runtime_error("completion queue destroyed");
    co_await th.compute(th.host().costs().rdma_poll_cqe_cycles,
                        metrics::CpuCategory::kUserProto);
    co_return *wc;
  }

  /// Non-suspending poll (no CPU charge; used by tests).
  std::optional<WorkCompletion> try_poll() { return ch_.try_recv(); }

  /// Discards every pending (unreaped) completion. A rebooted host has no
  /// CQ memory: completions that landed before a crash must not replay
  /// into the consumers the restart epoch arms. Parked waiters are not
  /// disturbed — only queued entries go.
  void discard_pending() {
    while (ch_.try_recv().has_value()) {}
  }

 private:
  sim::Channel<WorkCompletion> ch_;
};

/// Protection domain: registration bookkeeping. Registration pins pages and
/// costs CPU proportional to the buffer size (ibv_reg_mr).
class ProtectionDomain {
 public:
  explicit ProtectionDomain(numa::Host& host) : host_(host) {}

  sim::Task<> register_buffer(numa::Thread& th, mem::Buffer& buf) {
    const double pages = static_cast<double>(buf.bytes) / 4096.0;
    co_await th.compute(
        pages * host_.costs().rdma_mr_register_cycles_per_page,
        metrics::CpuCategory::kUserProto);
    buf.registered = true;
  }

  static void require_registered(const mem::Buffer& buf) {
    if (!buf.registered)
      throw std::logic_error("RDMA operation on unregistered buffer");
  }

 private:
  numa::Host& host_;
};

}  // namespace e2e::rdma
