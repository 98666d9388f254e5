// iSCSI initiator session core (open-iscsi analogue).
//
// Drives a login negotiation and then submits SCSI tasks over a Datamover.
// Tasks run concurrently: submit_* registers the task under a fresh
// initiator task tag, a dispatcher coroutine demultiplexes ScsiResponse
// PDUs back to the waiting submitter.
#pragma once

#include <cstdint>

#include "iscsi/datamover.hpp"
#include "iscsi/pdu.hpp"
#include "mem/buffer.hpp"
#include "mem/flat_table.hpp"
#include "numa/process.hpp"
#include "obs/probe.hpp"
#include "sim/channel.hpp"
#include "sim/sync.hpp"

namespace e2e::iscsi {

/// Bounds the initiator's recovery behaviour. Retransmission timeouts
/// double per retry (capped exponential backoff); the attempt budget turns
/// a dead session into a terminal scsi::Status::kTransportError instead of
/// an infinite retransmit loop.
struct RetryPolicy {
  /// Transmissions per command, including the first (>= 1). Exhausting the
  /// budget surfaces kTransportError to the submitter.
  int max_attempts = 8;
  /// Upper bound for the grown timeout (0 = uncapped).
  sim::SimDuration backoff_cap = 0;
  /// End-to-end READ integrity: verify the landed data's content tag
  /// against the analytic block-range tag, re-driving the I/O under a
  /// fresh task tag on mismatch (recovers data lost to wire faults that
  /// the control path's replay cache papers over), up to 3 re-drives per
  /// READ. Off by default: tags are only meaningful when each in-flight
  /// buffer serves one I/O.
  bool verify_read_digest = false;
};

class Initiator {
 public:
  /// `command_timeout` (0 = disabled): how long to wait for a SCSI
  /// response before retransmitting the command (the target suppresses
  /// duplicates). Bounds recovery from lost control PDUs; `policy` bounds
  /// and shapes the retransmissions themselves.
  Initiator(numa::Process& proc, Datamover& dm,
            sim::SimDuration command_timeout = 0, RetryPolicy policy = {})
      : proc_(proc),
        dm_(dm),
        command_timeout_(command_timeout),
        policy_(policy),
        obs_(obs::Layer::kIscsi, {proc.host().name() + "/initiator"},
             {proc.host().name() + "/initiator"}) {}
  Initiator(const Initiator&) = delete;
  Initiator& operator=(const Initiator&) = delete;

  /// Login phase: proposes `params`, records what the target accepted.
  /// Must complete before start_dispatcher()/submit_*.
  sim::Task<bool> login(numa::Thread& th, const LoginParams& params);

  /// Spawns the response dispatcher on `th` (a dedicated session thread).
  void start_dispatcher(numa::Thread& th);

  /// Submits READ(16): target data lands in `data` via the datamover.
  sim::Task<scsi::Status> submit_read(numa::Thread& th, std::uint32_t lun,
                                      std::uint64_t lba, std::uint32_t blocks,
                                      mem::Buffer& data);

  /// Submits WRITE(16): target pulls from `data`.
  sim::Task<scsi::Status> submit_write(numa::Thread& th, std::uint32_t lun,
                                       std::uint64_t lba, std::uint32_t blocks,
                                       mem::Buffer& data);

  [[nodiscard]] const LoginParams& negotiated() const noexcept {
    return negotiated_;
  }
  [[nodiscard]] bool logged_in() const noexcept { return logged_in_; }
  [[nodiscard]] std::uint64_t tasks_completed() const noexcept {
    return tasks_completed_;
  }
  /// Commands retransmitted after a response timeout.
  [[nodiscard]] std::uint64_t command_retries() const noexcept {
    return command_retries_;
  }
  /// Commands abandoned with kTransportError (retry budget exhausted).
  [[nodiscard]] std::uint64_t command_failures() const noexcept {
    return command_failures_;
  }
  /// READ digest mismatches detected (verify_read_digest).
  [[nodiscard]] std::uint64_t digest_errors() const noexcept {
    return digest_errors_;
  }
  /// Rendezvous slots ever allocated (tests: recycling keeps this at the
  /// concurrency high-water mark, not the command count).
  [[nodiscard]] std::size_t pending_slots() const noexcept {
    return pending_.slot_count();
  }

 private:
  struct Pending {
    // true = response arrived; false = timeout fired.
    sim::Channel<bool> wake;
    scsi::Status status = scsi::Status::kGood;
    // Response consumed: further responses for the tag are duplicates.
    bool completed = false;
    explicit Pending(sim::Engine& eng) : wake(eng) {}
    /// Clears recycled-slot state (the table reuses Pending objects).
    void reset() {
      status = scsi::Status::kGood;
      completed = false;
      while (wake.try_recv()) {
      }
    }
  };

  sim::Task<scsi::Status> submit_io(numa::Thread& th, scsi::OpCode op,
                                    std::uint32_t lun, std::uint64_t lba,
                                    std::uint32_t blocks, mem::Buffer& data);
  sim::Task<> dispatch_loop(numa::Thread& th);

  numa::Process& proc_;
  Datamover& dm_;
  LoginParams negotiated_;
  bool logged_in_ = false;
  bool dispatcher_running_ = false;
  sim::SimDuration command_timeout_ = 0;
  RetryPolicy policy_;
  std::uint64_t next_itt_ = 1;
  std::uint64_t tasks_completed_ = 0;
  std::uint64_t command_retries_ = 0;
  std::uint64_t command_failures_ = 0;
  std::uint64_t digest_errors_ = 0;
  // Flat slot-indexed rendezvous: Pending objects (and their channels) are
  // recycled across commands; timers hold generation-counted Refs that go
  // stale on erase instead of keeping the object alive.
  mem::PendingTable<Pending> pending_;
  // Observability: SCSI tasks trace as async spans keyed by task tag; the
  // stats entity carries the command-latency histogram plus retry/failure
  // counters, with flight records for every retransmission and
  // abandonment.
  obs::Actor obs_;
  obs::Site submitted_, abandoned_, retry_, completed_, failed_, digest_,
      digest_gave_up_;
};

}  // namespace e2e::iscsi
