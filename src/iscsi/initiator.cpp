#include "iscsi/initiator.hpp"

#include <algorithm>
#include <stdexcept>

#include "check/audit.hpp"
#include "fault/integrity.hpp"
#include "fault/watchdog.hpp"

namespace e2e::iscsi {

namespace {

// Command timeout growth per retransmission (capped exponential backoff).
constexpr double kBackoffMultiplier = 2.0;
// Fresh-ITT re-drives allowed per READ on digest mismatch.
constexpr int kMaxDigestRetries = 3;

constexpr obs::Incident kSubmitted{.trace_counter = "iscsi/tasks_submitted"};
constexpr obs::Incident kAbandoned{.name = "command-abandoned",
                                   .counter = "command_failures",
                                   .dump = "iscsi"};
constexpr obs::Incident kRetry{.name = "command-retry",
                               .counter = "command_retries"};
// Task ends close the task's async span, named at run time.
constexpr obs::Incident kCompleted{.counter = "tasks_completed",
                                   .hist = "cmd_ns"};
constexpr obs::Incident kFailed{.counter = "tasks_failed", .hist = "cmd_ns"};
constexpr obs::Incident kDigest{.name = "digest-mismatch",
                                .counter = "digest_errors",
                                .code = obs::kSkip};
constexpr obs::Incident kDigestGaveUp{
    .trace_counter = "iscsi/command_failures"};

}  // namespace

sim::Task<bool> Initiator::login(numa::Thread& th, const LoginParams& params) {
  Pdu req;
  req.type = PduType::kLoginRequest;
  req.login = params;
  co_await dm_.send_pdu(th, req);

  auto resp = co_await dm_.recv_pdu(th);
  if (!resp || resp->type != PduType::kLoginResponse) co_return false;
  negotiated_ = resp->login;
  logged_in_ = true;
  co_return true;
}

void Initiator::start_dispatcher(numa::Thread& th) {
  if (dispatcher_running_) throw std::logic_error("dispatcher already running");
  if (!logged_in_) throw std::logic_error("dispatcher before login");
  dispatcher_running_ = true;
  sim::co_spawn(dispatch_loop(th));
}

sim::Task<> Initiator::dispatch_loop(numa::Thread& th) {
  for (;;) {
    auto pdu = co_await dm_.recv_pdu(th);
    if (!pdu) co_return;  // session closed
    if (pdu->type != PduType::kScsiResponse) continue;  // NOPs etc.
    Pending* p = pending_.find(pdu->itt);
    if (p == nullptr || p->completed) continue;  // late dup after a retry
    p->completed = true;
    p->status = pdu->status;
    ++tasks_completed_;
    if (auto* au = check::of(th.host().engine()))
      au->flow_out(this, "iscsi.tasks", 1);
    p->wake.send(true);
  }
}

sim::Task<scsi::Status> Initiator::submit_io(numa::Thread& th, scsi::OpCode op,
                                             std::uint32_t lun,
                                             std::uint64_t lba,
                                             std::uint32_t blocks,
                                             mem::Buffer& data) {
  if (!dispatcher_running_)
    throw std::logic_error("submit before start_dispatcher");
  const std::uint64_t bytes = std::uint64_t{blocks} * scsi::Cdb::kBlockSize;
  if (data.bytes < bytes)
    throw std::length_error("I/O buffer smaller than transfer length");

  Pdu cmd;
  cmd.type = PduType::kScsiCommand;
  cmd.itt = next_itt_++;
  cmd.lun = lun;
  cmd.cdb = {op, lba, blocks};
  cmd.data_len = bytes;
  cmd.rkey = rdma::RemoteKey{&data};

  auto& eng = th.host().engine();
  Pending* pending = &pending_.emplace(cmd.itt, eng);
  pending->reset();  // the slot (and its channel) may be recycled
  const auto pending_ref = pending_.ref_of(cmd.itt);
  if (auto* au = check::of(eng)) au->flow_in(this, "iscsi.tasks", 1);

  // Concurrent SCSI tasks overlap, so each traces as an async span keyed
  // by its initiator task tag, from submission to response.
  const char* span = op == scsi::OpCode::kRead16 ? "scsi-read" : "scsi-write";
  obs_.span_begin(eng, span, cmd.itt);
  obs_.report(eng, kSubmitted, submitted_);

  // Initiator-side task bookkeeping (tag allocation, SGL mapping).
  co_await th.compute(th.host().costs().iser_initiator_cycles,
                      metrics::CpuCategory::kUserProto);

  const sim::SimTime cmd_t0 = eng.now();
  bool terminal = false;
  sim::SimDuration timeout = command_timeout_;
  for (int attempt = 1;; ++attempt) {
    co_await dm_.send_pdu(th, cmd);
    if (command_timeout_ == 0) {
      (void)co_await pending->wake.recv();
      break;
    }
    // Arm the timeout. The timer holds a generation-counted Ref: once the
    // rendezvous is erased (or its slot recycled for a later command), a
    // late firing resolves to null instead of waking anyone.
    eng.schedule_after(timeout, [tbl = &pending_, pending_ref] {
      if (Pending* p = tbl->get(pending_ref)) p->wake.send(false);
    });
    const auto woke = co_await pending->wake.recv();
    if (woke && *woke) break;  // genuine response
    if (attempt >= std::max(policy_.max_attempts, 1)) {
      // Retry budget exhausted: abandon the task and surface a terminal
      // transport error. Erasing the rendezvous turns any late response
      // into an ignorable duplicate.
      pending_.erase(cmd.itt);
      terminal = true;
      ++command_failures_;
      // A command going terminal is the recovery chain giving up: the
      // report dumps the flight window while the lead-up is in the ring.
      obs_.report(eng, kAbandoned, abandoned_, {.arg = cmd.itt});
      break;
    }
    // Timed out: retransmit the same task tag with the timeout grown by
    // the backoff multiplier (capped). The target suppresses duplicates,
    // so at-most-once execution is preserved.
    ++command_retries_;
    timeout = fault::grow(timeout, kBackoffMultiplier, policy_.backoff_cap);
    obs_.report(eng, kRetry, retry_, {.arg = cmd.itt});
  }
  obs_.span_end(eng, terminal ? kFailed : kCompleted,
                terminal ? failed_ : completed_, cmd_t0, cmd.itt,
                {.event = span});
  if (terminal) co_return scsi::Status::kTransportError;
  // Release the rendezvous slot for recycling only after the status is out
  // of it (the terminal path released it when it abandoned the task).
  const scsi::Status status = pending->status;
  pending_.erase(cmd.itt);
  co_return status;
}

sim::Task<scsi::Status> Initiator::submit_read(numa::Thread& th,
                                               std::uint32_t lun,
                                               std::uint64_t lba,
                                               std::uint32_t blocks,
                                               mem::Buffer& data) {
  if (!policy_.verify_read_digest)
    co_return co_await submit_io(th, scsi::OpCode::kRead16, lun, lba, blocks,
                                 data);
  // End-to-end integrity: the landed data must compose to the analytic
  // range tag. A lost Data-In delivery leaves the tag short even when the
  // control path replays a GOOD response, so mismatches re-drive the whole
  // I/O under a fresh task tag (a fresh ITT defeats the replay cache).
  const std::uint64_t expected = fault::block_range_tag(lba, blocks);
  auto& eng = th.host().engine();
  for (int attempt = 0;; ++attempt) {
    data.content_tag = 0;
    const auto st =
        co_await submit_io(th, scsi::OpCode::kRead16, lun, lba, blocks, data);
    if (st != scsi::Status::kGood) co_return st;
    if (data.content_tag == expected) co_return scsi::Status::kGood;
    ++digest_errors_;
    obs_.report(eng, kDigest, digest_);
    if (attempt >= kMaxDigestRetries) {
      ++command_failures_;
      obs_.report(eng, kDigestGaveUp, digest_gave_up_);
      co_return scsi::Status::kTransportError;
    }
  }
}

sim::Task<scsi::Status> Initiator::submit_write(numa::Thread& th,
                                                std::uint32_t lun,
                                                std::uint64_t lba,
                                                std::uint32_t blocks,
                                                mem::Buffer& data) {
  // Stamp the source buffer's identity so one-sided pulls propagate it;
  // write-path integrity is verified against the LUN's written digest.
  data.content_tag = fault::block_range_tag(lba, blocks);
  return submit_io(th, scsi::OpCode::kWrite16, lun, lba, blocks, data);
}
}  // namespace e2e::iscsi
