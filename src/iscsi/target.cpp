#include "iscsi/target.hpp"

#include <algorithm>
#include <stdexcept>

#include "check/audit.hpp"
#include "fault/integrity.hpp"

namespace e2e::iscsi {

Target::Target(numa::Process& proc, Datamover& dm,
               std::vector<scsi::Lun*> luns, mem::BufferPool& pool,
               TargetSched sched)
    : proc_(proc),
      dm_(dm),
      pool_(pool),
      sched_(sched),
      requests_(proc.host().engine()) {
  for (auto* l : luns) luns_.insert(l->id(), l);
  if (sched_ == TargetSched::kNumaRouted)
    for (int n = 0; n < proc.host().node_count(); ++n)
      node_requests_.push_back(
          std::make_unique<sim::Channel<Pdu>>(proc.host().engine()));
}

void Target::start(int workers) {
  if (started_) throw std::logic_error("target already started");
  started_ = true;
  sim::co_spawn(rx_loop(proc_.spawn_thread()));
  for (int i = 0; i < workers; ++i) {
    if (sched_ == TargetSched::kNumaRouted) {
      // Spread workers over nodes; each serves its node's queue.
      const numa::NodeId n = i % proc_.host().node_count();
      const numa::CoreId core =
          proc_.host().pick_core(numa::SchedPolicy::kBindNode, n);
      sim::co_spawn(worker_loop(proc_.spawn_pinned_thread(core),
                                *node_requests_[static_cast<std::size_t>(n)]));
    } else {
      sim::co_spawn(worker_loop(proc_.spawn_thread(), requests_));
    }
  }
}

sim::Channel<Pdu>& Target::route(const Pdu& cmd) {
  if (sched_ != TargetSched::kNumaRouted) return requests_;
  // libnuma-style dispatch: send the task to a worker on the node that
  // holds the LUN's backing pages; unknown/interleaved LUNs fall back to
  // a round-robin choice by task tag.
  if (scsi::Lun* const* l = luns_.find(cmd.lun)) {
    const auto& placement = (*l)->backing().placement;
    if (placement.extents.size() == 1)
      return *node_requests_[static_cast<std::size_t>(
          placement.extents[0].node)];
  }
  return *node_requests_[cmd.itt % node_requests_.size()];
}

scsi::Lun* Target::find_lun(std::uint32_t id) {
  scsi::Lun* const* l = luns_.find(id);
  return l == nullptr ? nullptr : *l;
}

sim::Task<> Target::rx_loop(numa::Thread& th) {
  for (;;) {
    auto pdu = co_await dm_.recv_pdu(th);
    if (!pdu) co_return;  // connection closed
    switch (pdu->type) {
      case PduType::kLoginRequest: {
        // Accept the proposal, clamping burst lengths to what the staging
        // pool can pipeline.
        Pdu resp;
        resp.type = PduType::kLoginResponse;
        resp.login = pdu->login;
        resp.login.max_burst_length = std::max<std::uint64_t>(
            pool_.buffer_bytes(), pdu->login.max_burst_length);
        co_await dm_.send_pdu(th, resp);
        break;
      }
      case PduType::kScsiCommand: {
        if (in_progress_.contains(pdu->itt)) break;  // retry of a live task
        if (const scsi::Status* done = completed_.find(pdu->itt)) {
          // Replay the response for an already-executed task.
          Pdu resp;
          resp.type = PduType::kScsiResponse;
          resp.itt = pdu->itt;
          resp.status = *done;
          co_await dm_.send_pdu(th, resp);
          break;
        }
        in_progress_.insert(pdu->itt, 1);
        if (auto* au = check::of(proc_.host().engine())) {
          if (pdu->cdb.op == scsi::OpCode::kWrite16)
            au->flow_in(this, "iscsi.write", pdu->cdb.byte_count());
          else if (pdu->cdb.op == scsi::OpCode::kRead16)
            au->flow_in(this, "iscsi.read", pdu->cdb.byte_count());
        }
        route(*pdu).send(*pdu);
        break;
      }
      default:
        break;  // NOPs and TCP-binding PDUs: ignored by the iSER target
    }
  }
}

sim::Task<> Target::worker_loop(numa::Thread& th, sim::Channel<Pdu>& queue) {
  for (;;) {
    auto cmd = co_await queue.recv();
    if (!cmd) co_return;
    co_await serve_task(th, *cmd);
  }
}

sim::Task<> Target::serve_task(numa::Thread& th, Pdu cmd) {
  const auto& cm = th.host().costs();
  co_await th.compute(cm.iser_task_cycles, metrics::CpuCategory::kUserProto);

  Pdu resp;
  resp.type = PduType::kScsiResponse;
  resp.itt = cmd.itt;
  resp.status = scsi::Status::kGood;

  scsi::Lun* lun = find_lun(cmd.lun);
  switch (cmd.cdb.op) {
    case scsi::OpCode::kTestUnitReady:
    case scsi::OpCode::kInquiry:
    case scsi::OpCode::kReadCapacity16:
      if (!lun) resp.status = scsi::Status::kCheckCondition;
      break;

    case scsi::OpCode::kRead16:
    case scsi::OpCode::kWrite16: {
      if (!lun) {
        resp.status = scsi::Status::kCheckCondition;
        break;
      }
      const bool is_read = cmd.cdb.op == scsi::OpCode::kRead16;
      std::uint64_t remaining = cmd.cdb.byte_count();
      std::uint64_t offset = 0;
      std::uint64_t lba = cmd.cdb.lba;
      // Segment transfers through the staging pool and pipeline them.
      while (remaining > 0 && resp.status == scsi::Status::kGood) {
        mem::Buffer* staging = co_await pool_.acquire();
        const std::uint64_t chunk = std::min(remaining, staging->bytes);
        const auto blocks =
            static_cast<std::uint32_t>(chunk / scsi::Cdb::kBlockSize);
        if (is_read) {
          resp.status =
              co_await lun->read(th, lba, blocks, staging->placement);
          if (resp.status == scsi::Status::kGood) {
            // Stamp the staging chunk's payload identity; the datamover
            // carries it to the initiator buffer for digest verification.
            staging->content_tag = fault::block_range_tag(lba, blocks);
            // Data-In rides the ordered session QP ahead of the response;
            // the staging buffer recycles on the send completion, and the
            // worker moves on immediately (completion-driven pipeline).
            mem::BufferPool* pool = &pool_;
            co_await dm_.put_data_nowait(
                th, *staging, chunk, cmd.rkey, offset,
                [pool, staging] { pool->release(staging); });
            staging = nullptr;
          }
          bytes_out_ += chunk;
          if (auto* au = check::of(th.host().engine()))
            au->flow_out(this, "iscsi.read", chunk);
        } else {
          co_await dm_.get_data(th, *staging, chunk, cmd.rkey, offset);
          resp.status =
              co_await lun->write(th, lba, blocks, staging->placement);
          bytes_in_ += chunk;
          if (auto* au = check::of(th.host().engine()))
            au->flow_out(this, "iscsi.write", chunk);
        }
        if (staging != nullptr) pool_.release(staging);
        remaining -= chunk;
        offset += chunk;
        lba += blocks;
      }
      break;
    }
  }

  ++tasks_served_;
  in_progress_.erase(cmd.itt);
  completed_.insert(cmd.itt, resp.status);
  completed_order_.push_back(cmd.itt);
  if (completed_order_.size() > kCompletedHistory) {
    completed_.erase(completed_order_.front());
    completed_order_.pop_front();
  }
  co_await dm_.send_pdu(th, resp);
}

}  // namespace e2e::iscsi
