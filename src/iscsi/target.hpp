// iSCSI target core (tgtd analogue).
//
// One Target instance is one target *process*: it owns worker threads, a
// staging-buffer pool and the LUNs it exports, and serves SCSI tasks that
// arrive over one Datamover session. The paper's NUMA tuning runs one
// Target per NUMA node (numactl-bound process per node, each with the
// NIC-local LUNs and buffers); the untuned baseline runs one Target whose
// threads the default scheduler scatters across nodes.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "iscsi/datamover.hpp"
#include "iscsi/pdu.hpp"
#include "mem/buffer_pool.hpp"
#include "mem/flat_table.hpp"
#include "sim/ring_queue.hpp"
#include "numa/process.hpp"
#include "scsi/scsi.hpp"
#include "sim/channel.hpp"

namespace e2e::iscsi {

/// How the target assigns SCSI tasks to worker threads.
enum class TargetSched {
  /// One shared queue; any worker takes any task (stock tgtd behaviour —
  /// combined with per-process numactl binding this is the paper's tuned
  /// configuration, without it the untuned baseline).
  kShared,
  /// libnuma-style per-request scheduling (the paper's deferred "redesign
  /// of iSCSI with the libnuma API", built here as an extension): workers
  /// are spread over all NUMA nodes and every task is dispatched to a
  /// worker on the node that holds the LUN's backing memory, recovering
  /// locality dynamically inside a single un-bound process.
  kNumaRouted,
};

class Target {
 public:
  /// `pool` provides staging buffers; transfers larger than one staging
  /// buffer are segmented and pipelined through it.
  Target(numa::Process& proc, Datamover& dm, std::vector<scsi::Lun*> luns,
         mem::BufferPool& pool, TargetSched sched = TargetSched::kShared);
  Target(const Target&) = delete;
  Target& operator=(const Target&) = delete;

  /// Spawns the PDU receive loop and `workers` task-serving workers, each
  /// on its own process thread (spread across nodes under kNumaRouted).
  void start(int workers);

  [[nodiscard]] std::uint64_t tasks_served() const noexcept {
    return tasks_served_;
  }
  [[nodiscard]] std::uint64_t bytes_in() const noexcept { return bytes_in_; }
  [[nodiscard]] std::uint64_t bytes_out() const noexcept { return bytes_out_; }

 private:
  sim::Task<> rx_loop(numa::Thread& th);
  sim::Task<> worker_loop(numa::Thread& th, sim::Channel<Pdu>& queue);
  sim::Task<> serve_task(numa::Thread& th, Pdu cmd);
  [[nodiscard]] scsi::Lun* find_lun(std::uint32_t id);
  [[nodiscard]] sim::Channel<Pdu>& route(const Pdu& cmd);

  numa::Process& proc_;
  Datamover& dm_;
  mem::FlatMap<scsi::Lun*> luns_;
  // Duplicate suppression for initiator command retries: tasks being
  // served are dropped on re-arrival; completed tasks get their response
  // replayed (bounded history, FIFO eviction). Flat tables: the replay
  // cache is consulted per command, so it must not churn map nodes.
  mem::FlatMap<char> in_progress_;  // flat set (values unused)
  mem::FlatMap<scsi::Status> completed_;
  sim::RingQueue<std::uint64_t> completed_order_;
  static constexpr std::size_t kCompletedHistory = 4096;
  mem::BufferPool& pool_;
  TargetSched sched_;
  sim::Channel<Pdu> requests_;  // shared queue (and kNumaRouted fallback)
  std::vector<std::unique_ptr<sim::Channel<Pdu>>> node_requests_;
  bool started_ = false;
  std::uint64_t tasks_served_ = 0;
  std::uint64_t bytes_in_ = 0;
  std::uint64_t bytes_out_ = 0;
};

}  // namespace e2e::iscsi
