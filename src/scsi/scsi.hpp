// SCSI block command subset.
//
// The back-end SAN speaks SCSI block commands over iSCSI/iSER. This module
// defines the command vocabulary (the subset the data path needs: INQUIRY,
// READ CAPACITY, READ(16), WRITE(16), TEST UNIT READY) and the logical-unit
// abstraction backed by a tmpfs file, as in the paper's target setup.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>

#include "fault/integrity.hpp"
#include "mem/tmpfs.hpp"
#include "metrics/cpu_usage.hpp"
#include "numa/thread.hpp"
#include "sim/task.hpp"

namespace e2e::scsi {

enum class OpCode : std::uint8_t {
  kTestUnitReady,
  kInquiry,
  kReadCapacity16,
  kRead16,
  kWrite16,
};

enum class Status : std::uint8_t {
  kGood,
  kCheckCondition,
  kBusy,
  // Terminal transport failure surfaced by the initiator after its retry
  // budget is exhausted (the command may or may not have executed).
  kTransportError,
};

constexpr std::string_view to_string(Status s) noexcept {
  switch (s) {
    case Status::kGood: return "GOOD";
    case Status::kCheckCondition: return "CHECK CONDITION";
    case Status::kBusy: return "BUSY";
    case Status::kTransportError: return "TRANSPORT ERROR";
  }
  return "?";
}

/// Command descriptor block (fixed 512-byte logical blocks).
struct Cdb {
  OpCode op = OpCode::kTestUnitReady;
  std::uint64_t lba = 0;
  std::uint32_t blocks = 0;

  static constexpr std::uint32_t kBlockSize = 512;

  [[nodiscard]] std::uint64_t byte_count() const noexcept {
    return static_cast<std::uint64_t>(blocks) * kBlockSize;
  }
};

/// Logical unit backed by a tmpfs file (the paper's 50 GB LUNs).
class Lun {
 public:
  Lun(std::uint32_t id, mem::Tmpfs& fs, mem::TmpFile& backing)
      : id_(id), fs_(fs), backing_(backing) {
    if (backing.size % Cdb::kBlockSize != 0)
      throw std::invalid_argument("LUN size must be block-aligned");
  }

  [[nodiscard]] std::uint32_t id() const noexcept { return id_; }
  [[nodiscard]] std::uint64_t capacity_blocks() const noexcept {
    return backing_.size / Cdb::kBlockSize;
  }
  [[nodiscard]] std::uint64_t capacity_bytes() const noexcept {
    return backing_.size;
  }
  [[nodiscard]] mem::TmpFile& backing() noexcept { return backing_; }

  /// Target-side data movement: backing store -> staging buffer.
  /// Counted as data "load" (the source side of the end-to-end pipeline).
  sim::Task<Status> read(numa::Thread& th, std::uint64_t lba,
                         std::uint32_t blocks, const numa::Placement& dst) {
    if (!in_range(lba, blocks)) co_return Status::kCheckCondition;
    co_await fs_.read(th, backing_, lba * Cdb::kBlockSize,
                      std::uint64_t{blocks} * Cdb::kBlockSize, dst,
                      metrics::CpuCategory::kLoad);
    co_return Status::kGood;
  }

  /// Target-side data movement: staging buffer -> backing store ("offload").
  sim::Task<Status> write(numa::Thread& th, std::uint64_t lba,
                          std::uint32_t blocks, const numa::Placement& src) {
    if (!in_range(lba, blocks)) co_return Status::kCheckCondition;
    co_await fs_.write(th, backing_, lba * Cdb::kBlockSize,
                       std::uint64_t{blocks} * Cdb::kBlockSize, src,
                       metrics::CpuCategory::kOffload);
    written_digest_ ^= fault::block_range_tag(lba, blocks);
    ++writes_executed_;
    co_return Status::kGood;
  }

  /// Integrity ledger: XOR of block_range_tag for every executed write.
  /// A write-path transfer that executes each logical block exactly once
  /// leaves this equal to the analytically-expected digest; duplicated or
  /// lost command executions perturb it (see fault/integrity.hpp).
  [[nodiscard]] std::uint64_t written_digest() const noexcept {
    return written_digest_;
  }
  [[nodiscard]] std::uint64_t writes_executed() const noexcept {
    return writes_executed_;
  }

 private:
  [[nodiscard]] bool in_range(std::uint64_t lba,
                              std::uint32_t blocks) const noexcept {
    return lba + blocks <= capacity_blocks();
  }

  std::uint32_t id_;
  mem::Tmpfs& fs_;
  mem::TmpFile& backing_;
  std::uint64_t written_digest_ = 0;
  std::uint64_t writes_executed_ = 0;
};

}  // namespace e2e::scsi
