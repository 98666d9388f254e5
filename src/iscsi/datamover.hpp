// Datamover interface: how an iSCSI session moves PDUs and task data.
//
// Mirrors the datamover architecture (DA) split that iSER formalizes: the
// session/task logic above is identical for both bindings; the datamover
// below decides whether data travels as Data-In/Data-Out PDUs over TCP or
// as RDMA Write/Read operations (iSER).
#pragma once

#include <cstdint>
#include <functional>
#include <optional>

#include "iscsi/pdu.hpp"
#include "mem/buffer.hpp"
#include "numa/thread.hpp"
#include "sim/task.hpp"

namespace e2e::iscsi {

class Datamover {
 public:
  virtual ~Datamover() = default;

  /// Sends a control PDU to the peer.
  ///
  /// NOTE (toolchain): coroutine parameters here are references, never
  /// by-value non-trivial types — GCC 12's coroutine lowering double-
  /// destroys prvalue arguments (fixed in later GCC). Callers must keep
  /// the PDU alive until the awaited send completes, which every call
  /// site does by awaiting immediately.
  virtual sim::Task<> send_pdu(numa::Thread& th, const Pdu& pdu) = 0;

  /// Receives the next control PDU (nullopt when the connection closes).
  virtual sim::Task<std::optional<Pdu>> recv_pdu(numa::Thread& th) = 0;

  /// Target data path, Data-In direction (serving a SCSI READ): moves
  /// `bytes` from the target staging buffer to the initiator buffer
  /// advertised in `rkey` (iSER: RDMA Write). Fire-and-forget: posts the
  /// transfer and returns after the post; `on_complete` runs when the
  /// wire is done with `staging` (completion-driven buffer recycling).
  /// Because the SCSI response is posted on the same ordered QP after the
  /// data, the target may respond immediately without waiting for the
  /// data completion.
  virtual sim::Task<> put_data_nowait(numa::Thread& th, mem::Buffer& staging,
                                      std::uint64_t bytes,
                                      rdma::RemoteKey rkey,
                                      std::uint64_t offset,
                                      std::function<void()> on_complete) = 0;

  /// Target data path, Data-Out direction (serving a SCSI WRITE): fetches
  /// `bytes` from the initiator buffer in `rkey` into the staging buffer.
  /// iSER: RDMA Read.
  virtual sim::Task<> get_data(numa::Thread& th, mem::Buffer& staging,
                               std::uint64_t bytes, rdma::RemoteKey rkey,
                               std::uint64_t offset) = 0;
};

}  // namespace e2e::iscsi
