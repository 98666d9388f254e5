// iSCSI PDU definitions (RFC 7143 subset) and login parameters.
//
// Only the PDUs the data path and session bring-up need are modelled. For
// the iSER binding (RFC 7145), SCSI-Command PDUs additionally advertise the
// initiator buffer (the moral equivalent of the iSER header's R-key), and
// Data-In/Data-Out PDUs never appear on the wire — the datamover turns
// them into RDMA operations.
#pragma once

#include <cstdint>
#include <type_traits>

#include "rdma/verbs.hpp"
#include "scsi/scsi.hpp"

namespace e2e::iscsi {

enum class PduType : std::uint8_t {
  kLoginRequest,
  kLoginResponse,
  kScsiCommand,
  kScsiResponse,
  kR2T,       // ready-to-transfer (TCP binding only)
  kDataIn,    // (TCP binding only)
  kDataOut,   // (TCP binding only)
  kNopOut,
  kNopIn,
};

/// Negotiated session parameters (text keys of the login phase). Only the
/// key the target negotiates is modelled; no other key changes the data
/// path (digests are off, as on the paper's testbed).
struct LoginParams {
  std::uint64_t max_burst_length = 16 * 1024 * 1024;
};

struct Pdu {
  PduType type = PduType::kNopOut;
  std::uint64_t itt = 0;   // initiator task tag
  std::uint32_t lun = 0;
  scsi::Cdb cdb;           // kScsiCommand
  scsi::Status status = scsi::Status::kGood;  // kScsiResponse
  std::uint64_t data_len = 0;
  std::uint64_t buffer_offset = 0;
  rdma::RemoteKey rkey;    // iSER: advertised initiator buffer
  LoginParams login;       // kLoginRequest/kLoginResponse

  /// Wire size of the PDU (basic header segment + AHS; data counted
  /// separately by the datamover).
  [[nodiscard]] double wire_bytes() const noexcept {
    return type == PduType::kLoginRequest || type == PduType::kLoginResponse
               ? 512.0   // text negotiation payload
               : 76.0;   // BHS + iSER header
  }
};

// The data path copies PDUs freely (channels, wires, replay cache); keeping
// them trivially copyable means those copies are memcpys, not allocations.
static_assert(std::is_trivially_copyable_v<Pdu>);
// PDUs are copied by value on the hot path: growing one grows every copy.
static_assert(sizeof(Pdu) == 88);

}  // namespace e2e::iscsi
