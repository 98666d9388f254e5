// TCP connection model.
//
// Charges the full software cost the paper attributes to the TCP/IP path:
//
//  send(): syscall entry + user->kernel copy (CPU + memory channels) +
//          per-packet kernel protocol processing + NIC DMA out of the
//          socket buffer + wire serialization. Socket buffers live on the
//          NIC's NUMA node (kernel allocates near the device), so an app
//          thread on the wrong node pays remote-copy penalties — the exact
//          effect the §2.3 motivating experiment measures.
//  recv(): per-packet kernel processing (softirq work is accounted to the
//          consuming process, as getrusage shows it) + kernel->user copy.
//
// Flow control: send() completes when the data has been serialized onto
// the wire (socket-buffer backpressure), which caps one connection at line
// rate without RTT involvement. The paper runs TCP on LAN testbeds only,
// so there is no congestion window; a chunk the fabric drops is resent
// after an RTO.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>

#include "mem/msg_pool.hpp"
#include "metrics/cpu_usage.hpp"
#include "net/link.hpp"
#include "numa/host.hpp"
#include "numa/thread.hpp"
#include "obs/probe.hpp"
#include "sim/channel.hpp"
#include "sim/task.hpp"

namespace e2e::tcp {

/// Ethernet + IP + TCP header bytes per packet.
inline constexpr double kTcpHeaderBytes = 78.0;

/// Socket send-buffer: bounds how far the wire may lag the application.
inline constexpr double kSndbufBytes = 4.0 * 1024 * 1024;

/// Kernel-stack cost multiplier when the processing core is remote from
/// the NIC's NUMA node (skbs and descriptor rings are NIC-local).
inline constexpr double kRemoteStackPenalty = 1.45;

class Connection {
 public:
  /// `node_a`/`node_b`: NUMA node of the NIC each endpoint uses.
  Connection(numa::Host& host_a, numa::NodeId node_a, numa::Host& host_b,
             numa::NodeId node_b, net::Link& link);

  /// Three-way handshake cost + one RTT.
  sim::Task<> connect(numa::Thread& client);

  /// One received message: its size and the application content that rode
  /// with it (protocol layers ship their headers/PDUs through `payload`;
  /// the simulation moves no real bytes).
  struct Message {
    std::uint64_t bytes = 0;
    mem::MsgPtr payload;
  };

  /// Sends `bytes` from a user buffer at `user_src`. `src_in_cache` models
  /// a source working set that fits in LLC (iperf default). Completes when
  /// the data is on the wire. `payload` (optional) is delivered with the
  /// message to the peer's recv.
  sim::Task<> send(numa::Thread& th, const numa::Placement& user_src,
                   std::uint64_t bytes, bool src_in_cache = false,
                   mem::MsgPtr payload = nullptr);

  /// Receives one inbound chunk into a user buffer at `user_dst`;
  /// returns its size (0 on connection close).
  sim::Task<std::uint64_t> recv(numa::Thread& th,
                                const numa::Placement& user_dst);

  /// Like recv(), but also returns the message payload.
  sim::Task<Message> recv_msg(numa::Thread& th,
                              const numa::Placement& user_dst);

  /// Receives a message charging the NIC DMA and kernel protocol work but
  /// NOT the kernel->user copy: for protocol layers that demultiplex first
  /// and copy to the real destination once it is known (e.g. iSCSI/TCP
  /// Data-In). Pair with copy_from_kernel().
  sim::Task<Message> recv_raw(numa::Thread& th);

  /// The deferred kernel->user copy matching recv_raw().
  sim::Task<> copy_from_kernel(numa::Thread& th, std::uint64_t bytes,
                               const numa::Placement& user_dst);

  /// Closes the stream in the a->b direction (recv on the peer returns 0
  /// after draining).
  void shutdown(numa::Thread& th);

  [[nodiscard]] std::uint64_t bytes_sent(int endpoint) const {
    return ep_[endpoint].bytes_sent;
  }
  /// Chunks re-serialized after an injected wire fault (RTO recovery).
  [[nodiscard]] std::uint64_t retransmits() const noexcept {
    return retransmits_;
  }

  /// Endpoint index for a thread on `host` (0 for host_a, 1 for host_b).
  [[nodiscard]] int endpoint_of(const numa::Host& host) const;

 private:
  struct Endpoint {
    numa::Host* host = nullptr;
    numa::NodeId nic_node = 0;
    numa::Placement skb;          // socket buffers, NIC-local
    std::unique_ptr<sim::Channel<Message>> inbound;
    std::uint64_t bytes_sent = 0;
    std::uint64_t bytes_received = 0;
    sim::SimTime last_tx_done = 0;  // orders FIN behind queued data
    // Observability: the endpoint's "<host>/tcp" track and entity, and one
    // Site per incident (handles resolve once per sink).
    obs::Actor obs;
    obs::Site retx, sent, received;
  };

  net::Link& link_;
  Endpoint ep_[2];
  std::uint64_t retransmits_ = 0;
};

}  // namespace e2e::tcp
