#include "tcp/connection.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "check/audit.hpp"

namespace e2e::tcp {

namespace {

constexpr obs::Incident kRetx{.name = "retransmit", .counter = "retransmits"};
constexpr obs::Incident kSent{
    .name = "send", .code = obs::kSkip, .trace_counter = "tcp/bytes_sent"};
constexpr obs::Incident kReceived{.name = "recv",
                                  .code = obs::kSkip,
                                  .trace_counter = "tcp/bytes_received"};

}  // namespace

Connection::Connection(numa::Host& host_a, numa::NodeId node_a,
                       numa::Host& host_b, numa::NodeId node_b,
                       net::Link& link)
    : link_(link) {
  // The TCP model runs both endpoints' stacks on one event engine (shared
  // channels, direct peer-state reads). Cross-shard TCP would need the
  // cross_post seam the RDMA path has; until then, refuse the topology
  // loudly rather than silently racing. Cross-shard fleets carry their
  // bulk traffic over rdma:: QPs.
  if (&host_a.engine() != &host_b.engine())
    throw std::logic_error(
        "tcp::Connection endpoints must share one engine (link " +
        link.name() + " spans two shards)");
  auto init = [&](Endpoint& ep, numa::Host& h, numa::NodeId n) {
    ep.host = &h;
    ep.nic_node = n;
    ep.skb = numa::Placement::on(n);
    ep.obs = obs::Actor(obs::Layer::kTcp, {h.name() + "/tcp"},
                        {h.name() + "/tcp"});
    ep.inbound = std::make_unique<sim::Channel<Message>>(h.engine());
  };
  init(ep_[0], host_a, node_a);
  init(ep_[1], host_b, node_b);
}

int Connection::endpoint_of(const numa::Host& host) const {
  if (ep_[0].host == &host) return 0;
  if (ep_[1].host == &host) return 1;
  throw std::invalid_argument("thread's host is not a connection endpoint");
}

sim::Task<> Connection::connect(numa::Thread& client) {
  co_await client.compute(client.host().costs().tcp_connect_cycles,
                          metrics::CpuCategory::kKernelProto);
  co_await sim::Delay{client.host().engine(), link_.rtt()};
}

sim::Task<> Connection::send(numa::Thread& th, const numa::Placement& user_src,
                             std::uint64_t bytes, bool src_in_cache,
                             mem::MsgPtr payload) {
  Endpoint& ep = ep_[endpoint_of(th.host())];
  Endpoint& peer = ep_[1 - endpoint_of(th.host())];
  const auto& cm = th.host().costs();
  const int dir = link_.bound() ? link_.dir_from(ep.host)
                                : (&ep == &ep_[0] ? 0 : 1);
  const sim::SimTime trace_t0 = th.host().engine().now();

  // Syscall entry + user->kernel copy into NIC-local socket buffers.
  co_await th.compute(cm.tcp_syscall_cycles,
                      metrics::CpuCategory::kKernelProto);
  co_await th.copy(bytes, user_src, ep.skb, metrics::CpuCategory::kCopy,
                   numa::Coherence::kPrivate, src_in_cache);

  // Kernel protocol processing (segmentation, checksums, qdisc). Running
  // the stack on a core remote from the NIC's node costs extra: skb
  // metadata and descriptor rings live NIC-local.
  const double pkts = std::ceil(link_.packets(static_cast<double>(bytes)));
  const double kern_penalty =
      th.node() == ep.nic_node ? 1.0 : kRemoteStackPenalty;
  co_await th.compute(pkts * cm.tcp_kernel_cycles_per_packet * kern_penalty,
                      metrics::CpuCategory::kKernelProto);

  // Hand off to the NIC: send() returns once the data sits in the socket
  // buffer; DMA and wire serialization proceed asynchronously. Block only
  // while the device backlog exceeds the socket buffer (sndbuf pressure).
  auto& eng = th.host().engine();
  auto& wire = link_.dir(dir);
  const sim::SimDuration sndbuf_time = wire.service_time(kSndbufBytes);
  while (wire.backlog_delay() > sndbuf_time)
    co_await sim::Delay{eng, wire.backlog_delay() - sndbuf_time};
  th.host().charge_dma(ep.skb, bytes, ep.nic_node, /*to_device=*/true);
  const double wire_payload =
      link_.wire_bytes(static_cast<double>(bytes), kTcpHeaderBytes);
  sim::SimTime tx_done = wire.charge(wire_payload);

  // Fault model: TCP is reliable, so a chunk the fabric eats is recovered
  // inside the transport — the kernel retransmits after an RTO (backing
  // off while a fault window persists), re-serializing the chunk. The
  // sender stalls meanwhile, which is exactly the goodput cost chaos
  // benches measure.
  net::TxFate fate =
      link_.transmit_fate(static_cast<net::Direction>(dir), wire_payload);
  sim::SimDuration rto = 2 * link_.rtt();
  while (fate.fail) {
    ep.obs.report(eng, kRetx, ep.retx, {.arg = bytes});
    ++retransmits_;
    co_await sim::Delay{eng, fate.fail_delay + rto};
    rto = std::min(rto * 2, static_cast<sim::SimDuration>(60 * sim::kSecond));
    tx_done = wire.charge(wire_payload);
    fate = link_.transmit_fate(static_cast<net::Direction>(dir), wire_payload);
  }

  ep.bytes_sent += bytes;
  ep.last_tx_done = tx_done;
  if (auto* au = check::of(eng)) au->flow_in(&ep, "tcp", bytes);
  ep.obs.span(eng, kSent, ep.sent, trace_t0, {.n = bytes});
  sim::Channel<Message>* dst = peer.inbound.get();
  eng.schedule_at(
      sim::Engine::saturating_add(tx_done, link_.latency() +
                                               fate.extra_latency),
      [dst, bytes, payload = std::move(payload)]() mutable {
        dst->send(Message{bytes, std::move(payload)});
      });
}

sim::Task<std::uint64_t> Connection::recv(numa::Thread& th,
                                          const numa::Placement& user_dst) {
  const Message m = co_await recv_msg(th, user_dst);
  co_return m.bytes;
}

sim::Task<Connection::Message> Connection::recv_msg(
    numa::Thread& th, const numa::Placement& user_dst) {
  Message m = co_await recv_raw(th);
  if (m.bytes > 0) co_await copy_from_kernel(th, m.bytes, user_dst);
  co_return m;
}

sim::Task<Connection::Message> Connection::recv_raw(numa::Thread& th) {
  const int idx = endpoint_of(th.host());
  Endpoint& ep = ep_[idx];
  const auto& cm = th.host().costs();

  auto chunk = co_await ep.inbound->recv();
  if (!chunk) co_return Message{};  // connection closed
  const std::uint64_t bytes = chunk->bytes;
  const sim::SimTime trace_t0 = th.host().engine().now();

  // NIC DMA into socket buffers happened on arrival; charge it now along
  // with softirq protocol processing.
  const sim::SimTime dma_done =
      th.host().charge_dma(ep.skb, bytes, ep.nic_node, /*to_device=*/false);
  co_await sim::until(th.host().engine(), dma_done);
  const double pkts = std::ceil(link_.packets(static_cast<double>(bytes)));
  const double kern_penalty =
      th.node() == ep.nic_node ? 1.0 : kRemoteStackPenalty;
  co_await th.compute(cm.tcp_syscall_cycles +
                          pkts * cm.tcp_kernel_cycles_per_packet *
                              kern_penalty,
                      metrics::CpuCategory::kKernelProto);
  ep.bytes_received += bytes;
  if (auto* au = check::of(th.host().engine()))
    au->flow_out(&ep_[1 - idx], "tcp", bytes);
  ep.obs.span(th.host().engine(), kReceived, ep.received, trace_t0,
              {.n = bytes});
  co_return Message{bytes, std::move(chunk->payload)};
}

sim::Task<> Connection::copy_from_kernel(numa::Thread& th,
                                         std::uint64_t bytes,
                                         const numa::Placement& user_dst) {
  Endpoint& ep = ep_[endpoint_of(th.host())];
  co_await th.copy(bytes, ep.skb, user_dst, metrics::CpuCategory::kCopy);
}

void Connection::shutdown(numa::Thread& th) {
  Endpoint& ep = ep_[endpoint_of(th.host())];
  Endpoint& peer = ep_[1 - endpoint_of(th.host())];
  sim::Channel<Message>* dst = peer.inbound.get();
  auto& eng = th.host().engine();
  // The FIN queues behind any data still leaving the socket buffer.
  const sim::SimTime after =
      ep.last_tx_done > eng.now() ? ep.last_tx_done : eng.now();
  eng.schedule_at(sim::Engine::saturating_add(after, link_.latency()),
                  [dst] { dst->close(); });
}

}  // namespace e2e::tcp
