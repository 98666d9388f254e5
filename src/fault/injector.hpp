// FaultInjector: arms a FaultPlan against an engine and a set of links.
//
// The injector implements net::FaultHook — each attached link consults it
// once per message via Link::transmit_fate(). Plan events are scheduled on
// the engine by arm(); windowed faults (flap/spike/hole) set per-link state
// for their duration, and loss bursts decrement a counter per corrupted
// message; the hook is the only way a link fails a message. qpkill and
// crash events invoke caller-provided handlers: rftp::RftpSession::attach
// wires both for a transfer, and other callers set a qpkill handler (an
// rdma::ConnectedPair::kill) themselves. Every injected fault emits a
// trace instant on the fault layer plus counters, so chaos runs are
// legible in Perfetto.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "fault/plan.hpp"
#include "net/link.hpp"
#include "sim/engine.hpp"
#include "obs/probe.hpp"

namespace e2e::fault {

class FaultInjector final : public net::FaultHook {
 public:
  FaultInjector(sim::Engine& eng, FaultPlan plan);
  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;
  ~FaultInjector() override;

  /// Registers `link` as plan link index attach-order (first attach is
  /// link=0) and installs this injector as its fault hook.
  void attach(net::Link& link);

  /// Handler for kQpKill events; receives the event's qp index.
  void set_qp_kill_handler(std::function<void(int)> handler) {
    qp_kill_ = std::move(handler);
  }

  /// Handler for kCrash events; receives the event's host index and the
  /// scripted downtime (0 = the host never restarts).
  void set_crash_handler(
      std::function<void(int, sim::SimDuration)> handler) {
    crash_ = std::move(handler);
  }

  /// Schedules every plan event on the engine. Call once, before running.
  /// Events naming a link index with no attached link are ignored (counted
  /// in skipped_events()).
  void arm();

  // net::FaultHook
  net::TxFate on_transmit(net::Link& link, net::Direction d,
                          double bytes) override;

  /// Window a loss burst stays live when the event carries no dur=;
  /// losses not consumed by traffic within it expire.
  static constexpr sim::SimDuration kDefaultLossWindow =
      10 * sim::kMillisecond;

  [[nodiscard]] const FaultPlan& plan() const noexcept { return plan_; }
  [[nodiscard]] std::uint64_t faults_injected() const noexcept {
    return faults_injected_;
  }
  [[nodiscard]] std::uint64_t messages_failed() const noexcept {
    return messages_failed_;
  }
  [[nodiscard]] std::uint64_t skipped_events() const noexcept {
    return skipped_events_;
  }

 private:
  struct LinkState {
    net::Link* link = nullptr;
    int pending_loss[2] = {0, 0};  // per-direction remaining burst
    // Bursts model a time-correlated corruption episode, not a vendetta
    // against the next n messages whenever they happen: un-consumed losses
    // expire at this deadline so a burst armed against a quiet direction
    // cannot lurk and starve a later retry sequence one message at a time.
    sim::SimTime loss_until[2] = {0, 0};
    bool down = false;             // inside a flap window
    bool hole[2] = {false, false};  // per-direction blackhole window
    sim::SimDuration extra_latency = 0;  // active spike magnitude
    obs::Actor obs;  // "fault/<link>" track
    obs::Site injected, cleared, failed;
  };

  void apply(const FaultEvent& ev);
  void fire(LinkState& ls, const char* name);

  sim::Engine& eng_;
  FaultPlan plan_;
  std::vector<LinkState> links_;
  std::function<void(int)> qp_kill_;
  std::function<void(int, sim::SimDuration)> crash_;
  bool armed_ = false;
  std::uint64_t faults_injected_ = 0;
  std::uint64_t messages_failed_ = 0;
  std::uint64_t skipped_events_ = 0;
  obs::Actor plan_obs_{obs::Layer::kFault, {"fault/plan"}, {}};
  obs::Site plan_injected_;
};

}  // namespace e2e::fault
