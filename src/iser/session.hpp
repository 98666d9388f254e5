// Convenience wiring of a full iSER session between two hosts.
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>

#include "fault/watchdog.hpp"
#include "iser/iser.hpp"
#include "net/link.hpp"
#include "rdma/cm.hpp"
#include "sim/rng.hpp"

namespace e2e::iser {

/// Re-establishment backoff of IserSession::enable_recovery(): starts at
/// kRecoveryBackoff, grows by kRecoveryMultiplier per failed attempt up to
/// the policy's cap, plus a uniform extra fraction of up to
/// kRecoveryJitter.
inline constexpr sim::SimDuration kRecoveryBackoff = sim::kMillisecond;
inline constexpr double kRecoveryMultiplier = 2.0;
inline constexpr double kRecoveryJitter = 0.2;

/// Shapes IserSession::enable_recovery(): capped exponential backoff with
/// jitter between re-establishment attempts, and an attempt budget after
/// which the session closes (surfacing terminal errors to submitters via
/// the initiator's retry budget) instead of reconnecting forever.
struct SessionRecoveryPolicy {
  int max_attempts = 8;  // consecutive failed recoveries before giving up
  sim::SimDuration backoff_cap = 50 * sim::kMillisecond;
  std::uint64_t seed = 0xC0FFEE;
  // Registered bytes revalidated per side during QP recovery (MR re-pin).
  std::uint64_t mr_bytes_initiator = 0;
  std::uint64_t mr_bytes_target = 0;
};

/// One iSER session: a connected QP pair plus the two datamover endpoints.
/// The initiator side rides pair().a(), the target side pair().b().
class IserSession {
 public:
  IserSession(rdma::Device& init_dev, rdma::Device& tgt_dev, net::Link& link,
              numa::Process& init_proc, numa::Process& tgt_proc)
      : pair_(init_dev, tgt_dev, link),
        initiator_ep_(pair_.a(), init_proc),
        target_ep_(pair_.b(), tgt_proc) {}

  /// CM handshake + endpoint bring-up on both sides.
  sim::Task<> start(numa::Thread& init_th, numa::Thread& tgt_th) {
    co_await pair_.establish(init_th, tgt_th);
    co_await initiator_ep_.start(init_th);
    co_await target_ep_.start(tgt_th);
  }

  /// Kills the session's QP pair (NIC fault). In-flight data ops fail and
  /// wait for the recovery supervisor (see enable_recovery()).
  void kill() { pair_.kill(); }

  /// Crash-stop of the target host: the pair dies, the target side loses
  /// its posted receives (volatile state), and re-logins are refused for
  /// `down` (0 = the host never returns). The recovery supervisor burns
  /// its attempt budget against the refusals, so an outage longer than
  /// the backoff schedule surfaces as an abandoned session; in-flight
  /// command dedup across the re-login rides the target's existing
  /// completed-command replay window.
  void crash(sim::SimDuration down) {
    auto& eng = pair_.a().device().host().engine();
    down_until_ = down > 0 ? eng.now() + down
                           : std::numeric_limits<sim::SimTime>::max();
    ring_lost_ = true;  // the target's posted receives die with the host
    pair_.crash(1);
  }

  /// Spawns a supervisor that watches for QP death and re-establishes the
  /// connection with capped exponential backoff + jitter, revalidating MRs
  /// per `policy`. Call after start(); `init_th`/`tgt_th` must outlive the
  /// run (session service threads, as for start()).
  void enable_recovery(numa::Thread& init_th, numa::Thread& tgt_th,
                       SessionRecoveryPolicy policy = {}) {
    if (supervising_) return;
    supervising_ = true;
    policy_ = policy;
    sim::co_spawn(supervise(init_th, tgt_th));
  }

  [[nodiscard]] std::uint64_t recoveries() const noexcept {
    return recoveries_;
  }
  [[nodiscard]] bool abandoned() const noexcept { return abandoned_; }
  /// Re-establishment attempts refused because the peer host was down.
  [[nodiscard]] std::uint64_t relogins_refused() const noexcept {
    return relogins_refused_;
  }

  [[nodiscard]] rdma::ConnectedPair& pair() noexcept { return pair_; }
  [[nodiscard]] IserEndpoint& initiator_ep() noexcept {
    return initiator_ep_;
  }
  [[nodiscard]] IserEndpoint& target_ep() noexcept { return target_ep_; }

 private:
  sim::Task<> supervise(numa::Thread& init_th, numa::Thread& tgt_th) {
    auto& eng = init_th.host().engine();
    // Back off before re-establishing (real CMs pace reconnects so a
    // flapping fabric is not hammered), growing the delay while the
    // fabric keeps killing us right back. The shared fault::Backoff
    // reproduces the historical inline schedule bit-for-bit (same
    // growth, cap, unconditional jitter draw, seed).
    fault::Backoff backoff(kRecoveryBackoff, kRecoveryMultiplier,
                           policy_.backoff_cap, kRecoveryJitter, policy_.seed);
    for (;;) {
      co_await pair_.a().error_event().wait();
      co_await sim::Delay{eng, backoff.next()};
      if (pair_.alive()) {  // someone else recovered while we backed off
        backoff.reset();
        continue;
      }
      const int consecutive_failures = backoff.attempts();
      if (consecutive_failures > policy_.max_attempts) {
        // Budget exhausted: give the session up. Posts on the dead QP
        // flush, so submitters drain with terminal errors through the
        // initiator's own retry budget.
        abandoned_ = true;
        // Terminal escalation: the fleet arc's "what happened just before
        // this endpoint gave up" case — the report dumps the flight window.
        obs_.report(eng, kAbandoned, abandoned_site_,
                    {.arg = static_cast<std::uint64_t>(consecutive_failures)});
        co_return;
      }
      if (eng.now() < down_until_) {
        // The peer host is still down: connection refused. The attempt
        // burns budget and the next backoff grows — exactly how a real
        // initiator discovers a crashed target, one refused login at a
        // time.
        ++relogins_refused_;
        obs_.report(eng, kReloginRefused, relogin_refused_);
        continue;
      }
      co_await pair_.reestablish(init_th, tgt_th, policy_.mr_bytes_initiator,
                                 policy_.mr_bytes_target);
      if (pair_.alive()) {
        if (ring_lost_) {
          // Restart epoch: rebuild the receive ring the crash emptied.
          ring_lost_ = false;
          co_await target_ep_.repost_ring(tgt_th);
        }
        backoff.reset();
        ++recoveries_;
        obs_.report(eng, kRecovered, recovered_);
      }
    }
  }

  rdma::ConnectedPair pair_;
  IserEndpoint initiator_ep_;
  IserEndpoint target_ep_;
  SessionRecoveryPolicy policy_;
  bool supervising_ = false;
  bool abandoned_ = false;
  bool ring_lost_ = false;  // crash emptied the target's receive ring
  std::uint64_t recoveries_ = 0;
  std::uint64_t relogins_refused_ = 0;
  sim::SimTime down_until_ = 0;  // crash(): re-logins refused until here
  // Supervisor incidents, on the shared "session" stats entity.
  static constexpr obs::Incident kAbandoned{.name = "session-abandoned",
                                            .counter = "sessions_abandoned",
                                            .event = obs::kSkip,
                                            .dump = "iser"};
  static constexpr obs::Incident kReloginRefused{
      .trace_counter = "iser/relogins_refused"};
  static constexpr obs::Incident kRecovered{.counter = "session_recoveries"};
  obs::Actor obs_{obs::Layer::kIser, {}, obs::named("session")};
  obs::Site abandoned_site_, relogin_refused_, recovered_;
};

}  // namespace e2e::iser
