// Liveness and retry-delay math for the fault-recovery paths.
//
//   * Deadline and Watchdog — RFTP's liveness check (rftp::RftpConfig::
//     watchdog over fresh block drains). Watchdog is a quiet-period
//     stall detector driven by kick(). It distinguishes *crash* from
//     *slow*: a suspicion that clears when progress resumes is counted
//     as a false suspicion (visible in stats as the `false-suspect`
//     code), while `max_quiet` consecutive quiet periods declare the
//     peer dead and run the caller's on_dead callback exactly once.
//   * Backoff — the iSER session supervisor's re-establishment delay
//     schedule (exponential growth, cap, bounded jitter). Same seed =>
//     same schedule.
//   * grow — one step of capped exponential growth: the iSCSI
//     per-command timeout and iSER's data-retry delay.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>

#include "obs/probe.hpp"
#include "sim/engine.hpp"
#include "sim/rng.hpp"
#include "sim/time.hpp"

namespace e2e::fault {

/// Watchdog timeout policy (rftp::RftpConfig::watchdog).
struct Deadline {
  /// Quiet period: no progress for this long raises a suspicion.
  sim::SimDuration quiet = 500 * sim::kMillisecond;
  /// Consecutive quiet periods before the peer is declared dead.
  int max_quiet = 4;
};

/// Quiet-period stall detector. arm() starts a self-rescheduling check
/// every `deadline.quiet`; callers kick() on every unit of forward
/// progress (block drained, command completed, byte acked). Suspicions
/// that clear are false suspicions (slow peer, not dead); suspicions
/// that stack to `max_quiet` fire on_dead once and disarm.
///
/// Armed exactly when one check is pending: disarm() retracts it
/// (Engine::retract), so a disarmed watchdog leaves nothing queued and an
/// engine drains when its last real event runs. arm() on an armed
/// watchdog replaces its check. disarm() is idempotent and must be called
/// before the owner is destroyed; the false-suspect handler, which runs
/// inside a check, must not call it.
class Watchdog {
 public:
  explicit Watchdog(sim::Engine& eng) : eng_(eng) {}
  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

  void arm(const Deadline& dl, std::function<void()> on_dead);
  /// Optional observer invoked each time a suspicion clears (the peer
  /// was slow, not dead) — owners wire this to a stats `false-suspect`
  /// code so operators can tune `quiet` against real stall tails.
  void set_false_suspect_handler(std::function<void()> handler) {
    on_false_suspect_ = std::move(handler);
  }
  /// Records forward progress; clears an in-flight suspicion lazily (the
  /// next check notices and counts the false suspicion).
  void kick() noexcept { last_kick_ = eng_.now(); }
  void disarm() noexcept {
    if (armed_) eng_.retract(check_slot_);
    armed_ = false;
  }

  [[nodiscard]] bool armed() const noexcept { return armed_; }
  [[nodiscard]] bool declared_dead() const noexcept { return dead_; }
  [[nodiscard]] std::uint64_t false_suspicions() const noexcept {
    return false_suspicions_;
  }
  [[nodiscard]] std::uint64_t suspicions() const noexcept {
    return suspicions_;
  }

 private:
  void check();
  void schedule_check();

  sim::Engine& eng_;
  Deadline dl_{};
  std::function<void()> on_dead_;
  std::function<void()> on_false_suspect_;
  std::uint32_t check_slot_ = 0;  // the pending check's schedule_at slot
  sim::SimTime last_kick_ = 0;
  sim::SimTime last_seen_kick_ = 0;
  int quiet_count_ = 0;
  bool suspicious_ = false;
  bool armed_ = false;
  bool dead_ = false;
  std::uint64_t suspicions_ = 0;
  std::uint64_t false_suspicions_ = 0;
  // Verdicts trace as instants on the shared "fault/watchdog" track.
  obs::Actor obs_{obs::Layer::kFault, obs::named("fault/watchdog"), {}};
  obs::Site verdict_;
};

/// Exponential retry-delay schedule with cap and bounded jitter. next()
/// reproduces the iSER supervisor's historical math bit-for-bit: the
/// base delay doubles (well, multiplies) per consecutive failure, is
/// clamped to `cap` at every step, then gains a uniform jitter in
/// [0, jitter * delay). The jitter draw happens unconditionally so the
/// RNG stream — and therefore every downstream seeded decision — is
/// independent of the jitter fraction.
class Backoff {
 public:
  Backoff(sim::SimDuration base, double multiplier, sim::SimDuration cap,
          double jitter, std::uint64_t seed)
      : base_(base), multiplier_(multiplier), cap_(cap), jitter_(jitter),
        rng_(seed) {}

  /// Delay before retry #(attempts()+1); advances the attempt counter.
  [[nodiscard]] sim::SimDuration next() {
    sim::SimDuration b = base_;
    for (int i = 0; i < attempts_; ++i)
      b = std::min(static_cast<sim::SimDuration>(
                       static_cast<double>(b) * multiplier_),
                   cap_);
    b += static_cast<sim::SimDuration>(rng_.uniform(0.0, jitter_) *
                                       static_cast<double>(b));
    ++attempts_;
    return b;
  }

  /// Progress was made: the next failure starts from the base delay.
  void reset() noexcept { attempts_ = 0; }
  [[nodiscard]] int attempts() const noexcept { return attempts_; }

 private:
  sim::SimDuration base_;
  double multiplier_;
  sim::SimDuration cap_;
  double jitter_;
  int attempts_ = 0;
  sim::Rng rng_;
};

/// One step of capped exponential growth (cap = 0 means uncapped) — the
/// iSCSI per-command timeout law and iSER's data-retry delay, shared so
/// the growth rule lives in one place.
[[nodiscard]] inline sim::SimDuration grow(sim::SimDuration v,
                                           double multiplier,
                                           sim::SimDuration cap) noexcept {
  auto g = static_cast<sim::SimDuration>(static_cast<double>(v) * multiplier);
  if (cap > 0) g = std::min(g, cap);
  return g;
}

}  // namespace e2e::fault
