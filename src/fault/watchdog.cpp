#include "fault/watchdog.hpp"

namespace e2e::fault {

namespace {

constexpr obs::Incident kVerdict{};  // instant named per verdict

}  // namespace

void Watchdog::arm(const Deadline& dl, std::function<void()> on_dead) {
  dl_ = dl;
  on_dead_ = std::move(on_dead);
  armed_ = true;
  dead_ = false;
  suspicious_ = false;
  quiet_count_ = 0;
  last_kick_ = eng_.now();
  last_seen_kick_ = eng_.now();
  schedule_check(sim::Engine::saturating_add(eng_.now(), dl_.quiet));
}

void Watchdog::skip(sim::SimDuration d) {
  if (!armed_) return;  // armed: the check in check_slot_ is pending
  // The event-exact run checks at every `quiet` in modeled time; after d
  // more modeled time, those checks sit at next_check_ - d + n * quiet on
  // the event clock.
  eng_.retract(check_slot_);
  sim::SimTime t = next_check_ - d % dl_.quiet;
  if (t <= eng_.now()) t += dl_.quiet;
  schedule_check(t);
}

void Watchdog::schedule_check(sim::SimTime t) {
  next_check_ = t;
  const std::uint64_t gen = ++generation_;
  check_slot_ = eng_.schedule_at(t, [this, gen] { check(gen); });
}

void Watchdog::check(std::uint64_t gen) {
  if (!armed_ || gen != generation_) return;  // stale timer after disarm
  const bool progressed = last_kick_ > last_seen_kick_;
  last_seen_kick_ = last_kick_;
  if (progressed) {
    if (suspicious_) {
      // The peer was slow, not dead: the suspicion was false. Count it so
      // operators can tell an over-tight `quiet` from real instability.
      ++false_suspicions_;
      if (on_false_suspect_) on_false_suspect_();
      obs_.report(eng_, kVerdict, verdict_, {.event = "false-suspect"});
    }
    suspicious_ = false;
    quiet_count_ = 0;
  } else {
    suspicious_ = true;
    ++suspicions_;
    ++quiet_count_;
    obs_.report(eng_, kVerdict, verdict_, {.event = "quiet-period"});
  }
  if (quiet_count_ >= dl_.max_quiet) {
    dead_ = true;
    armed_ = false;
    ++generation_;
    obs_.report(eng_, kVerdict, verdict_, {.event = "declared-dead"});
    if (on_dead_) on_dead_();
    return;
  }
  schedule_check(sim::Engine::saturating_add(eng_.now(), dl_.quiet));
}

}  // namespace e2e::fault
