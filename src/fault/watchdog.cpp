#include "fault/watchdog.hpp"

namespace e2e::fault {

namespace {

constexpr obs::Incident kVerdict{};  // instant named per verdict

}  // namespace

void Watchdog::arm(const Deadline& dl, std::function<void()> on_dead) {
  disarm();
  dl_ = dl;
  on_dead_ = std::move(on_dead);
  armed_ = true;
  dead_ = false;
  suspicious_ = false;
  quiet_count_ = 0;
  last_kick_ = eng_.now();
  last_seen_kick_ = eng_.now();
  schedule_check();
}

void Watchdog::schedule_check() {
  check_slot_ =
      eng_.schedule_at(sim::Engine::saturating_add(eng_.now(), dl_.quiet),
                       [this] { check(); });
}

void Watchdog::check() {
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
    obs_.report(eng_, kVerdict, verdict_, {.event = "declared-dead"});
    if (on_dead_) on_dead_();
    return;
  }
  schedule_check();
}

}  // namespace e2e::fault
