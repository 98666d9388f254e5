#include "fault/injector.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace e2e::fault {

namespace {

// RTTs a blackholed message takes to surface a failed completion at the
// sender (models RC retransmission exhaustion).
constexpr int kBlackholeFailRtts = 4;

// Trace-only incidents; their instants are named at run time (the fault
// kind, or the cause of a dropped message).
constexpr obs::Incident kInjected{.trace_counter = "fault/injected"};
constexpr obs::Incident kCleared{};
constexpr obs::Incident kMessageFailed{.trace_counter = "fault/messages_failed"};

}  // namespace

FaultInjector::FaultInjector(sim::Engine& eng, FaultPlan plan)
    : eng_(eng), plan_(std::move(plan)) {}

FaultInjector::~FaultInjector() {
  for (auto& ls : links_)
    if (ls.link != nullptr && ls.link->fault_hook() == this)
      ls.link->set_fault_hook(nullptr);
}

void FaultInjector::attach(net::Link& link) {
  if (armed_) throw std::logic_error("attach after arm()");
  for (const auto& ls : links_)
    if (ls.link == &link)
      throw std::logic_error("link attached twice: " + link.name());
  LinkState ls;
  ls.link = &link;
  ls.obs = obs::Actor(obs::Layer::kFault, {"fault/" + link.name()}, {});
  links_.push_back(ls);
  link.set_fault_hook(this);
}

void FaultInjector::arm() {
  if (armed_) throw std::logic_error("FaultInjector armed twice");
  armed_ = true;
  for (std::size_t i = 0; i < plan_.events.size(); ++i) {
    const FaultEvent& ev = plan_.events[i];
    if (ev.type != FaultType::kQpKill && ev.type != FaultType::kCrash &&
        ev.link >= static_cast<int>(links_.size())) {
      ++skipped_events_;
      continue;
    }
    // Capture the index, not the event: FaultEvent outgrew the EventFn
    // inline buffer, and plan_.events is immutable once armed.
    eng_.schedule_at(ev.at, [this, i] { apply(plan_.events[i]); });
  }
}

// Emits the injection-time trace instant + counters for one plan event.
void FaultInjector::fire(LinkState& ls, const char* name) {
  ++faults_injected_;
  ls.obs.report(eng_, kInjected, ls.injected, {.event = name});
}

void FaultInjector::apply(const FaultEvent& ev) {
  if (ev.type == FaultType::kQpKill) {
    ++faults_injected_;
    plan_obs_.report(eng_, kInjected, plan_injected_, {.event = "qp-kill"});
    if (qp_kill_) qp_kill_(ev.qp);
    else ++skipped_events_;
    return;
  }
  if (ev.type == FaultType::kCrash) {
    ++faults_injected_;
    plan_obs_.report(eng_, kInjected, plan_injected_,
                     {.event = "host-crash"});
    if (crash_) crash_(ev.host, ev.down);
    else ++skipped_events_;
    return;
  }

  LinkState& ls = links_[static_cast<std::size_t>(ev.link)];
  switch (ev.type) {
    case FaultType::kLossBurst: {
      const int d = net::index(ev.dir);
      ls.pending_loss[d] += ev.count;
      const sim::SimDuration window =
          ev.duration > 0 ? ev.duration : kDefaultLossWindow;
      ls.loss_until[d] = std::max(ls.loss_until[d], eng_.now() + window);
      fire(ls, "loss-burst");
      break;
    }
    case FaultType::kLinkFlap: {
      ls.down = true;
      fire(ls, "link-down");
      eng_.schedule_after(ev.duration, [this, &ls] {
        ls.down = false;
        ls.obs.report(eng_, kCleared, ls.cleared, {.event = "link-up"});
      });
      break;
    }
    case FaultType::kLatencySpike: {
      ls.extra_latency += ev.extra_latency;
      const sim::SimDuration add = ev.extra_latency;
      fire(ls, "latency-spike");
      eng_.schedule_after(ev.duration, [this, &ls, add] {
        ls.extra_latency -= add;
        ls.obs.report(eng_, kCleared, ls.cleared,
                      {.event = "latency-normal"});
      });
      break;
    }
    case FaultType::kBlackhole: {
      const int d = net::index(ev.dir);
      ls.hole[d] = true;
      fire(ls, "blackhole");
      eng_.schedule_after(ev.duration, [this, &ls, d] {
        ls.hole[d] = false;
        ls.obs.report(eng_, kCleared, ls.cleared, {.event = "blackhole-end"});
      });
      break;
    }
    case FaultType::kQpKill:
    case FaultType::kCrash:
      break;  // handled above
  }
}

net::TxFate FaultInjector::on_transmit(net::Link& link, net::Direction d,
                                       double bytes) {
  (void)bytes;
  net::TxFate fate;
  LinkState* state = nullptr;
  for (auto& ls : links_)
    if (ls.link == &link) {
      state = &ls;
      break;
    }
  if (state == nullptr) return fate;  // not an attached link

  const int di = net::index(d);
  if (state->pending_loss[di] > 0 && eng_.now() >= state->loss_until[di])
    state->pending_loss[di] = 0;  // burst window over: leftover losses lapse
  const char* cause = nullptr;
  if (state->down) {
    fate.fail = true;
    cause = "drop:link-down";
  } else if (state->hole[di]) {
    // A blackholed message vanishes; the sender only learns after its
    // transport retries exhaust, so the failure surfaces late.
    fate.fail = true;
    fate.fail_delay = kBlackholeFailRtts * link.rtt();
    cause = "drop:blackhole";
  } else if (state->pending_loss[di] > 0) {
    --state->pending_loss[di];
    fate.fail = true;
    cause = "drop:loss";
  }
  fate.extra_latency = state->extra_latency;
  if (fate.fail) {
    ++messages_failed_;
    state->obs.report(eng_, kMessageFailed, state->failed, {.event = cause});
  }
  return fate;
}

}  // namespace e2e::fault
