#include "trace/tracer.hpp"

#include <string>
#include <utility>

#include "sim/resource.hpp"

namespace e2e::trace {

NameId Tracer::intern(std::string_view s) {
  auto it = name_ids_.find(s);
  if (it != name_ids_.end()) return it->second;
  const NameId id = static_cast<NameId>(names_.size());
  names_.emplace_back(s);
  name_ids_.emplace(names_.back(), id);
  return id;
}

TrackId Tracer::track(obs::Layer layer, std::string_view actor) {
  std::string key = std::string(to_string(layer)) + "/" + std::string(actor);
  auto it = track_ids_.find(key);
  if (it != track_ids_.end()) return it->second;
  const TrackId id = static_cast<TrackId>(tracks_.size());
  tracks_.push_back(Track{layer, std::string(actor)});
  track_ids_.emplace(std::move(key), id);
  return id;
}

TrackId Tracer::mint_track(obs::Layer layer, std::string_view base) {
  std::string key = std::string(to_string(layer)) + "/" + std::string(base);
  const int n = mint_counts_[key]++;
  return track(layer, std::string(base) + "#" + std::to_string(n));
}

void Tracer::complete(TrackId t, NameId name, sim::SimTime start) {
  const sim::SimTime now = eng_.now();
  const sim::SimTime s = start > now ? now : start;
  push({Event::Type::kComplete, t, name, s, now - s, 0});
}

void Tracer::instant(TrackId t, NameId name) {
  push({Event::Type::kInstant, t, name, eng_.now(), 0, 0});
}

void Tracer::async_begin(TrackId t, std::string_view name, std::uint64_t id) {
  push({Event::Type::kAsyncBegin, t, intern(name), eng_.now(), 0, id});
}

void Tracer::async_end(TrackId t, std::string_view name, std::uint64_t id) {
  push({Event::Type::kAsyncEnd, t, intern(name), eng_.now(), 0, id});
}

Counter& Tracer::counter(std::string_view name) {
  auto it = counter_ids_.find(name);
  if (it != counter_ids_.end()) return counters_[it->second];
  counters_.push_back(Counter{std::string(name)});
  counter_ids_.emplace(std::string(name), counters_.size() - 1);
  return counters_.back();
}

std::uint64_t Tracer::counter_value(std::string_view name) const {
  auto it = counter_ids_.find(name);
  return it == counter_ids_.end() ? 0 : counters_[it->second].value();
}

void Tracer::on_resource_service(const sim::Resource& r, sim::SimTime start,
                                 sim::SimTime end, double units) {
  if (end <= start) return;
  auto it = res_tracks_.find(&r);
  TrackId t;
  if (it != res_tracks_.end()) {
    t = it->second;
  } else {
    std::string actor =
        r.name().empty()
            ? "res#" + std::to_string(res_tracks_.size())
            : r.name();
    t = track(obs::Layer::kSim, actor);
    res_tracks_.emplace(&r, t);
  }
  (void)units;
  // Service windows are FIFO (start >= previous end), so complete spans on
  // one resource track never overlap.
  push({Event::Type::kComplete, t, intern("service"), start, end - start, 0});
}

void Tracer::on_sample(sim::SimTime at) {
  std::size_t idx = 0;
  for (const sim::Resource* r : eng_.resources()) {
    ResourceState& st = res_state_[r];
    if (!st.named) {
      const std::string nm =
          r->name().empty() ? "util/res#" + std::to_string(idx)
                            : "util/" + r->name();
      st.series = intern(nm);
      st.named = true;
    }
    const double busy = static_cast<double>(r->busy_time());
    // Utilization over the last period. busy_time() books service ahead of
    // the clock, so a deep backlog can push a tick above 1.0 — that spike
    // is the signal that the resource is the bottleneck.
    const double util =
        sampler_period_ > 0
            ? (busy - st.last_busy_ns) / static_cast<double>(sampler_period_)
            : r->utilization();
    st.last_busy_ns = busy;
    samples_.push_back({st.series, at, util});
    ++idx;
  }
  for (const Counter& c : counters_)
    samples_.push_back({intern(c.name()), at, static_cast<double>(c.value())});
}

}  // namespace e2e::trace
