#include "stats/registry.hpp"

#include <bit>
#include <cstdio>
#include <iostream>
#include <ostream>

namespace e2e::stats {

Registry::Registry(sim::Engine& eng, Config cfg)
    : eng_(eng), max_entities_(cfg.max_entities < 2 ? 2 : cfg.max_entities) {
  // Reserved overflow entity: everything past the cardinality cap
  // aggregates here instead of growing the tables.
  entities_.push_back(Entity{obs::Layer::kSim, "<overflow>"});
  flight_ring_.resize(std::bit_ceil(
      cfg.flight_capacity < 16 ? std::size_t{16} : cfg.flight_capacity));
  flight_mask_ = flight_ring_.size() - 1;
}

Registry::~Registry() { uninstall(); }

std::uint32_t Registry::intern(std::string_view s) {
  if (auto it = name_ids_.find(s); it != name_ids_.end()) return it->second;
  const auto id = static_cast<std::uint32_t>(names_.size());
  names_.emplace_back(s);
  name_ids_.emplace(names_.back(), id);
  return id;
}

EntityId Registry::entity(obs::Layer layer, std::string_view name) {
  std::string key;
  key.reserve(to_string(layer).size() + 1 + name.size());
  key.append(to_string(layer));
  key.push_back('/');
  key.append(name);
  if (auto it = entity_ids_.find(key); it != entity_ids_.end())
    return it->second;
  if (entities_.size() >= max_entities_) {
    ++dropped_entities_;
    return kOverflowEntity;
  }
  const auto id = static_cast<EntityId>(entities_.size());
  entities_.push_back(Entity{layer, std::string(name)});
  entity_ids_.emplace(std::move(key), id);
  return id;
}

EntityId Registry::mint_entity(obs::Layer layer, std::string_view base) {
  if (entities_.size() >= max_entities_) {
    ++dropped_entities_;
    return kOverflowEntity;
  }
  std::string key;
  key.reserve(to_string(layer).size() + 1 + base.size());
  key.append(to_string(layer));
  key.push_back('/');
  key.append(base);
  const int n = mint_counts_[key]++;
  std::string name(base);
  name.push_back('#');
  name.append(std::to_string(n));
  const auto id = static_cast<EntityId>(entities_.size());
  entities_.push_back(Entity{layer, std::move(name)});
  return id;
}

Counter& Registry::counter(EntityId entity, std::string_view name) {
  const std::uint32_t nid = intern(name);
  const std::uint64_t key = metric_key(entity, nid);
  if (auto it = counter_ids_.find(key); it != counter_ids_.end())
    return *it->second;
  counters_.push_back(Counter(entity, nid));
  Counter* c = &counters_.back();
  counter_ids_.emplace(key, c);
  return *c;
}

Gauge& Registry::gauge(EntityId entity, std::string_view name) {
  const std::uint32_t nid = intern(name);
  const std::uint64_t key = metric_key(entity, nid);
  if (auto it = gauge_ids_.find(key); it != gauge_ids_.end())
    return *it->second;
  gauges_.push_back(Gauge(entity, nid));
  Gauge* g = &gauges_.back();
  gauge_ids_.emplace(key, g);
  return *g;
}

Histogram& Registry::histogram(EntityId entity, std::string_view name) {
  const std::uint32_t nid = intern(name);
  const std::uint64_t key = metric_key(entity, nid);
  if (auto it = histogram_ids_.find(key); it != histogram_ids_.end())
    return *it->second;
  histograms_.emplace_back();
  Histogram* h = &histograms_.back();
  histogram_ids_.emplace(key, h);
  histogram_meta_.push_back({entity, nid});
  return *h;
}

std::uint64_t Registry::counter_value(EntityId entity,
                                      std::string_view name) const {
  const auto nit = name_ids_.find(name);
  if (nit == name_ids_.end()) return 0;
  const auto it = counter_ids_.find(metric_key(entity, nit->second));
  return it == counter_ids_.end() ? 0 : it->second->value();
}

const Histogram* Registry::find_histogram(EntityId entity,
                                          std::string_view name) const {
  const auto nit = name_ids_.find(name);
  if (nit == name_ids_.end()) return nullptr;
  const auto it = histogram_ids_.find(metric_key(entity, nit->second));
  return it == histogram_ids_.end() ? nullptr : it->second;
}

Histogram Registry::merged_histogram(std::string_view name) const {
  Histogram out;
  const auto nit = name_ids_.find(name);
  if (nit == name_ids_.end()) return out;
  for (std::size_t i = 0; i < histogram_meta_.size(); ++i)
    if (histogram_meta_[i].name == nit->second) out.merge(histograms_[i]);
  return out;
}

CodeId Registry::code(std::string_view name) {
  if (auto it = code_ids_.find(name); it != code_ids_.end()) return it->second;
  const auto id = static_cast<CodeId>(codes_.size());
  codes_.emplace_back(name);
  code_ids_.emplace(codes_.back(), id);
  return id;
}

void Registry::ff_snapshot(FfSnapshot& out) const {
  out.counters.clear();
  out.gauges.clear();
  out.hists.clear();
  out.counters.reserve(counters_.size());
  out.gauges.reserve(gauges_.size());
  out.hists.reserve(histograms_.size());
  for (const Counter& c : counters_) out.counters.push_back(c.value_);
  for (const Gauge& g : gauges_)
    out.gauges.push_back(FfGaugeState{g.last_, g.min_, g.max_, g.samples_});
  for (const Histogram& h : histograms_) out.hists.push_back(h);
}

namespace {
// Bitwise double compare: a gauge that re-recorded the same value must
// compare equal, and NaN payloads must not defeat the steady-state test.
bool same_bits(double a, double b) noexcept {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}
}  // namespace

bool Registry::ff_delta(const FfSnapshot& from, const FfSnapshot& to,
                        FfSnapshot& out) {
  if (from.counters.size() != to.counters.size() ||
      from.gauges.size() != to.gauges.size() ||
      from.hists.size() != to.hists.size())
    return false;  // a metric was minted inside the window
  out.counters.clear();
  out.gauges.clear();
  out.hists.clear();
  out.counters.reserve(to.counters.size());
  out.gauges.reserve(to.gauges.size());
  out.hists.reserve(to.hists.size());
  for (std::size_t i = 0; i < to.counters.size(); ++i)
    out.counters.push_back(to.counters[i] - from.counters[i]);
  for (std::size_t i = 0; i < to.gauges.size(); ++i) {
    const FfGaugeState& a = from.gauges[i];
    const FfGaugeState& b = to.gauges[i];
    if (!same_bits(a.last, b.last) || !same_bits(a.min, b.min) ||
        !same_bits(a.max, b.max))
      return false;  // last-value state moved: not a replayable delta
    out.gauges.push_back(
        FfGaugeState{b.last, b.min, b.max, b.samples - a.samples});
  }
  for (std::size_t i = 0; i < to.hists.size(); ++i) {
    Histogram d;
    if (!Histogram::delta(from.hists[i], to.hists[i], d)) return false;
    out.hists.push_back(d);
  }
  return true;
}

bool Registry::ff_equal(const FfSnapshot& a, const FfSnapshot& b) {
  if (a.counters != b.counters || a.gauges.size() != b.gauges.size() ||
      a.hists.size() != b.hists.size())
    return false;
  for (std::size_t i = 0; i < a.gauges.size(); ++i) {
    if (a.gauges[i].samples != b.gauges[i].samples ||
        !same_bits(a.gauges[i].last, b.gauges[i].last) ||
        !same_bits(a.gauges[i].min, b.gauges[i].min) ||
        !same_bits(a.gauges[i].max, b.gauges[i].max))
      return false;
  }
  for (std::size_t i = 0; i < a.hists.size(); ++i)
    if (!a.hists[i].identical(b.hists[i])) return false;
  return true;
}

void Registry::ff_apply(const FfSnapshot& d, std::uint64_t k) {
  // Metrics minted after the delta was captured (none in practice: the
  // collapse happens synchronously right after the C snapshot) keep their
  // values; the loops bound themselves by the delta's size.
  std::size_t i = 0;
  for (Counter& c : counters_) {
    if (i >= d.counters.size()) break;
    c.value_ += d.counters[i++] * k;
  }
  i = 0;
  for (Gauge& g : gauges_) {
    if (i >= d.gauges.size()) break;
    g.samples_ += d.gauges[i++].samples * k;
  }
  i = 0;
  for (Histogram& h : histograms_) {
    if (i >= d.hists.size()) break;
    h.add_scaled(d.hists[i++], k);
  }
}

void Registry::trigger_flight_dump(std::string_view reason) {
  if (flight_triggered_) return;
  flight_triggered_ = true;
  std::ostream& os = flight_stream_ ? *flight_stream_ : std::cerr;
  os << "--- flight recorder dump (reason: " << reason << ") ---\n";
  dump_flight(os);
  os << "--- end flight recorder dump ---\n";
}

void Registry::dump_flight(std::ostream& os) const {
  const std::uint64_t cap = flight_ring_.size();
  const std::uint64_t n = flight_head_ < cap ? flight_head_ : cap;
  const std::uint64_t start = flight_head_ - n;
  if (flight_head_ > n)
    os << "(" << flight_head_ - n << " older records overwritten)\n";
  for (std::uint64_t i = start; i < flight_head_; ++i) {
    const FlightRecord& r = flight_ring_[i & flight_mask_];
    char buf[64];
    std::snprintf(buf, sizeof buf, "[%14llu ns] %-5s ",
                  static_cast<unsigned long long>(r.t),
                  std::string(to_string(static_cast<obs::Layer>(r.layer))).c_str());
    os << buf << (r.entity < entities_.size() ? entities_[r.entity].name
                                              : std::string("?"))
       << ' ' << (r.code < codes_.size() ? codes_[r.code] : std::string("?"))
       << " arg=" << r.arg << '\n';
  }
}

}  // namespace e2e::stats
