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

auto Registry::ff_fields() {
  return [this](auto&& word, auto&& pin) {
    for (Counter& c : counters_) word(c.value_);
    for (Gauge& g : gauges_) {
      word(g.samples_);
      pin(std::bit_cast<std::uint64_t>(g.last_));
      pin(std::bit_cast<std::uint64_t>(g.min_));
      pin(std::bit_cast<std::uint64_t>(g.max_));
    }
    for (Histogram& h : histograms_) h.ff_fields(word, pin);
  };
}

void Registry::ff_mark() { ff_.mark(ff_fields()); }

void Registry::ff_advance(std::uint64_t k) { ff_.advance(k, ff_fields()); }

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
