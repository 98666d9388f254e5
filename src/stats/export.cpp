// Stats exporters: JSON report ("e2e-stats-v1") and flat CSV.
//
// Same determinism contract as trace/export.cpp: doubles print as "%.9g",
// integers as integers, and every collection iterates in creation order,
// so same-seed runs emit byte-identical files.
#include <ostream>

#include "obs/json.hpp"
#include "stats/registry.hpp"

namespace e2e::stats {

namespace {

using obs::put_double;
using obs::put_str;

void put_hist_summary(std::ostream& os, const Histogram& h) {
  os << "\"count\": " << h.count() << ", \"min\": " << h.min()
     << ", \"max\": " << h.max() << ", \"mean\": ";
  put_double(os, h.mean());
  os << ", \"p50\": " << h.p50() << ", \"p90\": " << h.p90()
     << ", \"p99\": " << h.p99() << ", \"p999\": " << h.p999();
}

void put_hist_buckets(std::ostream& os, const Histogram& h) {
  // Full bucket dump, sparse: only occupied slots, as [lower, upper, count]
  // (upper exclusive). Enough to reconstruct or re-merge the histogram.
  os << "[";
  bool first = true;
  for (std::size_t i = 0; i < Histogram::kSlots; ++i) {
    const std::uint64_t c = h.bucket_count(i);
    if (c == 0) continue;
    os << (first ? "" : ", ") << "[" << Histogram::bucket_lower(i) << ", "
       << Histogram::bucket_upper(i) << ", " << c << "]";
    first = false;
  }
  os << "]";
}

}  // namespace

void Registry::write_json(std::ostream& os) const {
  os << "{\n  \"schema\": \"e2e-stats-v1\",\n";
  os << "  \"sim_time_ns\": " << eng_.virtual_now() << ",\n";
  os << "  \"entities\": " << entities_.size() << ",\n";
  os << "  \"dropped_entities\": " << dropped_entities_ << ",\n";
  os << "  \"flight_records\": " << flight_head_ << ",\n";

  os << "  \"counters\": [";
  for (std::size_t i = 0; i < counters_.size(); ++i) {
    const Counter& c = counters_[i];
    os << (i ? ",\n" : "\n") << "    {\"layer\": ";
    put_str(os, to_string(entities_[c.entity_].layer));
    os << ", \"entity\": ";
    put_str(os, entities_[c.entity_].name);
    os << ", \"name\": ";
    put_str(os, names_[c.name_]);
    os << ", \"value\": " << c.value_ << "}";
  }
  os << (counters_.empty() ? "" : "\n  ") << "],\n";

  os << "  \"gauges\": [";
  for (std::size_t i = 0; i < gauges_.size(); ++i) {
    const Gauge& g = gauges_[i];
    os << (i ? ",\n" : "\n") << "    {\"layer\": ";
    put_str(os, to_string(entities_[g.entity_].layer));
    os << ", \"entity\": ";
    put_str(os, entities_[g.entity_].name);
    os << ", \"name\": ";
    put_str(os, names_[g.name_]);
    os << ", \"last\": ";
    put_double(os, g.last_);
    os << ", \"min\": ";
    put_double(os, g.min_);
    os << ", \"max\": ";
    put_double(os, g.max_);
    os << ", \"samples\": " << g.samples_ << "}";
  }
  os << (gauges_.empty() ? "" : "\n  ") << "],\n";

  os << "  \"histograms\": [";
  for (std::size_t i = 0; i < histograms_.size(); ++i) {
    const HistMeta& m = histogram_meta_[i];
    os << (i ? ",\n" : "\n") << "    {\"layer\": ";
    put_str(os, to_string(entities_[m.entity].layer));
    os << ", \"entity\": ";
    put_str(os, entities_[m.entity].name);
    os << ", \"name\": ";
    put_str(os, names_[m.name]);
    os << ", ";
    put_hist_summary(os, histograms_[i]);
    os << ", \"buckets\": ";
    put_hist_buckets(os, histograms_[i]);
    os << "}";
  }
  os << (histograms_.empty() ? "" : "\n  ") << "]\n}\n";
}

void Registry::write_merged_json(std::ostream& os,
                                 const std::vector<const Registry*>& shards) {
  os << "{\n\"schema\": \"e2e-stats-cluster-v1\",\n";
  os << "\"shard_count\": " << shards.size() << ",\n";
  os << "\"shards\": [";
  for (std::size_t i = 0; i < shards.size(); ++i) {
    os << (i ? ",\n" : "\n");
    shards[i]->write_json(os);
  }
  os << (shards.empty() ? "" : "\n") << "]\n}\n";
}

void Registry::write_csv(std::ostream& os) const {
  os << "metric,value\n";
  os << "sim_time_ns," << eng_.virtual_now() << "\n";
  os << "entities," << entities_.size() << "\n";
  os << "dropped_entities," << dropped_entities_ << "\n";
  for (const Counter& c : counters_)
    os << "counter." << entities_[c.entity_].name << "." << names_[c.name_]
       << "," << c.value_ << "\n";
  for (const Gauge& g : gauges_) {
    const std::string base =
        "gauge." + entities_[g.entity_].name + "." + names_[g.name_];
    os << base << ".last,";
    put_double(os, g.last_);
    os << "\n" << base << ".min,";
    put_double(os, g.min_);
    os << "\n" << base << ".max,";
    put_double(os, g.max_);
    os << "\n";
  }
  for (std::size_t i = 0; i < histograms_.size(); ++i) {
    const HistMeta& m = histogram_meta_[i];
    const Histogram& h = histograms_[i];
    const std::string base =
        "hist." + entities_[m.entity].name + "." + names_[m.name];
    os << base << ".count," << h.count() << "\n";
    os << base << ".min," << h.min() << "\n";
    os << base << ".max," << h.max() << "\n";
    os << base << ".mean,";
    put_double(os, h.mean());
    os << "\n";
    os << base << ".p50," << h.p50() << "\n";
    os << base << ".p90," << h.p90() << "\n";
    os << base << ".p99," << h.p99() << "\n";
    os << base << ".p999," << h.p999() << "\n";
  }
}

}  // namespace e2e::stats
