// Trace exporter: Chrome trace-event JSON.
//
// Formatting is fully deterministic: timestamps are printed as exact
// microsecond fixed-point derived from integer nanoseconds, doubles use
// "%.9g", and every collection is iterated in insertion order.
#include <cstdio>
#include <ostream>

#include "obs/json.hpp"
#include "trace/tracer.hpp"

namespace e2e::trace {

namespace {

using obs::put_double;
using obs::put_str;

/// Chrome trace timestamps are microseconds; print ns as exact fixed-point.
void put_us(std::ostream& os, sim::SimTime ns) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%llu.%03llu",
                static_cast<unsigned long long>(ns / 1000),
                static_cast<unsigned long long>(ns % 1000));
  os << buf;
}

}  // namespace

void Tracer::write_chrome_trace(std::ostream& os) const {
  os << "{\"traceEvents\":[\n";
  bool first = true;
  write_chrome_events(os, 0, first);
  os << "\n],\"displayTimeUnit\":\"ms\"}\n";
}

void Tracer::write_chrome_events(std::ostream& os, int pid_base,
                                 bool& first) const {
  auto sep = [&] {
    if (!first) os << ",\n";
    first = false;
  };

  // Process metadata: one Perfetto "process" per layer, plus the base pid
  // for the counter / sampler tracks.
  sep();
  os << "{\"ph\":\"M\",\"pid\":" << pid_base
     << ",\"name\":\"process_name\",\"args\":{\"name\":\"counters\"}}";
  for (int l = 0; l < obs::kLayerCount; ++l) {
    sep();
    os << "{\"ph\":\"M\",\"pid\":" << (pid_base + l + 1)
       << ",\"name\":\"process_name\",\"args\":{\"name\":";
    put_str(os, to_string(static_cast<obs::Layer>(l)));
    os << "}}";
  }
  // Thread metadata: one named thread per track, under its layer's pid.
  for (TrackId t = 0; t < tracks_.size(); ++t) {
    sep();
    os << "{\"ph\":\"M\",\"pid\":"
       << (pid_base + static_cast<int>(tracks_[t].layer) + 1)
       << ",\"tid\":" << (t + 1)
       << ",\"name\":\"thread_name\",\"args\":{\"name\":";
    put_str(os, tracks_[t].actor);
    os << "}}";
  }

  for (const Event& e : events_) {
    const int pid = pid_base + static_cast<int>(tracks_[e.track].layer) + 1;
    const unsigned tid = e.track + 1;
    sep();
    os << "{\"ph\":\"";
    switch (e.type) {
      case Event::Type::kComplete: os << 'X'; break;
      case Event::Type::kInstant: os << 'i'; break;
      case Event::Type::kAsyncBegin: os << 'b'; break;
      case Event::Type::kAsyncEnd: os << 'e'; break;
    }
    os << "\",\"pid\":" << pid << ",\"tid\":" << tid << ",\"ts\":";
    put_us(os, e.ts);
    if (e.type == Event::Type::kComplete) {
      os << ",\"dur\":";
      put_us(os, e.dur);
    }
    os << ",\"name\":";
    put_str(os, names_[e.name]);
    os << ",\"cat\":";
    put_str(os, to_string(tracks_[e.track].layer));
    if (e.type == Event::Type::kInstant) os << ",\"s\":\"t\"";
    if (e.type == Event::Type::kAsyncBegin ||
        e.type == Event::Type::kAsyncEnd) {
      // Scope the pairing id by track so block #7 of stream 0 never pairs
      // with block #7 of stream 1.
      char buf[40];
      std::snprintf(buf, sizeof buf, "\"0x%x:%llx\"", tid,
                    static_cast<unsigned long long>(e.id));
      os << ",\"id\":" << buf;
    }
    os << '}';
  }

  // Counter and utilization series as 'C' events under the base pid.
  for (const Sample& s : samples_) {
    sep();
    os << "{\"ph\":\"C\",\"pid\":" << pid_base << ",\"tid\":0,\"ts\":";
    put_us(os, s.ts);
    os << ",\"name\":";
    put_str(os, names_[s.series]);
    os << ",\"args\":{\"value\":";
    put_double(os, s.value);
    os << "}}";
  }
}

void write_merged_chrome_trace(std::ostream& os,
                               const std::vector<const Tracer*>& shards) {
  os << "{\"traceEvents\":[\n";
  bool first = true;
  for (std::size_t s = 0; s < shards.size(); ++s)
    shards[s]->write_chrome_events(
        os, static_cast<int>(s) * (obs::kLayerCount + 1), first);
  os << "\n],\"displayTimeUnit\":\"ms\"}\n";
}

}  // namespace e2e::trace
