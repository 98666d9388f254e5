// Shared pieces of the benchmark driver: one repetition's options, the
// host clocks, the allocation counter, the in-memory span log and a JSON
// line writer. Each driver invocation runs one repetition of one workload
// and prints one JSON object on stdout; run.py turns those into metrics.
#pragma once

#include <cstdint>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

struct Options {
  std::string workload;      // kv-rpc | kv-read | e2e-san | wan-ff
  std::uint64_t seed = 1;    // kv workload rng; bulk workloads draw nothing
  bool tiny = false;         // self-test sizes
  int size_div = 1;          // 2 = half-size leg of the allocation delta
  bool stats = true;         // stats::Registry installed
  bool audit = false;        // check::Auditor installed
  bool tracer = false;       // trace::Tracer installed (bulk only)
  bool count_allocs = false;
};

/// Host seconds since process start (steady clock).
double now_s();
/// User + system CPU seconds of the whole process (all threads), and the
/// system part alone.
double cpu_s();
double sys_s();
/// The same for the calling thread alone.
double thread_cpu_s();
double thread_sys_s();

/// operator new calls since counting was enabled (main.cpp replaces the
/// global operator new; counting is off unless Options::count_allocs).
void set_alloc_counting(bool on);
std::uint64_t allocs();

/// Spans recorded in memory around the driver's calls into the layers.
/// They are also the repetition's phase timers (a few clock reads per
/// repetition). Written out with the repetition's JSON; run.py derives
/// self time.
class SpanLog {
 public:
  int open(std::string_view name);
  void close(int id);
  /// A child whose duration the callee measured (no start of its own):
  /// recorded as ending when its parent's call returned.
  void add_measured(int parent, std::string_view name, double seconds);
  [[nodiscard]] double seconds(int id) const;
  [[nodiscard]] std::string json() const;

 private:
  struct Span {
    std::string name;
    int parent;
    double t0, t1;
  };
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

/// RAII span: open on construction, close on destruction.
class Scope {
 public:
  Scope(SpanLog& log, std::string_view name) : log_(log), id_(log.open(name)) {}
  ~Scope() { log_.close(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  SpanLog& log_;
  int id_;
};

/// One flat JSON object, fields in insertion order.
class JsonLine {
 public:
  JsonLine& num(std::string_view key, double v);
  JsonLine& u64(std::string_view key, std::uint64_t v);
  JsonLine& boolean(std::string_view key, bool v);
  JsonLine& str(std::string_view key, std::string_view v);
  /// `json` must already be valid JSON text.
  JsonLine& raw(std::string_view key, std::string_view json);
  void print() const;

 private:
  void key(std::string_view k);
  std::ostringstream os_;
  bool first_ = true;
};

/// Provenance fields every repetition carries (build type, flags,
/// compiler).
void add_build_info(JsonLine& j);

int run_bulk(const Options& o);
int run_kv(const Options& o);

}  // namespace perfbench
