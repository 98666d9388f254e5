// perfbench driver: runs one repetition of one benchmark workload and
// prints it as one JSON object on stdout.
//
//   perfbench --workload e2e-san [--seed N] [--tiny 1] [--size-div 2]
//             [--stats 0|1] [--audit 0|1] [--tracer 0|1]
//             [--count-allocs 0|1]
//
// run.py calls it once per repetition, so each repetition's peak RSS is its
// own process's.
#include <sys/resource.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <new>
#include <stdexcept>

#include "common.hpp"

namespace {
std::atomic<bool> g_counting{false};
std::atomic<std::uint64_t> g_allocs{0};
const auto g_epoch = std::chrono::steady_clock::now();

double tv_s(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) +
         static_cast<double>(tv.tv_usec) * 1e-6;
}
}  // namespace

// Counting replacement of the global allocation function: one relaxed load
// when counting is off. Array and nothrow forms forward here; the aligned
// forms are not counted.
void* operator new(std::size_t n) {
  if (g_counting.load(std::memory_order_relaxed))
    g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n != 0 ? n : 1)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace perfbench {

double now_s() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       g_epoch)
      .count();
}

double cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return tv_s(ru.ru_utime) + tv_s(ru.ru_stime);
}

double sys_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return tv_s(ru.ru_stime);
}

double thread_cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_THREAD, &ru);
  return tv_s(ru.ru_utime) + tv_s(ru.ru_stime);
}

double thread_sys_s() {
  rusage ru{};
  getrusage(RUSAGE_THREAD, &ru);
  return tv_s(ru.ru_stime);
}

void set_alloc_counting(bool on) {
  g_counting.store(on, std::memory_order_relaxed);
}
std::uint64_t allocs() { return g_allocs.load(std::memory_order_relaxed); }

int SpanLog::open(std::string_view name) {
  const int parent = stack_.empty() ? -1 : stack_.back();
  spans_.push_back({std::string(name), parent, now_s(), 0.0});
  stack_.push_back(static_cast<int>(spans_.size()) - 1);
  return stack_.back();
}

void SpanLog::close(int id) {
  spans_[static_cast<std::size_t>(id)].t1 = now_s();
  stack_.pop_back();
}

void SpanLog::add_measured(int parent, std::string_view name,
                           double seconds) {
  const double end = spans_[static_cast<std::size_t>(parent)].t1;
  spans_.push_back({std::string(name), parent, end - seconds, end});
}

double SpanLog::seconds(int id) const {
  const Span& s = spans_[static_cast<std::size_t>(id)];
  return s.t1 - s.t0;
}

std::string SpanLog::json() const {
  std::ostringstream os;
  os << "[";
  char buf[64];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    os << (i ? "," : "") << "{\"name\":\"" << s.name
       << "\",\"parent\":" << s.parent;
    std::snprintf(buf, sizeof buf, ",\"t0\":%.9f,\"t1\":%.9f}", s.t0, s.t1);
    os << buf;
  }
  os << "]";
  return os.str();
}

void JsonLine::key(std::string_view k) {
  os_ << (first_ ? "{" : ",") << '"' << k << "\":";
  first_ = false;
}

JsonLine& JsonLine::num(std::string_view k, double v) {
  key(k);
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  os_ << buf;
  return *this;
}

JsonLine& JsonLine::u64(std::string_view k, std::uint64_t v) {
  key(k);
  os_ << v;
  return *this;
}

JsonLine& JsonLine::boolean(std::string_view k, bool v) {
  key(k);
  os_ << (v ? "true" : "false");
  return *this;
}

JsonLine& JsonLine::str(std::string_view k, std::string_view v) {
  key(k);
  os_ << '"';
  for (char c : v) {
    if (c == '"' || c == '\\') os_ << '\\';
    os_ << c;
  }
  os_ << '"';
  return *this;
}

JsonLine& JsonLine::raw(std::string_view k, std::string_view json) {
  key(k);
  for (char c : json)
    if (c != '\n') os_ << c;
  return *this;
}

void JsonLine::print() const {
  std::printf("%s}\n", os_.str().c_str());
  std::fflush(stdout);
}

void add_build_info(JsonLine& j) {
  j.str("build_type", PERFBENCH_BUILD_TYPE)
      .str("core_flags", PERFBENCH_CORE_FLAGS)
      .str("compiler", PERFBENCH_COMPILER);
}

}  // namespace perfbench

namespace {

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "kv-rpc|kv-read|e2e-san|wan-ff [--seed N] [--tiny 0|1] "
               "[--size-div 1|2] [--stats 0|1] [--audit 0|1] [--tracer 0|1] "
               "[--count-allocs 0|1]\n",
               why);
  std::exit(2);
}

bool flag01(const char* v) {
  if (!std::strcmp(v, "0")) return false;
  if (!std::strcmp(v, "1")) return true;
  usage("flag values are 0 or 1");
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options o;
  for (int i = 1; i < argc; ++i) {
    if (i + 1 >= argc) usage("missing flag value");
    const char* k = argv[i];
    const char* v = argv[++i];
    if (!std::strcmp(k, "--workload")) {
      o.workload = v;
    } else if (!std::strcmp(k, "--seed")) {
      char* end = nullptr;
      o.seed = std::strtoull(v, &end, 10);
      if (*v == '\0' || *end != '\0') usage("bad --seed");
    } else if (!std::strcmp(k, "--size-div")) {
      o.size_div = std::atoi(v);
      if (o.size_div != 1 && o.size_div != 2) usage("bad --size-div");
    } else if (!std::strcmp(k, "--tiny")) {
      o.tiny = flag01(v);
    } else if (!std::strcmp(k, "--stats")) {
      o.stats = flag01(v);
    } else if (!std::strcmp(k, "--audit")) {
      o.audit = flag01(v);
    } else if (!std::strcmp(k, "--tracer")) {
      o.tracer = flag01(v);
    } else if (!std::strcmp(k, "--count-allocs")) {
      o.count_allocs = flag01(v);
    } else {
      usage("unknown flag");
    }
  }
  try {
    if (o.workload == "kv-rpc" || o.workload == "kv-read")
      return perfbench::run_kv(o);
    if (o.workload == "e2e-san" || o.workload == "wan-ff")
      return perfbench::run_bulk(o);
  } catch (const std::exception& ex) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", o.workload.c_str(),
                 ex.what());
    return 1;
  }
  usage("unknown workload");
}
