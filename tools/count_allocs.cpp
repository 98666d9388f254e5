// LD_PRELOAD malloc counter: counts heap allocation calls (malloc, calloc,
// realloc, aligned variants, C++ operator new via malloc) made by the host
// process and writes the total to the file named by $COUNT_ALLOCS_OUT on
// exit (stderr when unset).
//
//   COUNT_ALLOCS_OUT=/tmp/n LD_PRELOAD=./libcount_allocs.so ./e2e_transfer_sim e2e --gib 1
//
// The perf regression test (ctest -L perf) runs two transfer sizes and
// pins the steady-state allocation delta per simulated GiB — the guard
// that keeps the protocol hot path allocation-free. Not built in
// sanitizer configurations (sanitizers own the allocator).
//
// With $COUNT_ALLOCS_HWM_OUT set it also writes the process's peak
// resident set (VmHWM from /proc/self/status, KiB) to that file on exit.
// VmHWM resets on exec, so unlike a parent's wait4 ru_maxrss it is the
// host process's own peak (the peak-RSS test in ctest -L perf).
//
// dlsym(RTLD_NEXT, "calloc") itself calls calloc on glibc, so the resolver
// serves that recursion from a small static arena.

#include <dlfcn.h>
#include <fcntl.h>
#include <unistd.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace {

std::atomic<std::uint64_t> g_allocs{0};

using MallocFn = void* (*)(std::size_t);
using CallocFn = void* (*)(std::size_t, std::size_t);
using ReallocFn = void* (*)(void*, std::size_t);
using FreeFn = void (*)(void*);
using AlignedFn = void* (*)(std::size_t, std::size_t);

// Bootstrap arena for allocations issued while dlsym resolves the real
// functions (glibc's dlsym calloc's). Never freed; tiny and process-lived.
alignas(std::max_align_t) char g_boot[4096];
std::size_t g_boot_used = 0;

bool from_boot(const void* p) {
  return p >= static_cast<const void*>(g_boot) &&
         p < static_cast<const void*>(g_boot + sizeof(g_boot));
}

void* boot_alloc(std::size_t n) {
  n = (n + alignof(std::max_align_t) - 1) & ~(alignof(std::max_align_t) - 1);
  if (g_boot_used + n > sizeof(g_boot)) abort();
  void* p = g_boot + g_boot_used;
  g_boot_used += n;
  return p;
}

bool g_resolving = false;

template <typename Fn>
Fn resolve(const char* name) {
  g_resolving = true;
  Fn fn = reinterpret_cast<Fn>(dlsym(RTLD_NEXT, name));
  g_resolving = false;
  if (fn == nullptr) abort();
  return fn;
}

// Writes the "VmHWM:" value of /proc/self/status to `path`. Plain
// syscalls and a static buffer: nothing here allocates.
void write_hwm(const char* path) {
  static char status[8192];
  const int in = open("/proc/self/status", O_RDONLY);
  if (in < 0) return;
  const ssize_t n = read(in, status, sizeof(status) - 1);
  close(in);
  if (n <= 0) return;
  status[n] = '\0';
  const char* p = std::strstr(status, "VmHWM:");
  if (p == nullptr) return;
  p += 6;
  while (*p == ' ' || *p == '\t') ++p;
  const char* end = p;
  while (*end >= '0' && *end <= '9') ++end;
  const int out = open(path, O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (out < 0) return;
  const auto len = static_cast<std::size_t>(end - p);
  [[maybe_unused]] const auto rc1 = write(out, p, len);
  [[maybe_unused]] const auto rc2 = write(out, "\n", 1);
  close(out);
}

struct Report {
  ~Report() {
    if (const char* hwm = std::getenv("COUNT_ALLOCS_HWM_OUT")) write_hwm(hwm);
    const std::uint64_t n = g_allocs.load(std::memory_order_relaxed);
    char buf[32];
    const int len = std::snprintf(buf, sizeof(buf), "%llu\n",
                                  static_cast<unsigned long long>(n));
    const char* path = std::getenv("COUNT_ALLOCS_OUT");
    if (path != nullptr) {
      if (std::FILE* f = std::fopen(path, "w")) {
        std::fwrite(buf, 1, static_cast<std::size_t>(len), f);
        std::fclose(f);
        return;
      }
    }
    // fwrite on stderr may allocate; write(2) does not.
    [[maybe_unused]] const auto rc = write(2, buf, static_cast<std::size_t>(len));
  }
};
Report g_report;

}  // namespace

extern "C" {

void* malloc(std::size_t n) {
  static MallocFn real = nullptr;
  if (real == nullptr) {
    if (g_resolving) return boot_alloc(n);
    real = resolve<MallocFn>("malloc");
  }
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  return real(n);
}

void* calloc(std::size_t n, std::size_t sz) {
  static CallocFn real = nullptr;
  if (real == nullptr) {
    if (g_resolving) return std::memset(boot_alloc(n * sz), 0, n * sz);
    real = resolve<CallocFn>("calloc");
  }
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  return real(n, sz);
}

void* realloc(void* p, std::size_t n) {
  static ReallocFn real = nullptr;
  if (real == nullptr) real = resolve<ReallocFn>("realloc");
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (from_boot(p)) {  // migrate a bootstrap block to the real heap
    void* q = malloc(n);
    if (q != nullptr) std::memcpy(q, p, n);
    return q;
  }
  return real(p, n);
}

void free(void* p) {
  static FreeFn real = nullptr;
  if (p == nullptr || from_boot(p)) return;
  if (real == nullptr) real = resolve<FreeFn>("free");
  real(p);
}

void* aligned_alloc(std::size_t align, std::size_t n) {
  static AlignedFn real = nullptr;
  if (real == nullptr) real = resolve<AlignedFn>("aligned_alloc");
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  return real(align, n);
}

void* memalign(std::size_t align, std::size_t n) {
  static AlignedFn real = nullptr;
  if (real == nullptr) real = resolve<AlignedFn>("memalign");
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  return real(align, n);
}

}  // extern "C"
