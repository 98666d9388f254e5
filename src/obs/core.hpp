// e2e::obs — the vocabulary the trace and stats sinks share.
//
// Both sinks key what they record by the stack layer it belongs to, both
// probe string-keyed tables with string_views, and every instrumented site
// caches the handles it resolves against whichever tracer or registry is
// installed. Those three pieces live here, once, so trace/ and stats/ stay
// independent of each other while agreeing on layer names and on the
// cached-handle idiom.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>

namespace e2e::obs {

/// Which layer of the stack an event or metric belongs to. The tracer
/// renders one Perfetto process per layer and stats exports group by it,
/// so both slice the system the way the paper's figures do.
enum class Layer : std::uint8_t {
  kSim,    // engine resources (links, cores, memory channels, QPI, PCIe)
  kRdma,   // verbs queue pairs
  kTcp,    // TCP/IP connections
  kIscsi,  // iSCSI session layer
  kIser,   // iSER datamover
  kRftp,   // RFTP transfer protocol
  kBlk,    // block / filesystem
  kApp,    // applications and drivers
  kFault,  // fault injection (chaos plans, injected faults, recoveries)
};
inline constexpr int kLayerCount = 9;

constexpr std::string_view to_string(Layer l) noexcept {
  switch (l) {
    case Layer::kSim: return "sim";
    case Layer::kRdma: return "rdma";
    case Layer::kTcp: return "tcp";
    case Layer::kIscsi: return "iscsi";
    case Layer::kIser: return "iser";
    case Layer::kRftp: return "rftp";
    case Layer::kBlk: return "blk";
    case Layer::kApp: return "app";
    case Layer::kFault: return "fault";
  }
  return "?";
}

/// Transparent hasher: string-keyed maps probed with a string_view build
/// no temporary std::string per lookup.
struct StringHash {
  using is_transparent = void;
  std::size_t operator()(std::string_view s) const noexcept {
    return std::hash<std::string_view>{}(s);
  }
  std::size_t operator()(const std::string& s) const noexcept {
    return std::hash<std::string_view>{}(s);
  }
};

/// A handle resolved against one sink instance (a tracer or a registry)
/// and reused until a different one is installed: steady state is one
/// pointer compare. `resolve` runs only on the first use per sink, so
/// name strings are built and hashed once. Give each (site, object) its
/// own instance.
template <typename Sink, typename T>
class Cached {
 public:
  template <typename Resolve>
  T get(const Sink* sink, Resolve&& resolve) {
    if (owner_ != sink) {
      value_ = resolve();
      owner_ = sink;
    }
    return value_;
  }

 private:
  const Sink* owner_ = nullptr;
  T value_{};
};

}  // namespace e2e::obs
