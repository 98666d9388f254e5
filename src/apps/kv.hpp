// Zipfian key-value store over the small-message rpc tier.
//
// The workload half of the rpc layer's design space: GET/PUT over keys
// whose popularity follows a Zipf distribution, with values striped across
// per-NUMA-node shards on the server. Each shard owns three registered
// regions placed on its node — a 32-byte-per-key index, the value heap,
// and a staging buffer — plus a worker thread pinned to the same node, so
// a request for a NIC-remote shard pays the interconnect on exactly the
// legs a real NUMA-blind server would.
//
// GETs come in two flavours the scenario layer can switch between:
//
//  * Two-sided (rpc): the server looks the key up (kv_lookup_cycles),
//    copies the value into the shard's staging region (CPU + memory
//    channels) and SENDs it back. One round trip, server CPU per call.
//  * One-sided (READ): the client READs the 32-byte index entry, then the
//    value, straight from the shard regions. Two round trips, zero server
//    CPU (QueuePair::serve_read). The crossover between the two as the
//    value size grows is what `bench_figures rpc_crossover` reproduces.
//
// PUTs always travel the rpc path (one-sided writes would need the
// client to own allocation, which this store does not model).
#pragma once

#include <cstdint>
#include <vector>

#include "mem/buffer.hpp"
#include "numa/process.hpp"
#include "rdma/verbs.hpp"
#include "rpc/rpc.hpp"
#include "sim/rng.hpp"

namespace e2e::apps {

/// Wire bytes of the kv rpc header: a GET request and a PUT ack carry only
/// this; a GET reply and a PUT request add the value bytes.
inline constexpr std::uint64_t kKvHeaderBytes = 64;

/// Request/response header for the kv protocol. Shipped as the rpc
/// payload; the wire size is accounted separately (header + value bytes).
struct KvMsg {
  enum class Op : std::uint8_t { kGet, kPut };
  Op op = Op::kGet;
  std::uint64_t key = 0;
  std::uint64_t value_bytes = 0;  // PUT request / GET reply value size
  bool ok = false;                // reply: key resolved
};

/// Zipf(theta) sampler over ranks [0, n). The CDF table is built once at
/// construction (the only place libm's pow/accumulation order matters);
/// sampling is one canonical draw u and the first rank whose CDF is >= u,
/// so the per-sample path is allocation-free and bit-stable for a given
/// table. theta = 0 degenerates to uniform.
///
/// The search is guided: guide_[b] is the first rank whose CDF reaches
/// b / G (G a power of two, so b / G and u * G are exact), and u in
/// [b / G, (b + 1) / G) has its rank in [guide_[b], guide_[b + 1]] — a
/// binary search over a few adjacent entries instead of the whole table,
/// with the same rank as std::lower_bound over the whole table.
class Zipf {
 public:
  Zipf(std::uint64_t n, double theta);

  /// Popularity rank for one access; rank 0 is the hottest key.
  [[nodiscard]] std::uint64_t sample(sim::Rng& rng) const {
    return rank(rng.uniform(0.0, 1.0));
  }
  /// The first rank whose CDF is >= u, for u in [0, 1).
  [[nodiscard]] std::uint64_t rank(double u) const noexcept;

 private:
  std::vector<double> cdf_;
  std::vector<std::uint32_t> guide_;  // G + 1 entries
};

/// Server-side store: keys striped across shards (`key % shards`), shard s
/// homed on NUMA node `s % nodes`. Keys interleave across shards so the
/// Zipf head spreads over every node instead of piling onto node 0.
class KvStore {
 public:
  /// Per-key index entry footprint (what a one-sided GET reads first).
  static constexpr std::uint64_t kIndexEntryBytes = 32;

  struct Shard {
    mem::Buffer index;    // keys_in_shard * kIndexEntryBytes
    mem::Buffer values;   // keys_in_shard * value_bytes
    mem::Buffer staging;  // value_bytes, rpc GET response DMA source
    numa::Thread* worker = nullptr;  // pinned to the shard's node
  };

  KvStore(numa::Process& proc, std::uint64_t keys, std::uint64_t value_bytes,
          int shards);

  /// Registers every shard region (charged to `th`, like any ibv_reg_mr).
  sim::Task<> register_all(rdma::ProtectionDomain& pd, numa::Thread& th);

  [[nodiscard]] int shard_of(std::uint64_t key) const noexcept {
    return static_cast<int>(key % static_cast<std::uint64_t>(shards_.size()));
  }
  [[nodiscard]] Shard& shard(int s) noexcept {
    return shards_[static_cast<std::size_t>(s)];
  }
  [[nodiscard]] std::uint64_t value_bytes() const noexcept {
    return value_bytes_;
  }

 private:
  std::uint64_t keys_;
  std::uint64_t value_bytes_;
  std::vector<Shard> shards_;
};

/// rpc handler serving GET/PUT against a KvStore. `request_region` is the
/// server's receive-ring region — the place PUT values land before the
/// handler copies them into the owning shard.
class KvHandler final : public rpc::RpcServer::Handler {
 public:
  KvHandler(KvStore& store, mem::Buffer& request_region)
      : store_(store), request_region_(request_region) {}

  sim::Task<rpc::RpcServer::Reply> handle(
      const rpc::RpcServer::Request& req) override;

  [[nodiscard]] std::uint64_t gets() const noexcept { return gets_; }
  [[nodiscard]] std::uint64_t puts() const noexcept { return puts_; }

 private:
  KvStore& store_;
  mem::Buffer& request_region_;
  std::uint64_t gets_ = 0;
  std::uint64_t puts_ = 0;
};

}  // namespace e2e::apps
