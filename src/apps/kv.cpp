#include "apps/kv.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace e2e::apps {

Zipf::Zipf(std::uint64_t n, double theta) {
  if (n == 0) throw std::invalid_argument("kv: zipf over zero keys");
  if (n > std::numeric_limits<std::uint32_t>::max())
    throw std::invalid_argument("kv: zipf over more than 2^32 - 1 keys");
  if (theta < 0.0) throw std::invalid_argument("kv: zipf theta must be >= 0");
  cdf_.resize(n);
  double acc = 0.0;
  for (std::uint64_t i = 0; i < n; ++i) {
    acc += 1.0 / std::pow(static_cast<double>(i + 1), theta);
    cdf_[i] = acc;
  }
  for (double& c : cdf_) c /= acc;
  cdf_.back() = 1.0;  // guard against the division landing a hair under
  // One guide entry per rank, rounded up to a power of two: the tail's
  // buckets then span a handful of ranks each.
  std::size_t g = 1;
  while (g < n) g *= 2;
  guide_.resize(g + 1);
  std::uint32_t r = 0;
  for (std::size_t b = 0; b <= g; ++b) {
    const double lo = static_cast<double>(b) / static_cast<double>(g);
    while (cdf_[r] < lo) ++r;  // cdf_.back() == 1.0 >= lo stops it
    guide_[b] = r;
  }
}

std::uint64_t Zipf::rank(double u) const noexcept {
  const std::size_t g = guide_.size() - 1;
  const auto b = static_cast<std::size_t>(u * static_cast<double>(g));
  // guide_[g] <= n - 1 (cdf_.back() == 1.0), so the rank is always valid.
  const auto first = cdf_.begin() + guide_[b];
  const auto last = cdf_.begin() + guide_[b + 1];
  return static_cast<std::uint64_t>(std::lower_bound(first, last, u) -
                                    cdf_.begin());
}

KvStore::KvStore(numa::Process& proc, std::uint64_t keys,
                 std::uint64_t value_bytes, int shards)
    : keys_(keys), value_bytes_(value_bytes) {
  if (keys == 0) throw std::invalid_argument("kv: keys must be >= 1");
  if (value_bytes == 0)
    throw std::invalid_argument("kv: value_bytes must be >= 1");
  if (shards < 1 || static_cast<std::uint64_t>(shards) > keys)
    throw std::invalid_argument("kv: shards must be in [1, keys]");
  const int nodes = proc.host().node_count();
  shards_.reserve(static_cast<std::size_t>(shards));
  for (int s = 0; s < shards; ++s) {
    const auto node = static_cast<numa::NodeId>(s % nodes);
    const std::uint64_t u = static_cast<std::uint64_t>(s);
    const std::uint64_t shard_keys =
        keys / static_cast<std::uint64_t>(shards) +
        (u < keys % static_cast<std::uint64_t>(shards) ? 1 : 0);
    Shard sh;
    sh.index.bytes = shard_keys * kIndexEntryBytes;
    sh.index.placement = proc.alloc(sh.index.bytes, node);
    sh.values.bytes = shard_keys * value_bytes;
    sh.values.placement = proc.alloc(sh.values.bytes, node);
    sh.staging.bytes = value_bytes;
    sh.staging.placement = proc.alloc(sh.staging.bytes, node);
    sh.worker = &proc.spawn_thread(node);
    shards_.push_back(std::move(sh));
  }
}

sim::Task<> KvStore::register_all(rdma::ProtectionDomain& pd,
                                  numa::Thread& th) {
  for (Shard& sh : shards_) {
    co_await pd.register_buffer(th, sh.index);
    co_await pd.register_buffer(th, sh.values);
    co_await pd.register_buffer(th, sh.staging);
  }
}

sim::Task<rpc::RpcServer::Reply> KvHandler::handle(
    const rpc::RpcServer::Request& req) {
  const KvMsg* m = req.payload.as<KvMsg>();
  KvStore::Shard& sh = store_.shard(store_.shard_of(m->key));
  numa::Thread& th = *sh.worker;
  // Hash + index probe on the shard's worker: charging it there serializes
  // the shard (single-writer semantics) and runs the CPU on the shard's
  // node, NUMA-remote from the NIC for odd shards on the default profile.
  co_await th.compute(th.host().costs().kv_lookup_cycles,
                      metrics::CpuCategory::kUserProto);
  rpc::RpcServer::Reply r;
  if (m->op == KvMsg::Op::kGet) {
    ++gets_;
    co_await th.copy(store_.value_bytes(), sh.values.placement,
                     sh.staging.placement, metrics::CpuCategory::kCopy);
    r.bytes = kKvHeaderBytes + store_.value_bytes();
    r.payload =
        mem::make_msg<KvMsg>(KvMsg{KvMsg::Op::kGet, m->key,
                                   store_.value_bytes(), true});
    r.source = &sh.staging;
  } else {
    ++puts_;
    co_await th.copy(m->value_bytes, request_region_.placement,
                     sh.values.placement, metrics::CpuCategory::kCopy);
    r.bytes = kKvHeaderBytes;
    r.payload = mem::make_msg<KvMsg>(KvMsg{KvMsg::Op::kPut, m->key, 0, true});
    r.source = nullptr;  // header-only ack, DMA'd from the ring region
  }
  co_return r;
}

}  // namespace e2e::apps
