#include "numa/thread.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <memory>

#include "check/audit.hpp"
#include "numa/process.hpp"

namespace e2e::numa {

Thread::Thread(Host& host, Process* proc, SchedPolicy policy, NodeId preferred)
    : host_(host), proc_(proc), core_(host.pick_core(policy, preferred)) {}

Thread::Thread(Host& host, Process* proc, CoreId pinned)
    : host_(host), proc_(proc), core_(pinned) {}

double Thread::locality_penalty(const Placement& p) const noexcept {
  const double remote = plan_for(p).remote_fraction;
  const double pen = host_.costs().numa_remote_penalty;
  return 1.0 + remote * (pen - 1.0);
}

void Thread::build_plan(CostPlan& plan, const Placement& p) const {
  const NodeId me = node();
  plan.traffic.clear();
  plan.coherence.clear();
  plan.traffic.reserve(p.extents.size());
  for (const auto& e : p.extents) {
    if (e.fraction <= 0.0) continue;  // can never produce a positive share
    CostPlan::Traffic t;
    t.channel = &host_.channel(e.node);
    t.fraction = e.fraction;
    if (e.node != me) {
      t.channel_factor = host_.costs().numa_remote_channel_factor;
      // Reads pull toward the thread's node, writes push away from it.
      t.qpi_read = &host_.interconnect(e.node, me);
      t.qpi_write = &host_.interconnect(me, e.node);
      plan.coherence.push_back({&host_.interconnect(e.node, me), e.fraction});
    }
    plan.traffic.push_back(t);
  }
  plan.remote_fraction = p.remote_fraction(me);
  plan.extents = p.extents;
}

namespace {

/// Bitwise layout equality — the notion the content hash is built on
/// (double compared by bit pattern, so a hit means the hash inputs match).
bool same_extents(const SmallVec<Placement::Extent, 4>& a,
                  const SmallVec<Placement::Extent, 4>& b) noexcept {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].node != b[i].node) return false;
    if (std::bit_cast<std::uint64_t>(a[i].fraction) !=
        std::bit_cast<std::uint64_t>(b[i].fraction))
      return false;
  }
  return true;
}

}  // namespace

const Thread::CostPlan& Thread::plan_for(const Placement& p) const {
  const std::uint64_t key = p.plan_key_value();
  auto* bucket = plans_.find(key);
  if (bucket == nullptr)
    bucket = &plans_.insert(key, {});
  // Verify the stored layout: a cache hit must mean "same extent bytes",
  // never "same hash". Buckets hold one plan outside of collisions.
  for (const auto& plan : *bucket)
    if (same_extents(plan->extents, p.extents)) return *plan;
  auto fresh = std::make_unique<CostPlan>();
  build_plan(*fresh, p);
  const CostPlan& ref = *fresh;
  bucket->push_back(std::move(fresh));
  return ref;
}

void Thread::account(metrics::CpuCategory cat, sim::SimDuration ns) {
  Core& core = host_.core(core_);
  core.usage.add(cat, ns);
  if (proc_) proc_->usage().add(cat, ns);
  if (auto* au = check::of(host_.engine()))
    au->on_cpu_charge(core.cycles.get(), cat, ns);
}

sim::SimTime Thread::book(double cycles, std::uint64_t read_bytes,
                          const Placement* src, std::uint64_t write_bytes,
                          const Placement* dst, metrics::CpuCategory cat,
                          Coherence dst_coherence) {
  auto& eng = host_.engine();
  auto& core = host_.core(core_);
  sim::SimTime done = eng.now();

  if (cycles > 0.0) {
    done = std::max(done, core.cycles->charge(cycles));
    account(cat, core.cycles->service_time(cycles));
  }

  // Placement costs come from the cached plan: channel/interconnect
  // handles and per-extent factors were resolved on the first booking of
  // this (thread, placement) pair; the arithmetic below is bit-identical
  // to the uncached per-extent walk it replaced.
  auto book_traffic = [&](const CostPlan& plan, std::uint64_t bytes,
                          bool write) {
    for (const auto& t : plan.traffic) {
      const double share = static_cast<double>(bytes) * t.fraction;
      if (share <= 0.0) continue;
      // share * 1.0 is bitwise `share` for the non-negative doubles here,
      // so local extents charge exactly what they used to.
      done = std::max(done, t.channel->charge(share * t.channel_factor));
      if (sim::Resource* qpi = write ? t.qpi_write : t.qpi_read)
        done = std::max(done, qpi->charge(share));
    }
  };

  if (src && read_bytes)
    book_traffic(plan_for(*src), read_bytes, /*write=*/false);
  if (dst && write_bytes) {
    const CostPlan& plan = plan_for(*dst);
    book_traffic(plan, write_bytes, /*write=*/true);
    if (dst_coherence == Coherence::kSharedRemote) {
      // Write-invalidate: every written line round-trips ownership over the
      // interconnect. Model as extra interconnect traffic (both directions
      // relative to the remote extents) — the stall cycles were added by
      // the caller via the coherence cycle constant.
      const double factor = host_.costs().coherence_interconnect_bytes_factor;
      for (const auto& c : plan.coherence) {
        const double share =
            static_cast<double>(write_bytes) * c.fraction * factor;
        if (share <= 0.0) continue;
        done = std::max(done, c.qpi->charge(share));
      }
    }
  }
  return done;
}

sim::Delay Thread::compute(double cycles, metrics::CpuCategory cat) {
  return sim::until(host_.engine(), book(cycles, 0, nullptr, 0, nullptr, cat,
                                         Coherence::kPrivate));
}

sim::Delay Thread::copy(std::uint64_t bytes, const Placement& src,
                        const Placement& dst, metrics::CpuCategory cat,
                        Coherence dst_coherence, bool src_in_cache) {
  const auto& cm = host_.costs();
  const double penalty =
      src_in_cache ? locality_penalty(dst)
                   : std::max(locality_penalty(src), locality_penalty(dst));
  double cycles =
      static_cast<double>(bytes) * cm.memcpy_cycles_per_byte * penalty;
  if (dst_coherence == Coherence::kSharedRemote)
    cycles += static_cast<double>(bytes) * cm.coherence_write_cycles_per_byte *
              dst.remote_fraction(node());
  const sim::SimTime done =
      book(cycles, src_in_cache ? 0 : bytes, &src, bytes, &dst, cat,
           dst_coherence);
  return sim::until(host_.engine(), done);
}

sim::Delay Thread::mem_read(std::uint64_t bytes, const Placement& src,
                            metrics::CpuCategory cat) {
  const auto& cm = host_.costs();
  const double cycles = static_cast<double>(bytes) *
                        cm.mem_touch_cycles_per_byte * locality_penalty(src);
  const sim::SimTime done =
      book(cycles, bytes, &src, 0, nullptr, cat, Coherence::kPrivate);
  return sim::until(host_.engine(), done);
}

sim::Delay Thread::mem_write(std::uint64_t bytes, const Placement& dst,
                             metrics::CpuCategory cat, Coherence coherence) {
  const auto& cm = host_.costs();
  double cycles = static_cast<double>(bytes) * cm.mem_touch_cycles_per_byte *
                  locality_penalty(dst);
  if (coherence == Coherence::kSharedRemote)
    cycles += static_cast<double>(bytes) * cm.coherence_write_cycles_per_byte *
              dst.remote_fraction(node());
  const sim::SimTime done =
      book(cycles, 0, nullptr, bytes, &dst, cat, coherence);
  return sim::until(host_.engine(), done);
}

sim::Delay Thread::zero_fill(std::uint64_t bytes, const Placement& dst,
                             metrics::CpuCategory cat) {
  const auto& cm = host_.costs();
  const double cycles = static_cast<double>(bytes) *
                        cm.zero_fill_cycles_per_byte * locality_penalty(dst);
  const sim::SimTime done =
      book(cycles, 0, nullptr, bytes, &dst, cat, Coherence::kPrivate);
  return sim::until(host_.engine(), done);
}

}  // namespace e2e::numa
