#include "stats/registry.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <string_view>
#include <utility>

#include "sim/engine.hpp"
#include "stats/stats.hpp"

namespace e2e::stats {
namespace {

TEST(Registry, OfIsNullUntilInstalledAndAfterDestruction) {
  sim::Engine eng;
  EXPECT_EQ(of(eng), nullptr);
  {
    Registry st(eng);
    EXPECT_EQ(of(eng), nullptr);  // construction alone does not install
    st.install();
    EXPECT_EQ(of(eng), &st);
    st.uninstall();
    EXPECT_EQ(of(eng), nullptr);
  }
  {
    Registry st(eng);
    st.install();
    EXPECT_EQ(of(eng), &st);
  }  // destructor uninstalls
  EXPECT_EQ(of(eng), nullptr);
}

TEST(Registry, EntityIsIdempotentAndLayerScoped) {
  sim::Engine eng;
  Registry st(eng);
  const EntityId a = st.entity(obs::Layer::kRdma, "qp0");
  EXPECT_NE(a, Registry::kOverflowEntity);
  EXPECT_EQ(st.entity(obs::Layer::kRdma, "qp0"), a);
  // Same name under a different layer is a distinct entity.
  const EntityId b = st.entity(obs::Layer::kTcp, "qp0");
  EXPECT_NE(b, a);
  EXPECT_EQ(st.entity_name(a), "qp0");
  EXPECT_EQ(st.entity_layer(a), obs::Layer::kRdma);
  EXPECT_EQ(st.entity_layer(b), obs::Layer::kTcp);
}

TEST(Registry, MintEntityNumbersInstancesPerBaseName) {
  sim::Engine eng;
  Registry st(eng);
  const EntityId s0 = st.mint_entity(obs::Layer::kRftp, "stream");
  const EntityId s1 = st.mint_entity(obs::Layer::kRftp, "stream");
  const EntityId q0 = st.mint_entity(obs::Layer::kRdma, "qp");
  EXPECT_EQ(st.entity_name(s0), "stream#0");
  EXPECT_EQ(st.entity_name(s1), "stream#1");
  EXPECT_EQ(st.entity_name(q0), "qp#0");  // counter is per "layer/base"
}

TEST(Registry, CardinalityCapAliasesIntoOverflowEntity) {
  sim::Engine eng;
  Config cfg;
  cfg.max_entities = 3;  // overflow + 2 real slots
  Registry st(eng, cfg);
  const EntityId a = st.entity(obs::Layer::kApp, "a");
  const EntityId b = st.entity(obs::Layer::kApp, "b");
  EXPECT_NE(a, Registry::kOverflowEntity);
  EXPECT_NE(b, Registry::kOverflowEntity);
  EXPECT_EQ(st.dropped_entities(), 0u);

  // Past the cap: new names alias to the overflow entity and are counted.
  const EntityId c = st.entity(obs::Layer::kApp, "c");
  const EntityId d = st.mint_entity(obs::Layer::kApp, "e");
  EXPECT_EQ(c, Registry::kOverflowEntity);
  EXPECT_EQ(d, Registry::kOverflowEntity);
  EXPECT_EQ(st.dropped_entities(), 2u);
  EXPECT_EQ(st.entity_count(), 3u);  // bounded: never grows past the cap
  EXPECT_EQ(st.entity_name(Registry::kOverflowEntity), "<overflow>");

  // Known entities keep resolving after the cap is hit...
  EXPECT_EQ(st.entity(obs::Layer::kApp, "a"), a);
  // ...and metrics on the overflow entity still work (no UB, no crash).
  st.counter(c, "dropped_ops").add(7);
  EXPECT_EQ(st.counter_value(Registry::kOverflowEntity, "dropped_ops"), 7u);
}

TEST(Registry, MetricStorageIsPooledAndAddressStable) {
  sim::Engine eng;
  Registry st(eng);
  const EntityId e = st.entity(obs::Layer::kRdma, "qp0");
  Counter& c = st.counter(e, "wr_posted");
  Histogram& h = st.histogram(e, "op_ns");
  Gauge& g = st.gauge(e, "sq_depth");
  // Force pool growth; earlier references must stay valid (deque-backed).
  for (int i = 0; i < 1000; ++i) {
    const EntityId x = st.mint_entity(obs::Layer::kApp, "filler");
    st.counter(x, "n").add(1);
    st.histogram(x, "ns").record(static_cast<std::uint64_t>(i));
  }
  c.add(3);
  h.record(100);
  g.set(42);
  EXPECT_EQ(&st.counter(e, "wr_posted"), &c);
  EXPECT_EQ(&st.histogram(e, "op_ns"), &h);
  EXPECT_EQ(&st.gauge(e, "sq_depth"), &g);
  EXPECT_EQ(st.counter_value(e, "wr_posted"), 3u);
  ASSERT_NE(st.find_histogram(e, "op_ns"), nullptr);
  EXPECT_EQ(st.find_histogram(e, "op_ns")->count(), 1u);
  EXPECT_EQ(st.find_histogram(e, "missing"), nullptr);
}

TEST(Registry, MergedHistogramFoldsAcrossEntities) {
  sim::Engine eng;
  Registry st(eng);
  const EntityId a = st.entity(obs::Layer::kRftp, "stream0");
  const EntityId b = st.entity(obs::Layer::kRftp, "stream1");
  st.histogram(a, "drain_ns").record(100);
  st.histogram(a, "drain_ns").record(200);
  st.histogram(b, "drain_ns").record(300);
  st.histogram(b, "other_ns").record(999);  // different name: excluded
  const Histogram m = st.merged_histogram("drain_ns");
  EXPECT_EQ(m.count(), 3u);
  EXPECT_EQ(m.min(), 100u);
  EXPECT_EQ(m.max(), 300u);
}

TEST(Registry, CachedHandlesReresolveWhenRegistryChanges) {
  sim::Engine eng;
  obs::Cached<Registry, EntityId> ent;
  obs::Cached<Registry, Counter*> ctr;
  Registry st1(eng);
  Registry st2(eng);

  st1.install();
  Registry* p = of(eng);
  const EntityId e1 =
      ent.get(p, [&] { return p->entity(obs::Layer::kApp, "worker"); });
  Counter* c1 = ctr.get(p, [&] { return &p->counter(e1, "ops"); });
  c1->add(1);
  EXPECT_EQ(ctr.get(p, [] { return static_cast<Counter*>(nullptr); }),
            c1);  // steady state: cached, resolver not called
  EXPECT_EQ(st1.counter_value(e1, "ops"), 1u);

  // Swapping the installed registry must re-resolve the handle into the
  // new registry's pools, not keep writing into st1's.
  st2.install();
  p = of(eng);
  const EntityId e2 =
      ent.get(p, [&] { return p->entity(obs::Layer::kApp, "worker"); });
  ctr.get(p, [&] { return &p->counter(e2, "ops"); })->add(5);
  EXPECT_EQ(st2.counter_value(e2, "ops"), 5u);
  EXPECT_EQ(st1.counter_value(e1, "ops"), 1u);  // st1 untouched
}

// --- fast-forward contract (ff_mark / ff_repeats / ff_advance) ---

/// One steady-state period of metric movement: counter and histogram
/// deltas, a gauge re-set to its pinned value.
void period(Registry& st) {
  const EntityId e = st.entity(obs::Layer::kRftp, "stream0");
  st.counter(e, "blocks").add(3);
  st.gauge(e, "depth").set(5.0);
  Histogram& h = st.histogram(e, "wait_ns");
  h.record(100);
  h.record(2000);
  h.record(2000);
  h.record(70000);
}

/// Marks `st` three times, one period() apart, after a warm-up period
/// that sets every extremum.
void mark_three(Registry& st) {
  period(st);
  st.ff_mark();
  period(st);
  st.ff_mark();
  period(st);
  st.ff_mark();
}

std::string json(const Registry& st) {
  std::ostringstream os;
  st.write_json(os);
  return os.str();
}

TEST(Registry, FastForwardAdvanceEqualsEventExactRepetition) {
  constexpr std::uint64_t kK = 1000003;
  sim::Engine eng_ff, eng_exact;
  Registry ff(eng_ff), exact(eng_exact);
  mark_three(ff);
  ASSERT_TRUE(ff.ff_repeats());
  ff.ff_advance(kK);
  for (std::uint64_t i = 0; i < 3 + kK; ++i) period(exact);

  const EntityId e = ff.entity(obs::Layer::kRftp, "stream0");
  EXPECT_EQ(ff.counter_value(e, "blocks"), 3 * (3 + kK));
  const Histogram& h = *ff.find_histogram(e, "wait_ns");
  const Histogram& x = *exact.find_histogram(e, "wait_ns");
  EXPECT_EQ(h.count(), x.count());
  EXPECT_EQ(h.sum(), x.sum());
  for (std::size_t i = 0; i < Histogram::kSlots; ++i)
    ASSERT_EQ(h.bucket_count(i), x.bucket_count(i)) << "bucket " << i;
  EXPECT_EQ(ff.gauge(e, "depth").samples(), 3 + kK);
  EXPECT_EQ(json(ff), json(exact));
}

TEST(Registry, FastForwardNeedsThreeMarks) {
  sim::Engine eng;
  Registry st(eng);
  EXPECT_FALSE(st.ff_repeats());
  period(st);
  st.ff_mark();
  period(st);
  st.ff_mark();
  EXPECT_FALSE(st.ff_repeats());
  period(st);
  st.ff_mark();
  EXPECT_TRUE(st.ff_repeats());
}

TEST(Registry, FastForwardRefusesAMovedGauge) {
  // Each gauge's last, min or max moves in the last interval only; the
  // sample counts still repeat.
  const std::pair<const char*, double> moves[] = {
      {"last", 6.0}, {"min", -1.0}, {"max", 9.0}};
  for (const auto& [what, v] : moves) {
    SCOPED_TRACE(what);
    sim::Engine eng;
    Registry st(eng);
    const EntityId e = st.entity(obs::Layer::kApp, "g");
    Gauge& g = st.gauge(e, "depth");
    g.set(0.0);
    g.set(8.0);
    g.set(5.0);
    st.ff_mark();
    g.set(5.0);
    g.set(5.0);
    st.ff_mark();
    if (std::string_view(what) == "last") {
      g.set(5.0);
      g.set(v);
    } else {
      g.set(v);
      g.set(5.0);
    }
    st.ff_mark();
    EXPECT_FALSE(st.ff_repeats());
  }
}

TEST(Registry, FastForwardRefusesAMetricMintedBetweenMarks) {
  sim::Engine eng;
  Registry st(eng);
  period(st);
  st.ff_mark();
  period(st);
  st.ff_mark();
  period(st);
  st.counter(st.entity(obs::Layer::kApp, "late"), "n").add(0);
  st.ff_mark();
  EXPECT_FALSE(st.ff_repeats());
}

TEST(Registry, FastForwardRefusesUnequalDeltas) {
  sim::Engine eng;
  Registry st(eng);
  mark_three(st);
  ASSERT_TRUE(st.ff_repeats());
  const EntityId e = st.entity(obs::Layer::kRftp, "stream0");
  period(st);
  st.counter(e, "blocks").add(1);  // one more than a period
  st.ff_mark();
  EXPECT_FALSE(st.ff_repeats());
  period(st);
  st.ff_mark();
  EXPECT_FALSE(st.ff_repeats());  // the previous interval still differs
  period(st);
  st.histogram(e, "wait_ns").record(100);  // same bucket, one more count
  st.ff_mark();
  EXPECT_FALSE(st.ff_repeats());
}

}  // namespace
}  // namespace e2e::stats
