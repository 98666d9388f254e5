#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "sim/engine.hpp"
#include "stats/registry.hpp"

namespace e2e::stats {
namespace {

// A registry with a tiny ring so wraparound is cheap to exercise.
struct SmallRing {
  sim::Engine eng;
  Registry st;
  SmallRing() : st(eng, [] {
    Config c;
    c.flight_capacity = 16;
    return c;
  }()) {}
};

TEST(FlightRecorder, CapacityIsPowerOfTwoWithFloor) {
  sim::Engine eng;
  {
    Config c;
    c.flight_capacity = 5;  // below the floor: clamped up to 16
    Registry st(eng, c);
    EXPECT_EQ(st.flight_capacity(), 16u);
  }
  {
    Config c;
    c.flight_capacity = 100;  // rounded up to the next power of two
    Registry st(eng, c);
    EXPECT_EQ(st.flight_capacity(), 128u);
  }
}

TEST(FlightRecorder, WraparoundKeepsOnlyNewestRecords) {
  SmallRing r;
  const EntityId e = r.st.entity(obs::Layer::kApp, "job");
  const CodeId old_code = r.st.code("old-event");
  const CodeId new_code = r.st.code("new-event");
  // 8 old records, then 16 new ones: the old 8 are fully overwritten.
  for (int i = 0; i < 8; ++i) r.st.flight(obs::Layer::kApp, e, old_code, i);
  for (int i = 0; i < 16; ++i) r.st.flight(obs::Layer::kApp, e, new_code, 100 + i);
  EXPECT_EQ(r.st.flight_written(), 24u);

  std::ostringstream os;
  r.st.dump_flight(os);
  const std::string dump = os.str();
  EXPECT_NE(dump.find("(8 older records overwritten)"), std::string::npos)
      << dump;
  EXPECT_EQ(dump.find("old-event"), std::string::npos) << dump;
  EXPECT_NE(dump.find("new-event"), std::string::npos);
  EXPECT_NE(dump.find("arg=100"), std::string::npos);  // oldest survivor
  EXPECT_NE(dump.find("arg=115"), std::string::npos);  // newest
}

TEST(FlightRecorder, DumpWithoutWraparoundOmitsOverwrittenLine) {
  SmallRing r;
  const EntityId e = r.st.entity(obs::Layer::kApp, "job");
  const CodeId c = r.st.code("ev");
  for (int i = 0; i < 5; ++i) r.st.flight(obs::Layer::kApp, e, c, i);
  std::ostringstream os;
  r.st.dump_flight(os);
  EXPECT_EQ(os.str().find("overwritten"), std::string::npos) << os.str();
}

TEST(FlightRecorder, TriggerLatchesOnFirstReason) {
  SmallRing r;
  const EntityId e = r.st.entity(obs::Layer::kApp, "job");
  r.st.flight(obs::Layer::kApp, e, r.st.code("ev"), 1);

  std::ostringstream os;
  r.st.set_flight_stream(&os);
  EXPECT_FALSE(r.st.flight_dump_triggered());
  r.st.trigger_flight_dump("first-fault");
  EXPECT_TRUE(r.st.flight_dump_triggered());
  const std::string first = os.str();
  EXPECT_NE(first.find("reason: first-fault"), std::string::npos) << first;
  EXPECT_NE(first.find("--- end flight recorder dump ---"),
            std::string::npos);

  // Second trigger is silent: the first fault is the interesting one and
  // cascades must not bury it.
  r.st.trigger_flight_dump("cascade");
  EXPECT_EQ(os.str(), first);
  EXPECT_EQ(os.str().find("cascade"), std::string::npos);
}

TEST(FlightRecorder, RecordsCarrySimTimestamps) {
  SmallRing r;
  const EntityId e = r.st.entity(obs::Layer::kApp, "job");
  r.st.flight(obs::Layer::kApp, e, r.st.code("ev"), 7);
  std::ostringstream os;
  r.st.dump_flight(os);
  const std::string dump = os.str();
  EXPECT_NE(dump.find("ns]"), std::string::npos) << dump;
  EXPECT_NE(dump.find("job"), std::string::npos);
  EXPECT_NE(dump.find("arg=7"), std::string::npos);
}

}  // namespace
}  // namespace e2e::stats
