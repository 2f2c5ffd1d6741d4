/** @file Unit tests for the telemetry bus and its sinks. */

#include <sstream>

#include <gtest/gtest.h>

#include "metrics/recorder.hh"
#include "metrics/telemetry.hh"

namespace ppm::metrics {
namespace {

TEST(TraceBus, DisabledBusIsInert)
{
    TraceBus bus;
    EXPECT_FALSE(bus.enabled());
    // Every entry point must be a no-op with no sink attached.
    bus.sample(bus.intern("x"), kSecond, 1.0);
    bus.event(TraceEvent("e", kSecond).set("a", 1.0));
    bus.count(bus.intern("migrations"));
    bus.observe(bus.intern("power"), 2.0);
    EXPECT_EQ(bus.counter("migrations"), 0);
    EXPECT_EQ(bus.histogram("power"), nullptr);
    EXPECT_TRUE(bus.counters().empty());
    EXPECT_TRUE(bus.histograms().empty());
}

TEST(TraceBus, CountersAndHistograms)
{
    TraceRecorder rec;
    TraceBus bus;
    bus.add_sink(std::make_unique<MemorySink>(&rec));
    ASSERT_TRUE(bus.enabled());
    const SeriesId migrations = bus.intern("migrations");
    const SeriesId power = bus.intern("power");
    bus.count(migrations);
    bus.count(migrations, 2);
    bus.count(bus.intern("vf_steps_cluster0"));
    EXPECT_EQ(bus.counter("migrations"), 3);
    EXPECT_EQ(bus.counter("vf_steps_cluster0"), 1);
    EXPECT_EQ(bus.counter("never"), 0);

    bus.observe(power, 1.0);
    bus.observe(power, 3.0);
    const OnlineStats* h = bus.histogram("power");
    ASSERT_NE(h, nullptr);
    EXPECT_EQ(h->count(), 2u);
    EXPECT_DOUBLE_EQ(h->mean(), 2.0);
    EXPECT_DOUBLE_EQ(h->min(), 1.0);
    EXPECT_DOUBLE_EQ(h->max(), 3.0);
}

TEST(TraceBus, FansOutToEverySink)
{
    TraceRecorder rec_a;
    TraceRecorder rec_b;
    TraceBus bus;
    bus.add_sink(std::make_unique<MemorySink>(&rec_a));
    MemorySink external(&rec_b);
    bus.add_sink(&external);
    bus.sample(bus.intern("s"), kSecond, 5.0);
    ASSERT_EQ(rec_a.series("s").size(), 1u);
    ASSERT_EQ(rec_b.series("s").size(), 1u);
    EXPECT_DOUBLE_EQ(rec_a.series("s")[0].value, 5.0);
    EXPECT_DOUBLE_EQ(rec_b.series("s")[0].value, 5.0);
}

TEST(TraceSink, DefaultEventRenderingForwardsNumericFields)
{
    // A sink that does not override event() must still receive every
    // numeric field, as a sample named after the field; string fields
    // have no sample rendering and are dropped.
    TraceRecorder rec;
    TraceBus bus;
    bus.add_sink(std::make_unique<MemorySink>(&rec));
    TraceEvent e("market_round", 2 * kSecond);
    e.set("state", std::string("normal"));
    e.set("task0_bid", 0.5).set("core0_price", 0.01);
    bus.event(e);

    ASSERT_EQ(rec.series("task0_bid").size(), 1u);
    EXPECT_EQ(rec.series("task0_bid")[0].time, 2 * kSecond);
    EXPECT_DOUBLE_EQ(rec.series("task0_bid")[0].value, 0.5);
    ASSERT_EQ(rec.series("core0_price").size(), 1u);
    EXPECT_TRUE(rec.series("state").empty());
}

TEST(CsvStreamSink, GoldenOutput)
{
    std::ostringstream os;
    CsvStreamSink sink(os);
    sink.sample("power", kSecond, 1.5);
    sink.event(TraceEvent("epoch", 2 * kSecond).set("level", 3.0));
    sink.flush();
    EXPECT_EQ(os.str(),
              "time_s,series,value\n"
              "1.000,power,1.500000\n"
              "2.000,level,3.000000\n");
}

TEST(JsonlSink, GoldenOutput)
{
    std::ostringstream os;
    JsonlSink sink(os);
    sink.sample("power", kSecond, 1.5);
    TraceEvent e("market_round", 2 * kSecond);
    e.set("state", std::string("normal"));
    e.set("task0_bid", 0.25);
    sink.event(e);
    sink.flush();
    EXPECT_EQ(os.str(),
              "{\"type\":\"sample\",\"t_s\":1.000,\"series\":\"power\","
              "\"value\":1.5}\n"
              "{\"type\":\"market_round\",\"t_s\":2.000,"
              "\"state\":\"normal\",\"task0_bid\":0.25}\n");
}

TEST(JsonlSink, EscapesQuotesAndBackslashes)
{
    std::ostringstream os;
    JsonlSink sink(os);
    sink.sample("a\"b\\c", 0, 1.0);
    const std::string line = os.str();
    EXPECT_NE(line.find("\"a\\\"b\\\\c\""), std::string::npos);
}

TEST(TraceBus, InterningIsIdempotentAndStable)
{
    TraceBus bus;
    // Interning works with no sink attached (emitters resolve handles
    // at construction, before sinks exist).
    const SeriesId a = bus.intern("chip_power_w");
    const SeriesId b = bus.intern("cluster0_mhz");
    EXPECT_NE(a, b);
    EXPECT_EQ(bus.intern("chip_power_w"), a);
    EXPECT_EQ(bus.intern("cluster0_mhz"), b);
    EXPECT_EQ(bus.name_of(a), "chip_power_w");
    EXPECT_EQ(bus.name_of(b), "cluster0_mhz");
    // Ids survive sink attachment and flushes.
    TraceRecorder rec;
    bus.add_sink(std::make_unique<MemorySink>(&rec));
    bus.flush();
    EXPECT_EQ(bus.intern("chip_power_w"), a);
}

TEST(TraceBus, InternedCountersListOnlyTouchedNames)
{
    // An interned-but-never-recorded name must not appear in the
    // aggregate maps (it would pollute the end-of-run counters event).
    TraceBus bus;
    TraceRecorder rec;
    bus.add_sink(std::make_unique<MemorySink>(&rec));
    const SeriesId used = bus.intern("used");
    bus.intern("never_touched");
    bus.count(used, 5);
    const auto counters = bus.counters();
    ASSERT_EQ(counters.size(), 1u);
    EXPECT_EQ(counters.count("used"), 1u);
    EXPECT_EQ(counters.at("used"), 5);
    EXPECT_TRUE(bus.histograms().empty());
}

TEST(TraceBus, EventScratchReusesLayoutAndRebuildsOnChange)
{
    TraceRecorder rec;
    TraceBus bus;
    bus.add_sink(std::make_unique<MemorySink>(&rec));

    EventScratch scratch("epoch");
    scratch.begin(kSecond);
    scratch.num("a", 1.0).num("b", 2.0);
    bus.event(scratch.finish());

    // Same layout: values overwritten in place.
    scratch.begin(2 * kSecond);
    scratch.num("a", 3.0).num("b", 4.0);
    bus.event(scratch.finish());
    ASSERT_EQ(rec.series("a").size(), 2u);
    EXPECT_DOUBLE_EQ(rec.series("a")[1].value, 3.0);
    EXPECT_DOUBLE_EQ(rec.series("b")[1].value, 4.0);

    // Shrunk layout (e.g. a power-gated cluster dropping out): the
    // stale tail must not leak into the event.
    scratch.begin(3 * kSecond);
    scratch.num("a", 5.0);
    bus.event(scratch.finish());
    ASSERT_EQ(rec.series("a").size(), 3u);
    EXPECT_EQ(rec.series("b").size(), 2u);

    // Different key at a reused position: the tail rebuilds.
    scratch.begin(4 * kSecond);
    scratch.num("c", 6.0);
    bus.event(scratch.finish());
    ASSERT_EQ(rec.series("c").size(), 1u);
    EXPECT_DOUBLE_EQ(rec.series("c")[0].value, 6.0);
    EXPECT_EQ(rec.series("a").size(), 3u);
}

TEST(TraceBus, MemorySinkMatchesDirectRecording)
{
    // The classic trace path must be unchanged: routing through the
    // bus and MemorySink stores exactly what record() would.
    TraceRecorder direct;
    direct.record("x", kSecond, 1.0);
    direct.record("x", 2 * kSecond, 2.0);

    TraceRecorder via_bus;
    TraceBus bus;
    bus.add_sink(std::make_unique<MemorySink>(&via_bus));
    const SeriesId x = bus.intern("x");
    bus.sample(x, kSecond, 1.0);
    bus.sample(x, 2 * kSecond, 2.0);

    std::ostringstream a;
    std::ostringstream b;
    direct.write_csv(a);
    via_bus.write_csv(b);
    EXPECT_EQ(a.str(), b.str());
}


TEST(CsvStreamSink, LatchesFailureAndDropsFurtherOutput)
{
    std::ostringstream os;
    metrics::CsvStreamSink sink(os);
    sink.sample("chip_power", kSecond, 1.5);
    EXPECT_FALSE(sink.failed());
    const std::string good = os.str();

    // Break the stream: the next write latches failed() and every
    // later record is dropped without crashing.
    os.setstate(std::ios::failbit);
    sink.sample("chip_power", 2 * kSecond, 1.6);
    EXPECT_TRUE(sink.failed());
    sink.sample("chip_power", 3 * kSecond, 1.7);
    sink.flush();
    EXPECT_TRUE(sink.failed());
    os.clear();
    EXPECT_EQ(os.str().substr(0, good.size()), good);
}

TEST(JsonlSink, LatchesFailureAndDropsFurtherOutput)
{
    std::ostringstream os;
    metrics::JsonlSink sink(os);
    sink.sample("chip_power", kSecond, 1.5);
    EXPECT_FALSE(sink.failed());

    os.setstate(std::ios::badbit);
    sink.sample("chip_power", 2 * kSecond, 1.6);
    EXPECT_TRUE(sink.failed());
    metrics::TraceEvent e("market_round", 2 * kSecond);
    e.set("allowance", 3.0);
    sink.event(e);  // Dropped, no crash.
    sink.flush();
    EXPECT_TRUE(sink.failed());
}

TEST(TraceSink, DefaultFailedIsFalse)
{
    metrics::TraceRecorder rec;
    metrics::MemorySink sink(&rec);
    EXPECT_FALSE(sink.failed());
}

} // namespace
} // namespace ppm::metrics
