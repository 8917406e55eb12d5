// Observability layer: canonical number rendering, trace event
// serialization round trips, sink ordering/thread safety, the JSONL
// and Chrome writers, the metrics registry, and the first-divergence
// trace comparator the golden suite is built on.
#include <cmath>
#include <limits>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "obs/metrics.h"
#include "obs/profile.h"
#include "obs/trace.h"
#include "support/trace_diff.h"

namespace yukta::obs {
namespace {

TEST(CanonicalNumber, RoundTripsDoublesExactly)
{
    const double values[] = {0.0,      -0.0,   1.0 / 3.0, 0.1,
                             6.25e-31, 2.0,    -17.125,   1e300,
                             5e-324,   M_PI,   123456789.123456789};
    for (double v : values) {
        const std::string s = canonicalNumber(v);
        // strtod, not std::stod: the latter throws on subnormals.
        EXPECT_EQ(std::strtod(s.c_str(), nullptr), v) << s;
    }
}

TEST(CanonicalNumber, NonFiniteRendersAsQuotedStrings)
{
    EXPECT_EQ(canonicalNumber(std::numeric_limits<double>::quiet_NaN()),
              "\"nan\"");
    EXPECT_EQ(canonicalNumber(std::numeric_limits<double>::infinity()),
              "\"inf\"");
    EXPECT_EQ(canonicalNumber(-std::numeric_limits<double>::infinity()),
              "\"-inf\"");
}

TEST(TraceEvent, BuildersPreserveInsertionOrder)
{
    TraceEvent ev(3, 1.5, "hw", "ssv");
    ev.num("a", 1.0).integer("b", -2).str("c", "x\"y").vec("d", {1.0, 2.5});
    ASSERT_EQ(ev.fields().size(), 4u);
    EXPECT_EQ(ev.fields()[0].first, "a");
    EXPECT_EQ(ev.fields()[1].first, "b");
    EXPECT_EQ(ev.fields()[2].first, "c");
    EXPECT_EQ(ev.fields()[3].first, "d");
    EXPECT_EQ(ev.tick(), 3);
    EXPECT_EQ(ev.time(), 1.5);
}

TEST(TraceEvent, JsonRoundTripIsByteIdentical)
{
    TraceEvent ev(7, 3.5, "supervisor", "transition");
    ev.str("from", "nominal")
        .str("to", "hold")
        .num("metric", 1.0 / 3.0)
        .vec("targets", {4.5, -0.25, 1e-17})
        .flags("sat", {0, 1, 0})
        .integer("n", 42);
    const std::string line = ev.toJsonLine();
    auto parsed = TraceEvent::fromJsonLine(line);
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(parsed->toJsonLine(), line);
    EXPECT_EQ(parsed->tick(), 7);
    EXPECT_EQ(parsed->layer(), "supervisor");
    EXPECT_EQ(parsed->kind(), "transition");
    ASSERT_EQ(parsed->fields().size(), 6u);
    EXPECT_EQ(parsed->fields()[0].second, "\"nominal\"");
}

TEST(TraceEvent, MalformedLinesAreRejectedNotThrown)
{
    EXPECT_FALSE(TraceEvent::fromJsonLine("").has_value());
    EXPECT_FALSE(TraceEvent::fromJsonLine("not json").has_value());
    EXPECT_FALSE(TraceEvent::fromJsonLine("{\"tick\":1}").has_value());
    EXPECT_FALSE(
        TraceEvent::fromJsonLine("{\"tick\":1,\"time\":0,\"layer\":\"a\"")
            .has_value());
}

TEST(TraceSink, RecordsEventsAtTheCurrentTick)
{
    TraceSink sink("run-a");
    sink.beginTick(0, 0.0);
    sink.record(sink.makeEvent("hw", "ssv").num("u", 1.0));
    sink.beginTick(1, 0.5);
    sink.record(sink.makeEvent("os", "ssv").num("u", 2.0));
    ASSERT_EQ(sink.eventCount(), 2u);
    auto events = sink.events();
    EXPECT_EQ(events[0].tick(), 0);
    EXPECT_EQ(events[0].time(), 0.0);
    EXPECT_EQ(events[1].tick(), 1);
    EXPECT_EQ(events[1].time(), 0.5);
    sink.clear();
    EXPECT_EQ(sink.eventCount(), 0u);
}

TEST(TraceSink, JsonlWriterRoundTripsThroughTheReader)
{
    TraceSink sink("roundtrip");
    sink.beginTick(0, 0.0);
    sink.record(sink.makeEvent("hw", "ssv").vec("u", {1.0, 1.0 / 7.0}));
    sink.beginTick(1, 0.5);
    sink.record(sink.makeEvent("sys", "plant").num("temp", 55.25));

    std::ostringstream os;
    sink.writeJsonl(os);
    std::istringstream is(os.str());
    std::string run_id;
    auto events = readJsonlTrace(is, &run_id);
    ASSERT_TRUE(events.has_value());
    EXPECT_EQ(run_id, "roundtrip");
    ASSERT_EQ(events->size(), 2u);

    // Re-serializing the parsed events reproduces the file body.
    std::ostringstream os2;
    TraceSink copy("roundtrip");
    for (const TraceEvent& ev : *events) {
        copy.record(ev);
    }
    copy.writeJsonl(os2);
    EXPECT_EQ(os2.str(), os.str());
}

TEST(TraceSink, ChromeWriterEmitsValidSkeleton)
{
    TraceSink sink("chrome");
    sink.beginTick(0, 0.0);
    sink.record(sink.makeEvent("hw", "ssv").num("u", 1.0));
    sink.record(sink.makeEvent("os", "ssv").num("u", 2.0));
    std::ostringstream os;
    sink.writeChrome(os);
    const std::string out = os.str();
    EXPECT_NE(out.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(out.find("thread_name"), std::string::npos);
    EXPECT_NE(out.find("\"ph\":\"i\""), std::string::npos);
    EXPECT_EQ(out.front(), '{');
    EXPECT_EQ(out.back(), '\n');
}

TEST(TraceSink, ConcurrentRecordsAllArrive)
{
    TraceSink sink("mt");
    sink.beginTick(0, 0.0);
    std::vector<std::thread> threads;
    for (int w = 0; w < 4; ++w) {
        threads.emplace_back([&sink] {
            for (int i = 0; i < 250; ++i) {
                sink.record(sink.makeEvent("hw", "x"));
            }
        });
    }
    for (std::thread& t : threads) {
        t.join();
    }
    EXPECT_EQ(sink.eventCount(), 1000u);
}

TEST(Metrics, CountersAndGauges)
{
    MetricsRegistry reg;
    reg.counter("a").add();
    reg.counter("a").add(4);
    reg.gauge("g").set(2.5);
    EXPECT_EQ(reg.counter("a").value(), 5);
    EXPECT_EQ(reg.gauge("g").value(), 2.5);
}

TEST(Metrics, HistogramBucketsObservations)
{
    MetricsRegistry reg;
    Histogram& h = reg.histogram("lat", {1.0, 10.0});
    h.observe(0.5);
    h.observe(5.0);
    h.observe(50.0);
    h.observe(0.25);
    EXPECT_EQ(h.count(), 4);
    EXPECT_EQ(h.sum(), 55.75);
    auto buckets = h.bucketCounts();
    ASSERT_EQ(buckets.size(), 3u);
    EXPECT_EQ(buckets[0], 2);
    EXPECT_EQ(buckets[1], 1);
    EXPECT_EQ(buckets[2], 1);
}

TEST(Metrics, SnapshotIsNameSortedAcrossKinds)
{
    MetricsRegistry reg;
    reg.gauge("zz").set(1.0);
    reg.counter("aa").add(3);
    reg.histogram("mm").observe(1.0);
    auto snap = reg.snapshot();
    ASSERT_EQ(snap.size(), 3u);
    EXPECT_EQ(snap[0].name, "aa");
    EXPECT_EQ(snap[1].name, "mm");
    EXPECT_EQ(snap[2].name, "zz");
    EXPECT_EQ(snap[0].type, "counter");
    EXPECT_EQ(snap[0].value, 3.0);

    const std::string json = reg.snapshotJson();
    EXPECT_NE(json.find("\"aa\""), std::string::npos);
    EXPECT_LT(json.find("\"aa\""), json.find("\"zz\""));

    reg.clear();
    EXPECT_TRUE(reg.snapshot().empty());
}

TEST(Profile, ScopeMacroCompilesInEveryConfiguration)
{
    // With YUKTA_TRACE=OFF this must compile to nothing; with it ON it
    // records into the global registry. Either way the macro must be
    // usable as a plain statement.
    YUKTA_PROFILE_SCOPE("obs_test_scope");
    SUCCEED();
}

TEST(TraceDiff, IdenticalTracesHaveNoDivergence)
{
    TraceSink a("x");
    a.beginTick(0, 0.0);
    a.record(a.makeEvent("hw", "ssv").num("u", 1.0));
    EXPECT_FALSE(diffTraces(a.events(), a.events()).has_value());
}

TEST(TraceDiff, FirstDivergingFieldIsReported)
{
    TraceSink a("x");
    a.beginTick(0, 0.0);
    a.record(a.makeEvent("hw", "ssv").num("u", 1.0).num("v", 2.0));
    a.beginTick(1, 0.5);
    a.record(a.makeEvent("hw", "ssv").num("u", 1.0).num("v", 2.0));

    TraceSink b("x");
    b.beginTick(0, 0.0);
    b.record(b.makeEvent("hw", "ssv").num("u", 1.0).num("v", 2.0));
    b.beginTick(1, 0.5);
    b.record(b.makeEvent("hw", "ssv").num("u", 1.0).num("v", 2.0 + 1e-12));

    auto d = diffTraces(a.events(), b.events());
    ASSERT_TRUE(d.has_value());
    EXPECT_EQ(d->event_index, 1u);
    EXPECT_EQ(d->tick, 1);
    EXPECT_EQ(d->layer, "hw");
    EXPECT_EQ(d->kind, "ssv");
    EXPECT_EQ(d->field, "v");
    const std::string report = describeDivergence(*d);
    EXPECT_NE(report.find("tick 1"), std::string::npos);
    EXPECT_NE(report.find("'v'"), std::string::npos);
}

TEST(TraceDiff, LengthMismatchIsADivergence)
{
    TraceSink a("x");
    a.beginTick(0, 0.0);
    a.record(a.makeEvent("hw", "ssv"));
    a.record(a.makeEvent("os", "ssv"));
    TraceSink b("x");
    b.beginTick(0, 0.0);
    b.record(b.makeEvent("hw", "ssv"));
    auto d = diffTraces(a.events(), b.events());
    ASSERT_TRUE(d.has_value());
    EXPECT_EQ(d->event_index, 1u);
    EXPECT_EQ(d->field, "(event-count)");
}

TEST(TraceDiff, StreamsDiffLikeEventVectors)
{
    TraceSink a("x");
    a.beginTick(0, 0.0);
    a.record(a.makeEvent("hw", "ssv").num("u", 0.5));
    std::ostringstream oa;
    a.writeJsonl(oa);

    std::istringstream sa(oa.str());
    std::istringstream sb(oa.str());
    EXPECT_FALSE(diffJsonlStreams(sa, sb).has_value());

    TraceSink c("x");
    c.beginTick(0, 0.0);
    c.record(c.makeEvent("hw", "ssv").num("u", 0.75));
    std::ostringstream oc;
    c.writeJsonl(oc);
    std::istringstream sa2(oa.str());
    std::istringstream sc(oc.str());
    auto d = diffJsonlStreams(sa2, sc);
    ASSERT_TRUE(d.has_value());
    EXPECT_EQ(d->field, "u");
}

}  // namespace
}  // namespace yukta::obs
