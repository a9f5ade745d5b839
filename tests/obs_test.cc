/** @file Tests for the observability layer: JSON tree, event tracer
 *  and sinks, stats registry, and interval metrics — including the
 *  system-level trace/export guarantees the camosim flags rely on. */

#include <cstdint>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/obs/interval.h"
#include "src/obs/json.h"
#include "src/obs/registry.h"
#include "src/obs/tracer.h"
#include "src/sim/presets.h"
#include "src/sim/plan.h"
#include "src/sim/system.h"

namespace camo {
namespace {

using obs::Event;
using obs::EventType;

// ----------------------------------------------------------------- json

TEST(Json, DumpCompactObjects)
{
    obs::json::Value v = obs::json::Value::makeObject();
    v["b"] = obs::json::Value(true);
    v["n"] = obs::json::Value(3.5);
    v["i"] = obs::json::Value(std::uint64_t{42});
    v["s"] = obs::json::Value("hi");
    EXPECT_EQ(v.dump(), "{\"b\":true,\"i\":42,\"n\":3.5,\"s\":\"hi\"}");
}

TEST(Json, IntegralNumbersPrintWithoutDecimalPoint)
{
    EXPECT_EQ(obs::json::formatNumber(7.0), "7");
    EXPECT_EQ(obs::json::formatNumber(-3.0), "-3");
    EXPECT_EQ(obs::json::formatNumber(0.5), "0.5");
}

TEST(Json, EscapesControlCharacters)
{
    EXPECT_EQ(obs::json::escape("a\"b\\c\n"), "a\\\"b\\\\c\\n");
}

TEST(Json, ParseHandlesNesting)
{
    const auto v = obs::json::parse(
        " { \"a\" : [1, 2.5, true, null, \"x\\n\"], \"b\": {} } ");
    ASSERT_TRUE(v.isObject());
    const auto *a = v.find("a");
    ASSERT_NE(a, nullptr);
    ASSERT_TRUE(a->isArray());
    ASSERT_EQ(a->asArray().size(), 5u);
    EXPECT_DOUBLE_EQ(a->asArray()[1].asNumber(), 2.5);
    EXPECT_TRUE(a->asArray()[2].asBool());
    EXPECT_TRUE(a->asArray()[3].isNull());
    EXPECT_EQ(a->asArray()[4].asString(), "x\n");
    ASSERT_NE(v.find("b"), nullptr);
    EXPECT_TRUE(v.find("b")->isObject());
}

TEST(Json, TryParseRejectsMalformedInput)
{
    EXPECT_FALSE(obs::json::tryParse("").has_value());
    EXPECT_FALSE(obs::json::tryParse("{").has_value());
    EXPECT_FALSE(obs::json::tryParse("[1,]").has_value());
    EXPECT_FALSE(obs::json::tryParse("{\"a\" 1}").has_value());
    EXPECT_FALSE(obs::json::tryParse("tru").has_value());
    EXPECT_FALSE(obs::json::tryParse("{} trailing").has_value());
}

TEST(Json, RoundTripPreservesEquality)
{
    obs::json::Value v = obs::json::Value::makeObject();
    v["list"] = obs::json::Value::makeArray();
    for (int i = 0; i < 5; ++i)
        v["list"].push(obs::json::Value(i * 1.5));
    v["nested"]["deep"]["flag"] = obs::json::Value(false);
    v["name"] = obs::json::Value("quote \" backslash \\");

    for (const int indent : {0, 2, 4}) {
        const auto parsed = obs::json::tryParse(v.dump(indent));
        ASSERT_TRUE(parsed.has_value()) << "indent=" << indent;
        EXPECT_EQ(*parsed, v) << "indent=" << indent;
    }
}

// --------------------------------------------------------------- tracer

Event
makeEvent(Cycle at, EventType type, CoreId core = 0)
{
    return Event{.at = at, .type = type, .core = core, .id = at + 1,
                 .addr = at * 64, .arg = 7};
}

TEST(Tracer, DisabledEmitsNothing)
{
    obs::Tracer t(8);
    t.emit(makeEvent(1, EventType::LlcMiss));
    EXPECT_EQ(t.emitted(), 0u);
    EXPECT_EQ(t.buffered(), 0u);
}

TEST(Tracer, MacroSkipsNullAndDisabledTracers)
{
    obs::Tracer *null_tracer = nullptr;
    CAMO_TRACE_EVENT(null_tracer, .at = 1,
                     .type = EventType::LlcMiss);
    obs::Tracer t(8);
    CAMO_TRACE_EVENT(&t, .at = 1, .type = EventType::LlcMiss);
    EXPECT_EQ(t.emitted(), 0u);
    t.setEnabled(true);
    CAMO_TRACE_EVENT(&t, .at = 2, .type = EventType::LlcMiss,
                     .core = 3);
    EXPECT_EQ(t.emitted(), 1u);
    EXPECT_EQ(t.snapshot().at(0).core, 3);
}

TEST(Tracer, RingKeepsMostRecentWithoutSink)
{
    obs::Tracer t(4);
    t.setEnabled(true);
    for (Cycle c = 0; c < 10; ++c)
        t.emit(makeEvent(c, EventType::McEnqueue));
    EXPECT_EQ(t.emitted(), 10u);
    EXPECT_EQ(t.dropped(), 6u);
    const auto snap = t.snapshot();
    ASSERT_EQ(snap.size(), 4u);
    for (std::size_t i = 0; i < snap.size(); ++i)
        EXPECT_EQ(snap[i].at, 6 + i) << "oldest-first order";
}

TEST(Tracer, SinkReceivesEveryEvent)
{
    std::ostringstream os;
    obs::Tracer t(4); // much smaller than the event count
    t.setSink(std::make_unique<obs::JsonlTraceSink>(os));
    t.setEnabled(true);
    for (Cycle c = 0; c < 33; ++c)
        t.emit(makeEvent(c, EventType::DramRead));
    t.flush();
    EXPECT_EQ(t.dropped(), 0u);
    std::istringstream is(os.str());
    std::string line;
    std::size_t lines = 0;
    while (std::getline(is, line))
        ++lines;
    EXPECT_EQ(lines, 33u);
}

TEST(Tracer, EventToJsonOmitsAbsentFields)
{
    Event e;
    e.at = 9;
    e.type = EventType::DramRefresh;
    // core/id/addr left at their "absent" defaults.
    const std::string j = obs::eventToJson(e);
    EXPECT_NE(j.find("\"at\":9"), std::string::npos);
    EXPECT_NE(j.find("\"type\":\"dram_refresh\""), std::string::npos);
    EXPECT_EQ(j.find("\"core\""), std::string::npos);
    EXPECT_EQ(j.find("\"id\""), std::string::npos);
    EXPECT_EQ(j.find("\"addr\""), std::string::npos);
    ASSERT_TRUE(obs::json::tryParse(j).has_value());
}

// ------------------------------------------------------------- registry

TEST(Registry, FindResolvesDottedPaths)
{
    StatGroup mc, dram;
    mc.inc("reads.served", 12);
    mc.sample("queue.latency.dram", 4.0);
    mc.sample("queue.latency.dram", 6.0);
    dram.inc("cmd.ACT", 3);

    obs::StatRegistry reg;
    reg.add("mc.ch0", &mc);
    reg.add("mc.ch0.dram", &dram);

    EXPECT_EQ(reg.find("mc.ch0"), &mc);
    EXPECT_EQ(reg.find("mc.ch0.dram"), &dram);
    EXPECT_EQ(reg.find("mc"), nullptr) << "no group at a bare prefix";
    EXPECT_EQ(reg.find("nope"), nullptr);
    EXPECT_EQ(reg.find("mc.ch0")->counter("reads.served"), 12u);
    EXPECT_DOUBLE_EQ(
        reg.find("mc.ch0")->scalar("queue.latency.dram").mean(), 5.0);
    EXPECT_EQ(reg.find("mc.ch0.dram")->counter("cmd.ACT"), 3u);
}

TEST(Registry, JsonTreeNestsByPathSegment)
{
    StatGroup g;
    g.inc("hits", 5);
    obs::StatRegistry reg;
    reg.add("noc.req", &g);

    const obs::json::Value tree = reg.toJson();
    const auto *noc = tree.find("noc");
    ASSERT_NE(noc, nullptr);
    const auto *req = noc->find("req");
    ASSERT_NE(req, nullptr);
    const auto *counters = req->find("counters");
    ASSERT_NE(counters, nullptr);
    const auto *hits = counters->find("hits");
    ASSERT_NE(hits, nullptr);
    EXPECT_DOUBLE_EQ(hits->asNumber(), 5.0);
}

TEST(Registry, SystemStatsJsonRoundTrips)
{
    sim::SystemConfig cfg = sim::paperConfig();
    cfg.numCores = 2;
    cfg.mitigation = sim::Mitigation::BDC;
    sim::System system(sim::SystemPlan(cfg, {"astar", "astar"}));
    system.run(20000);

    obs::StatRegistry reg;
    system.registerStats(reg);
    EXPECT_NE(reg.find("core0"), nullptr);
    EXPECT_NE(reg.find("core1.cache"), nullptr);
    EXPECT_NE(reg.find("shaper.req.core0"), nullptr);
    EXPECT_NE(reg.find("shaper.resp.core1.bins"), nullptr);
    EXPECT_NE(reg.find("mc.ch0.dram"), nullptr);
    EXPECT_NE(reg.find("system"), nullptr);

    const obs::json::Value tree = reg.toJson();
    for (const int indent : {0, 2}) {
        const auto parsed = obs::json::tryParse(tree.dump(indent));
        ASSERT_TRUE(parsed.has_value());
        EXPECT_EQ(*parsed, tree);
    }

    // The tree agrees with the live groups.
    const auto *reads = tree.find("core0")
                            ->find("cache")
                            ->find("counters")
                            ->find("accesses.read");
    ASSERT_NE(reads, nullptr);
    EXPECT_DOUBLE_EQ(
        reads->asNumber(),
        static_cast<double>(
            reg.find("core0.cache")->counter("accesses.read")));
}

// ------------------------------------------------------------- interval

TEST(Interval, CollectsRowsAndExports)
{
    obs::IntervalCollector iv(100, {"a", "b"});
    EXPECT_FALSE(iv.due(99));
    EXPECT_TRUE(iv.due(100));
    iv.addRow(100, {1.0, 2.0});
    EXPECT_FALSE(iv.due(150));
    iv.addRow(200, {3.0, 4.5});

    const std::string csv = iv.toCsv();
    EXPECT_EQ(csv.find("cycle,a,b\n"), 0u);
    EXPECT_NE(csv.find("100,1,2\n"), std::string::npos);
    EXPECT_NE(csv.find("200,3,4.5\n"), std::string::npos);

    const obs::json::Value j = iv.toJson();
    ASSERT_NE(j.find("rows"), nullptr);
    EXPECT_EQ(j.find("rows")->asArray().size(), 2u);
    EXPECT_DOUBLE_EQ(j.find("period")->asNumber(), 100.0);
}

/** BDC with generous bins: plenty of unused credits, so fake traffic
 *  flows whenever the pipeline idles. */
sim::SystemConfig
generousBdcConfig(bool fakes)
{
    sim::SystemConfig cfg = sim::paperConfig();
    cfg.numCores = 2;
    cfg.mitigation = sim::Mitigation::BDC;
    cfg.fakeTraffic = fakes;
    const auto bins = shaper::BinConfig::geometric(
        std::vector<std::uint32_t>(shaper::kDefaultBins, 200), 20, 1.7,
        2000);
    cfg.reqBins = bins;
    cfg.respBins = bins;
    return cfg;
}

TEST(Interval, FakeTrafficColumnsTrackFakeGeneration)
{
    for (const bool fakes : {true, false}) {
        sim::System system(sim::SystemPlan(generousBdcConfig(fakes),
                           {"astar", "astar"}));
        system.enableIntervalStats(5000);
        system.run(30000);

        const obs::IntervalCollector *iv = system.intervalStats();
        ASSERT_NE(iv, nullptr);
        ASSERT_FALSE(iv->rows().empty());

        double fake_total = 0.0;
        const auto &cols = iv->columns();
        for (const auto &row : iv->rows()) {
            for (std::size_t c = 0; c < cols.size(); ++c) {
                if (cols[c].find(".bus.fake") != std::string::npos)
                    fake_total += row.values[c];
            }
        }
        if (fakes)
            EXPECT_GT(fake_total, 0.0);
        else
            EXPECT_EQ(fake_total, 0.0);
    }
}

// --------------------------------------------------- system-level trace

std::string
runTracedJsonl(const sim::SystemConfig &cfg, Cycle cycles)
{
    std::ostringstream os;
    sim::System system(sim::SystemPlan(cfg, {"astar", "astar"}));
    system.tracer().setSink(std::make_unique<obs::JsonlTraceSink>(os));
    system.tracer().setEnabled(true);
    system.run(cycles);
    system.tracer().flush();
    return os.str();
}

/** Golden-file property: the trace of a fixed-seed run is exactly
 *  reproducible, byte for byte. */
TEST(SystemTrace, JsonlTraceIsDeterministic)
{
    const auto cfg = generousBdcConfig(true);
    const std::string a = runTracedJsonl(cfg, 20000);
    const std::string b = runTracedJsonl(cfg, 20000);
    EXPECT_FALSE(a.empty());
    EXPECT_EQ(a, b);
}

TEST(SystemTrace, JsonlSchemaAndLifecycle)
{
    const std::string trace = runTracedJsonl(generousBdcConfig(true),
                                             20000);
    std::istringstream is(trace);
    std::string line;
    std::set<std::string> types;
    Cycle last_at = 0;
    while (std::getline(is, line)) {
        const auto v = obs::json::tryParse(line);
        ASSERT_TRUE(v.has_value()) << "unparseable line: " << line;
        ASSERT_TRUE(v->isObject());
        const auto *at = v->find("at");
        const auto *type = v->find("type");
        ASSERT_NE(at, nullptr);
        ASSERT_NE(type, nullptr);
        ASSERT_TRUE(at->isNumber());
        ASSERT_TRUE(type->isString());
        const auto now = static_cast<Cycle>(at->asNumber());
        EXPECT_GE(now, last_at) << "timestamps must be non-decreasing";
        last_at = now;
        types.insert(type->asString());
    }
    // The full request lifecycle must be visible.
    for (const char *expected :
         {"core_mem_issue", "llc_miss", "req_shaper_enqueue",
          "req_shaper_release", "req_channel_grant", "mc_enqueue",
          "mc_serve", "dram_read", "resp_shaper_enqueue",
          "resp_shaper_release", "resp_channel_grant",
          "resp_delivered", "bin_replenish"}) {
        EXPECT_TRUE(types.count(expected))
            << "missing lifecycle event: " << expected;
    }
}

TEST(SystemTrace, FakeEventsOnlyWhenFakeTrafficEnabled)
{
    for (const bool fakes : {true, false}) {
        const std::string trace =
            runTracedJsonl(generousBdcConfig(fakes), 20000);
        const bool has_fake =
            trace.find("req_shaper_fake") != std::string::npos ||
            trace.find("resp_shaper_fake") != std::string::npos;
        EXPECT_EQ(has_fake, fakes);
    }
}

TEST(SystemTrace, DisabledTracerStaysSilent)
{
    sim::SystemConfig cfg = sim::paperConfig();
    cfg.numCores = 2;
    sim::System system(sim::SystemPlan(cfg, {"astar", "astar"}));
    system.run(5000);
    EXPECT_EQ(system.tracer().emitted(), 0u);
    EXPECT_EQ(system.tracer().buffered(), 0u);
}

} // namespace
} // namespace camo
