/**
 * @file
 * Attack-scenario subsystem tests: the trace-ingestion frontend
 * (golden-fixture round-trips, the malformed-input rejection matrix,
 * jobs=1 == jobs=N bit-identity), the RowHammer defense model, the
 * scenario registry (including byte-equality between the embedded
 * topologies and the shipped examples/topologies/ files and the
 * daemon's JobSpec scenario field), and the directional channel
 * claims the catalog makes: each channel opens unshaped and closes
 * measurably under shaping.
 */

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/dram/rowhammer.h"
#include "src/hard/error.h"
#include "src/obs/json.h"
#include "src/scenario/scenario.h"
#include "src/server/job.h"
#include "src/sim/parallel.h"
#include "src/sim/topology.h"
#include "src/trace/covert.h"
#include "src/trace/file_trace.h"
#include "src/trace/workloads.h"

using namespace camo;

namespace {

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in) << "cannot open " << path;
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

std::string
goldenPath(const std::string &name)
{
    return std::string(CAMO_GOLDEN_DIR) + "/" + name;
}

// ---------------------------------------------------------------
// DRAMSim2 parsing
// ---------------------------------------------------------------

TEST(FileTraceDramSim2, GoldenFixtureRoundTripsByteExact)
{
    const std::string text = readFile(goldenPath("trace_dramsim2.trc"));
    const std::vector<trace::TraceItem> items =
        trace::parseDramSim2Trace(text, "golden");
    ASSERT_EQ(items.size(), 8u);

    // First record: absolute cycle becomes the initial wait.
    EXPECT_EQ(items[0].waitCycles, 10u);
    EXPECT_EQ(items[0].addr, 0x2000u);
    EXPECT_FALSE(items[0].isWrite);
    // Later records: deltas.
    EXPECT_EQ(items[1].waitCycles, 2u);
    EXPECT_EQ(items[2].waitCycles, 18u);
    EXPECT_TRUE(items[2].isWrite);
    EXPECT_EQ(items[5].addr, 0x10040u);
    EXPECT_TRUE(items[5].isWrite);

    // The fixture is in canonical form, so format(parse(x)) == x.
    EXPECT_EQ(trace::formatDramSim2Trace(items), text);
}

TEST(FileTraceDramSim2, ToleratesCommentsAndBlankLines)
{
    const std::string messy =
        "# header comment\n"
        "\n"
        "0x2000 P_MEM_RD 10   ; trailing comment\n"
        "   0x2040 P_MEM_WR 12\n";
    const auto items = trace::parseDramSim2Trace(messy, "messy");
    ASSERT_EQ(items.size(), 2u);
    EXPECT_EQ(items[1].waitCycles, 2u);
    EXPECT_TRUE(items[1].isWrite);
}

TEST(FileTraceDramSim2, BuiltinSampleRoundTrips)
{
    const std::string &sample =
        trace::builtinSampleTrace(trace::TraceFileFormat::DramSim2);
    const auto items = trace::parseDramSim2Trace(sample, "sample");
    EXPECT_GT(items.size(), 100u);
    EXPECT_EQ(trace::formatDramSim2Trace(items), sample);
}

/** Every malformed input must raise hard::ConfigError whose message
 *  names the offending token and its byte offset. */
TEST(FileTraceDramSim2, RejectionMatrix)
{
    struct Case
    {
        const char *text;
        const char *needle; ///< must appear in the error message
    };
    const Case cases[] = {
        {"0x2000 P_MEM_RD\n", "token '0x2000' at byte 0"},
        {"0x2000 P_MEM_RD 5 extra\n", "token 'extra' at byte 18"},
        {"zzz P_MEM_RD 5\n", "bad address token 'zzz' at byte 0"},
        {"0x2000 P_MEM_XX 5\n",
         "unknown command token 'P_MEM_XX' at byte 7"},
        {"0x2000 P_MEM_RD 5x\n", "bad cycle token '5x' at byte 16"},
        // 17 hex digits overflow 64 bits; they must not wrap.
        {"0x10000000000000000 P_MEM_RD 5\n",
         "bad address token '0x10000000000000000' at byte 0"},
        {"0x2000 P_MEM_RD 50\n0x2040 P_MEM_RD 40\n",
         "non-monotonic cycle token '40' at byte 35"},
        {"# only a comment\n", "contains no memory operations"},
        {"", "contains no memory operations"},
    };
    for (const Case &c : cases) {
        try {
            trace::parseDramSim2Trace(c.text, "bad");
            FAIL() << "accepted: " << c.text;
        } catch (const hard::ConfigError &e) {
            EXPECT_NE(std::string(e.what()).find(c.needle),
                      std::string::npos)
                << "message '" << e.what() << "' lacks '" << c.needle
                << "'";
        }
    }
}

// ---------------------------------------------------------------
// ChampSim parsing
// ---------------------------------------------------------------

TEST(FileTraceChampSim, GoldenFixtureParses)
{
    const std::string bytes = readFile(goldenPath("trace_champsim.bin"));
    ASSERT_EQ(bytes.size(), 256u); // four 64-byte input_instr records
    const auto items = trace::parseChampSimTrace(bytes, "golden");
    // Record 0: one load; records 1-2: no memory ops (widen the gap);
    // record 3: one load + one store.
    ASSERT_EQ(items.size(), 3u);
    EXPECT_EQ(items[0].addr, 0x50000000u);
    EXPECT_FALSE(items[0].isWrite);
    EXPECT_EQ(items[0].gapInstrs, 0u);
    EXPECT_EQ(items[1].addr, 0x50000040u);
    EXPECT_FALSE(items[1].isWrite);
    EXPECT_EQ(items[1].gapInstrs, 2u); // the two non-memory records
    EXPECT_EQ(items[2].addr, 0x60000000u);
    EXPECT_TRUE(items[2].isWrite);
    EXPECT_EQ(items[2].gapInstrs, 0u); // same instruction as items[1]
}

TEST(FileTraceChampSim, BuiltinSampleParses)
{
    const std::string &sample =
        trace::builtinSampleTrace(trace::TraceFileFormat::ChampSim);
    EXPECT_EQ(sample.size() % 64, 0u);
    const auto items = trace::parseChampSimTrace(sample, "sample");
    EXPECT_GT(items.size(), 100u);
}

TEST(FileTraceChampSim, RejectionMatrix)
{
    try {
        trace::parseChampSimTrace("", "bad");
        FAIL() << "accepted empty trace";
    } catch (const hard::ConfigError &e) {
        EXPECT_NE(std::string(e.what()).find("empty ChampSim trace"),
                  std::string::npos);
    }
    try {
        trace::parseChampSimTrace(std::string(65, '\0'), "bad");
        FAIL() << "accepted truncated trace";
    } catch (const hard::ConfigError &e) {
        EXPECT_NE(
            std::string(e.what()).find("truncated ChampSim record "
                                       "at byte 64"),
            std::string::npos)
            << e.what();
    }
    try {
        // One whole record with every memory slot zero.
        trace::parseChampSimTrace(std::string(64, '\0'), "bad");
        FAIL() << "accepted memory-op-free trace";
    } catch (const hard::ConfigError &e) {
        EXPECT_NE(
            std::string(e.what()).find("contains no memory operations"),
            std::string::npos);
    }
}

// ---------------------------------------------------------------
// gem5 parsing
// ---------------------------------------------------------------

TEST(FileTraceGem5, GoldenFixtureParses)
{
    const std::string text = readFile(goldenPath("trace_gem5.csv"));
    const std::vector<trace::TraceItem> items =
        trace::parseGem5Trace(text, "golden");
    // Five packets; the 128-byte WriteReq spans two 64-byte lines.
    ASSERT_EQ(items.size(), 6u);

    // First record: absolute tick becomes the initial wait.
    EXPECT_EQ(items[0].waitCycles, 1000u);
    EXPECT_EQ(items[0].addr, 0x2000u);
    EXPECT_FALSE(items[0].isWrite);
    // Later records: tick deltas.
    EXPECT_EQ(items[1].waitCycles, 10u);
    EXPECT_EQ(items[1].addr, 0x2040u);
    EXPECT_TRUE(items[1].isWrite);
    // Decimal address (gem5's native dump form).
    EXPECT_EQ(items[2].waitCycles, 30u);
    EXPECT_EQ(items[2].addr, 8192u);
    EXPECT_FALSE(items[2].isWrite);
    // 128-byte packet: first line keeps the exact address and the
    // tick delta, the continuation line is 64-aligned and immediate.
    EXPECT_EQ(items[3].waitCycles, 60u);
    EXPECT_EQ(items[3].addr, 0x3fc0u);
    EXPECT_TRUE(items[3].isWrite);
    EXPECT_EQ(items[4].waitCycles, 0u);
    EXPECT_EQ(items[4].addr, 0x4000u);
    EXPECT_TRUE(items[4].isWrite);
    // Sub-line packet within one 64-byte line: exact address kept.
    EXPECT_EQ(items[5].waitCycles, 100u);
    EXPECT_EQ(items[5].addr, 0x5010u);
    EXPECT_FALSE(items[5].isWrite);
}

TEST(FileTraceGem5, ToleratesCsvWhitespaceAndComments)
{
    const std::string messy =
        "# header comment\n"
        "\n"
        "  1000 , r , 0x2000 , 64  ; trailing comment is a comment\n"
        "1010,w,0x2040,64\n";
    // The ';' comment rule applies to whole lines only; a trailing
    // comment would corrupt the SIZE field, so keep it out of the
    // tolerated set — only per-field whitespace and full-line
    // comments must pass.
    try {
        (void)trace::parseGem5Trace(messy, "messy");
        FAIL() << "trailing comment should corrupt the size field";
    } catch (const hard::ConfigError &e) {
        EXPECT_NE(std::string(e.what()).find("bad size"),
                  std::string::npos)
            << e.what();
    }
    const std::string clean =
        "# header comment\n"
        "\n"
        "  1000 , r , 0x2000 , 64\n"
        "; another comment style\n"
        "1010,w,0x2040,64\n";
    const auto items = trace::parseGem5Trace(clean, "clean");
    ASSERT_EQ(items.size(), 2u);
    EXPECT_EQ(items[0].waitCycles, 1000u);
    EXPECT_EQ(items[1].waitCycles, 10u);
    EXPECT_TRUE(items[1].isWrite);
}

TEST(FileTraceGem5, BuiltinSampleParses)
{
    const std::string &sample =
        trace::builtinSampleTrace(trace::TraceFileFormat::Gem5);
    const auto items = trace::parseGem5Trace(sample, "sample");
    EXPECT_GT(items.size(), 100u);
    // The sample includes 128-byte packets, so continuation items
    // (waitCycles == 0, 64-aligned address) must appear.
    std::size_t continuations = 0;
    for (const trace::TraceItem &item : items) {
        if (item.waitCycles == 0) {
            ++continuations;
            EXPECT_EQ(item.addr % 64, 0u);
        }
    }
    EXPECT_GT(continuations, 0u);
}

/** Same contract as the DRAMSim2 matrix: every malformed input
 *  raises hard::ConfigError naming the offending token and its
 *  absolute byte offset. */
TEST(FileTraceGem5, RejectionMatrix)
{
    struct Case
    {
        const char *text;
        const char *needle;
    };
    const Case cases[] = {
        {"1000,r,0x2000\n",
         "incomplete record (want TICK,CMD,ADDR,SIZE) at token "
         "'1000' at byte 0"},
        {"1000,r,0x2000,64,9\n",
         "unexpected trailing token '9' at byte 17"},
        {"10x0,r,0x2000,64\n", "bad tick token '10x0' at byte 0"},
        {"18446744073709551616,r,0x2000,64\n",
         "bad tick token '18446744073709551616' at byte 0"},
        {"100,r,0x2000,64\n90,r,0x2000,64\n",
         "non-monotonic tick token '90' at byte 16"},
        {"1000,x,0x2000,64\n", "unknown command token 'x' at byte 5"},
        {"1000,,0x2000,64\n", "unknown command token '' at byte 5"},
        {"1000,r,0xZZ,64\n", "bad address token '0xZZ' at byte 7"},
        {"1000,r,12a4,64\n", "bad address token '12a4' at byte 7"},
        {"1000,r,0x2000,0\n",
         "bad size (1..4096 bytes) token '0' at byte 14"},
        {"1000,r,0x2000,4097\n",
         "bad size (1..4096 bytes) token '4097' at byte 14"},
        {"1000,r,0xFFFFFFFFFFFFFFC0,128\n",
         "bad address (packet wraps past 2^64) token '0xFFFFFFFFFFFFFFC0' "
         "at byte 7"},
        {"# only a comment\n", "contains no memory operations"},
        {"", "contains no memory operations"},
    };
    for (const Case &c : cases) {
        try {
            trace::parseGem5Trace(c.text, "bad");
            FAIL() << "accepted: " << c.text;
        } catch (const hard::ConfigError &e) {
            EXPECT_NE(std::string(e.what()).find(c.needle),
                      std::string::npos)
                << "message '" << e.what() << "' lacks '" << c.needle
                << "'";
        }
    }
}

// ---------------------------------------------------------------
// Workload-name frontend
// ---------------------------------------------------------------

TEST(TraceWorkloads, ScenarioNamesAreKnown)
{
    EXPECT_TRUE(trace::isKnownWorkload("hammer:2AAAAAAA"));
    EXPECT_TRUE(trace::isKnownWorkload("pim:5A5A5A5A:5000"));
    EXPECT_TRUE(trace::isKnownWorkload("dramsim2:@sample"));
    EXPECT_TRUE(trace::isKnownWorkload("champsim:@sample"));
    EXPECT_TRUE(trace::isKnownWorkload("gem5:@sample"));
    EXPECT_TRUE(trace::isKnownWorkload("webdiurnal"));
    EXPECT_TRUE(trace::isKnownWorkload("webdiurnal:4800"));
    EXPECT_FALSE(trace::isKnownWorkload("rowhammer"));
    EXPECT_FALSE(trace::isKnownWorkload("gem5"));
    EXPECT_FALSE(trace::isKnownWorkload("webdiurnalish"));
}

TEST(TraceWorkloads, MalformedNamesNameTokenAndOffset)
{
    struct Case
    {
        const char *name;
        const char *needle;
    };
    const Case cases[] = {
        {"hammer:XYZ", "token 'XYZ' at byte 7"},
        {"hammer:123456789",
         "bad covert key (1..8 hex digits expected)"},
        {"pim:2AAAAAAA:50", "bad PIM pulse (cycles >= 100) token '50'"},
        {"pim:2AAAAAAA:12x", "token '12x'"},
        // A sign is not a digit: these used to wrap to 2^64 - N.
        {"probe:-5", "bad probe cadence (cycles >= 1) token '-5' at byte 6"},
        {"pim:2AAAAAAA:-100",
         "bad PIM pulse (cycles >= 100) token '-100' at byte 13"},
        {"webdiurnal: 48", "token ' 48' at byte 11"},
        {"dramsim2:@nope", "unknown builtin trace '@nope'"},
        {"champsim:/nonexistent/path.bin", "cannot open trace file"},
        {"gem5:@nope", "unknown builtin trace '@nope'"},
        {"gem5:/nonexistent/path.csv", "cannot open trace file"},
        {"webdiurnal:",
         "bad day length (instructions >= 24) token '' at byte 11"},
        {"webdiurnal:23",
         "bad day length (instructions >= 24) token '23' at byte 11"},
        {"webdiurnal:24x", "token '24x' at byte 11"},
    };
    for (const Case &c : cases) {
        try {
            trace::compileWorkload(c.name);
            FAIL() << "accepted workload " << c.name;
        } catch (const hard::ConfigError &e) {
            EXPECT_NE(std::string(e.what()).find(c.needle),
                      std::string::npos)
                << "message '" << e.what() << "' lacks '" << c.needle
                << "'";
        }
    }
}

TEST(TraceWorkloads, WebDiurnalIsDeterministicPerSeed)
{
    auto drain = [](std::uint64_t seed) {
        auto src = trace::compileWorkload("webdiurnal:4800")
                       .instantiate(seed, 0x1000);
        std::vector<trace::TraceItem> out;
        for (int i = 0; i < 500; ++i)
            out.push_back(src->next(0));
        return out;
    };
    const auto a = drain(7);
    const auto b = drain(7);
    const auto c = drain(8);
    ASSERT_EQ(a.size(), b.size());
    bool differs = false;
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].addr, b[i].addr);
        EXPECT_EQ(a[i].gapInstrs, b[i].gapInstrs);
        EXPECT_EQ(a[i].isWrite, b[i].isWrite);
        if (a[i].addr != c[i].addr || a[i].gapInstrs != c[i].gapInstrs)
            differs = true;
    }
    EXPECT_TRUE(differs) << "seed must drive the request stream";
}

TEST(TraceWorkloads, WebDiurnalStreamsResponseBursts)
{
    // Every request touches the hot region then streams cold lines
    // back-to-back; over a long drain both phases must appear, and
    // burst items must be sequential 64-byte strides.
    auto src = trace::compileWorkload("webdiurnal").instantiate(1, 0);
    std::size_t hot = 0;
    std::size_t sequential = 0;
    trace::TraceItem prev = src->next(0);
    for (int i = 0; i < 3000; ++i) {
        const trace::TraceItem item = src->next(0);
        if (item.addr < 32 * 1024)
            ++hot;
        if (item.gapInstrs == 0 && item.addr == prev.addr + 64)
            ++sequential;
        prev = item;
    }
    EXPECT_GT(hot, 10u);
    EXPECT_GT(sequential, 100u);
}

TEST(TraceWorkloads, WebDiurnalSelectableFromTopologyJson)
{
    const sim::TopologyConfig topo = sim::parseTopology(
        "{\"workloads\": [\"webdiurnal:4800\", \"mcf\"], "
        "\"mitigation\": \"cs\"}");
    ASSERT_EQ(topo.workloads.size(), 2u);
    EXPECT_EQ(topo.workloads[0], "webdiurnal:4800");

    // And a malformed day length fails topology validation too —
    // compileWorkload runs when the system is built.
    std::vector<sim::SimJob> batch;
    batch.push_back({topo.system,
                     {"webdiurnal:9", "mcf"},
                     10000,
                     1000});
    EXPECT_THROW((void)sim::runConfigsParallel(batch, 1),
                 hard::ConfigError);
}

TEST(TraceWorkloads, FileTraceLoopsForever)
{
    auto src =
        trace::compileWorkload("dramsim2:@sample").instantiate(1, 0x1000);
    const trace::TraceItem first = src->next(0);
    EXPECT_TRUE(first.hasMemOp());
    // Drain well past one file length; the stream must keep going.
    for (int i = 0; i < 2000; ++i)
        (void)src->next(0);
    const trace::TraceItem again = src->next(0);
    EXPECT_TRUE(again.hasMemOp() || again.waitCycles > 0);
}

// ---------------------------------------------------------------
// RowHammer defense model
// ---------------------------------------------------------------

TEST(RowHammerDefense, StallsEveryThresholdActivations)
{
    dram::RowHammerConfig cfg;
    cfg.enabled = true;
    cfg.actThreshold = 4;
    cfg.rfmDramCycles = 100;
    const dram::DramOrganization org; // default: 1 rank, 8 banks
    dram::RowHammerDefense rh(cfg, org);

    dram::DramAddress da{};
    da.rank = 0;
    da.bank = 3;
    for (int i = 0; i < 3; ++i)
        rh.onActivate(da, 1000 + i);
    EXPECT_FALSE(rh.busy(1003));
    EXPECT_EQ(rh.activationCount(0, 3), 3u);

    rh.onActivate(da, 1003); // 4th ACT crosses the threshold
    EXPECT_TRUE(rh.busy(1003));
    EXPECT_TRUE(rh.busy(1102));
    EXPECT_FALSE(rh.busy(1103)); // busyUntil is exclusive
    EXPECT_EQ(rh.busyUntil(), 1103u);
    EXPECT_EQ(rh.activationCount(0, 3), 0u); // RFM resets the bank
    EXPECT_EQ(rh.stats().counter("rfm.issued"), 1u);
    EXPECT_EQ(rh.stats().counter("activations"), 4u);
    EXPECT_EQ(rh.stats().counter("rfm.stall_dram_cycles"), 100u);
}

TEST(RowHammerDefense, BanksCountIndependentlyAndRefreshClears)
{
    dram::RowHammerConfig cfg;
    cfg.enabled = true;
    cfg.actThreshold = 4;
    const dram::DramOrganization org;
    dram::RowHammerDefense rh(cfg, org);

    dram::DramAddress a{};
    a.bank = 0;
    dram::DramAddress b{};
    b.bank = 1;
    rh.onActivate(a, 10);
    rh.onActivate(a, 11);
    rh.onActivate(b, 12);
    EXPECT_EQ(rh.activationCount(0, 0), 2u);
    EXPECT_EQ(rh.activationCount(0, 1), 1u);
    EXPECT_FALSE(rh.busy(13));

    rh.onRefresh(0); // REF resets every bank counter in the rank
    EXPECT_EQ(rh.activationCount(0, 0), 0u);
    EXPECT_EQ(rh.activationCount(0, 1), 0u);
}

// ---------------------------------------------------------------
// Scenario registry
// ---------------------------------------------------------------

TEST(ScenarioRegistry, CatalogListsAllScenarios)
{
    const auto &all = scenario::scenarios();
    ASSERT_EQ(all.size(), 3u);
    EXPECT_NE(scenario::findScenario("rowhammer-trr"), nullptr);
    EXPECT_NE(scenario::findScenario("pim-covert"), nullptr);
    EXPECT_NE(scenario::findScenario("trace-replay"), nullptr);
    EXPECT_EQ(scenario::findScenario("nope"), nullptr);

    const std::string text = scenario::listScenariosText();
    for (const auto &s : all) {
        EXPECT_NE(text.find(s.name), std::string::npos);
        EXPECT_NE(text.find(s.title), std::string::npos);
    }
}

TEST(ScenarioRegistry, EmbeddedTopologiesMatchShippedFiles)
{
    // The embedded strings must stay byte-identical to the files
    // under examples/topologies/, so --scenario=NAME and
    // --config=FILE can never drift apart.
    const struct
    {
        const char *ref;
        const char *file;
    } pins[] = {
        {"rowhammer-trr", "rowhammer_trr.json"},
        {"rowhammer-trr:shaped", "rowhammer_trr_shaped.json"},
        {"pim-covert", "pim_covert.json"},
        {"pim-covert:shaped", "pim_covert_shaped.json"},
        {"trace-replay", "trace_replay.json"},
        {"trace-replay:shaped", "trace_replay_shaped.json"},
    };
    for (const auto &p : pins) {
        EXPECT_EQ(scenario::scenarioTopologyJson(p.ref),
                  readFile(std::string(CAMO_TOPOLOGY_DIR) + "/" +
                           p.file))
            << p.ref << " drifted from " << p.file;
    }
}

TEST(ScenarioRegistry, EveryTopologyParses)
{
    for (const auto &s : scenario::scenarios()) {
        EXPECT_NO_THROW(sim::parseTopology(s.openTopologyJson))
            << s.name;
        EXPECT_NO_THROW(sim::parseTopology(s.shapedTopologyJson))
            << s.name;
    }
}

TEST(ScenarioRegistry, UnknownRefsRaiseConfigError)
{
    try {
        scenario::scenarioTopologyJson("nope");
        FAIL();
    } catch (const hard::ConfigError &e) {
        EXPECT_NE(std::string(e.what()).find("unknown scenario token "
                                             "'nope'"),
                  std::string::npos)
            << e.what();
    }
    try {
        scenario::scenarioTopologyJson("pim-covert:midway");
        FAIL();
    } catch (const hard::ConfigError &e) {
        EXPECT_NE(std::string(e.what()).find("unknown variant token "
                                             "'midway'"),
                  std::string::npos)
            << e.what();
    }
}

TEST(ScenarioRegistry, RowHammerTopologyEnablesDefense)
{
    const sim::TopologyConfig topo = sim::parseTopology(
        scenario::scenarioTopologyJson("rowhammer-trr"));
    EXPECT_TRUE(topo.system.mc.rowhammer.enabled);
    EXPECT_EQ(topo.system.mc.rowhammer.actThreshold, 16u);
    EXPECT_EQ(topo.system.mc.rowhammer.rfmDramCycles, 180u);

    // And a malformed rowhammer clause names the offending key.
    try {
        sim::parseTopology("{\"workloads\": [\"mcf\"], \"rowhammer\": "
                           "{\"enabled\": true, \"threshold\": 9}}");
        FAIL();
    } catch (const hard::ConfigError &e) {
        EXPECT_NE(std::string(e.what()).find("threshold"),
                  std::string::npos)
            << e.what();
    }
}

TEST(ScenarioRegistry, JobSpecAcceptsScenarioField)
{
    obs::json::Value doc = obs::json::Value::makeObject();
    doc["scenario"] = obs::json::Value(std::string("pim-covert"));
    doc["cycles"] = obs::json::Value(static_cast<std::uint64_t>(1000));
    server::JobSpec spec;
    std::string error;
    ASSERT_TRUE(server::JobSpec::fromJson(doc, &spec, &error)) << error;
    EXPECT_EQ(spec.config.dump(),
              obs::json::parse(
                  scenario::scenarioTopologyJson("pim-covert"))
                  .dump());

    doc["scenario"] = obs::json::Value(std::string("nope"));
    EXPECT_FALSE(server::JobSpec::fromJson(doc, &spec, &error));
    EXPECT_NE(error.find("unknown scenario"), std::string::npos);

    // config and scenario together is ambiguous, so it is an error.
    doc["scenario"] = obs::json::Value(std::string("pim-covert"));
    doc["config"] = obs::json::Value::makeObject();
    EXPECT_FALSE(server::JobSpec::fromJson(doc, &spec, &error));
    EXPECT_NE(error.find("pick one"), std::string::npos);
}

// ---------------------------------------------------------------
// Determinism: trace-driven runs are bit-exact across jobs=1/N
// ---------------------------------------------------------------

TEST(ScenarioDeterminism, TraceRunsBitExactAcrossWorkerCounts)
{
    const sim::TopologyConfig topo = sim::parseTopology(
        scenario::scenarioTopologyJson("trace-replay"));
    std::vector<sim::SimJob> batch;
    for (std::uint64_t s = 0; s < 3; ++s) {
        sim::SystemConfig cfg = topo.system;
        cfg.seed = topo.system.seed + s;
        batch.push_back({cfg, topo.workloads, 60000, 5000});
    }
    const auto serial = sim::runConfigsParallel(batch, 1);
    const auto fanned = sim::runConfigsParallel(batch, 3);
    ASSERT_EQ(serial.size(), fanned.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
        EXPECT_EQ(serial[i].cycles, fanned[i].cycles);
        EXPECT_EQ(serial[i].ipc, fanned[i].ipc);
        EXPECT_EQ(serial[i].retired, fanned[i].retired);
        EXPECT_EQ(serial[i].servedReads, fanned[i].servedReads);
        EXPECT_EQ(serial[i].avgReadLatency, fanned[i].avgReadLatency);
        EXPECT_EQ(serial[i].alpha, fanned[i].alpha);
    }
}

// ---------------------------------------------------------------
// Directional channel claims (the catalog's acceptance numbers)
// ---------------------------------------------------------------

TEST(ScenarioChannels, RowHammerOpensUnshapedAndClosesUnderShaping)
{
    const scenario::ScenarioSpec *spec =
        scenario::findScenario("rowhammer-trr");
    ASSERT_NE(spec, nullptr);
    const scenario::ScenarioResult r =
        scenario::evaluateScenario(*spec);

    // Open: the decoder reads the key well below the 0.5 coin-flip
    // line, the RFM mechanism actually fires, and the windowed MI is
    // clearly above the estimator noise floor.
    EXPECT_LT(r.open.ber, 0.25);
    EXPECT_GT(r.open.rfmStalls, 100u);
    EXPECT_GT(r.open.windowMiBits, 0.05);

    // Shaped: the channel is measurably reduced, directionally and
    // by a comfortable margin in capacity.
    EXPECT_GT(r.shaped.ber, r.open.ber);
    EXPECT_LT(r.shaped.channelCapacityBits,
              0.5 * r.open.channelCapacityBits);
    EXPECT_LT(r.shaped.windowMiBits, r.open.windowMiBits);
}

TEST(ScenarioChannels, PimChannelIsFasterAndClosesUnderShaping)
{
    const scenario::ScenarioSpec *pim =
        scenario::findScenario("pim-covert");
    const scenario::ScenarioSpec *rh =
        scenario::findScenario("rowhammer-trr");
    ASSERT_NE(pim, nullptr);
    ASSERT_NE(rh, nullptr);
    const scenario::ScenarioResult rp =
        scenario::evaluateScenario(*pim);
    const scenario::ScenarioResult rr = scenario::evaluateScenario(*rh);

    EXPECT_LT(rp.open.ber, 0.25);
    EXPECT_GT(rp.open.windowMiBits, 0.05);
    // The PIM amplification claim: more capacity per cycle than the
    // RowHammer channel despite 4x shorter pulses.
    EXPECT_GT(rp.open.channelCapacityBits /
                  static_cast<double>(pim->pulseCycles),
              rr.open.channelCapacityBits /
                  static_cast<double>(rh->pulseCycles));

    EXPECT_GT(rp.shaped.ber, rp.open.ber);
    EXPECT_LT(rp.shaped.channelCapacityBits,
              0.5 * rp.open.channelCapacityBits);
}

TEST(ScenarioChannels, TraceReplayLeakIsCutByShaping)
{
    const scenario::ScenarioSpec *spec =
        scenario::findScenario("trace-replay");
    ASSERT_NE(spec, nullptr);
    const scenario::ScenarioResult r =
        scenario::evaluateScenario(*spec);

    EXPECT_GT(r.open.windowMiBits, 0.05);
    EXPECT_LT(r.shaped.windowMiBits, 0.5 * r.open.windowMiBits);
    // Shaping trace-driven cores costs throughput; the catalog
    // records the price, the test just pins that it is accounted.
    EXPECT_GE(r.slowdown, 1.0);
}

} // namespace
