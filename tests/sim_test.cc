/** @file Integration tests: the assembled system reproduces the
 *  paper's mechanisms end to end. */

#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/hard/error.h"
#include "src/security/mutual_information.h"
#include "src/sim/plan.h"
#include "src/sim/presets.h"
#include "src/sim/runner.h"

namespace camo::sim {
namespace {

// ------------------------------------------------------- construction

TEST(System, ShapersMatchMitigation)
{
    const auto mix = adversaryMix("astar", "astar");
    {
        SystemConfig cfg = paperConfig();
        System s(SystemPlan(cfg, mix));
        EXPECT_EQ(s.requestShaper(0), nullptr);
        EXPECT_EQ(s.responseShaper(0), nullptr);
    }
    {
        SystemConfig cfg = paperConfig();
        cfg.mitigation = Mitigation::ReqC;
        System s(SystemPlan(cfg, mix));
        EXPECT_NE(s.requestShaper(0), nullptr);
        EXPECT_EQ(s.responseShaper(0), nullptr);
    }
    {
        SystemConfig cfg = paperConfig();
        cfg.mitigation = Mitigation::RespC;
        System s(SystemPlan(cfg, mix));
        EXPECT_EQ(s.requestShaper(0), nullptr);
        EXPECT_NE(s.responseShaper(0), nullptr);
    }
    {
        SystemConfig cfg = paperConfig();
        cfg.mitigation = Mitigation::BDC;
        System s(SystemPlan(cfg, mix));
        EXPECT_NE(s.requestShaper(0), nullptr);
        EXPECT_NE(s.responseShaper(0), nullptr);
    }
}

TEST(System, ShapeCoreMaskRespected)
{
    SystemConfig cfg = paperConfig();
    cfg.mitigation = Mitigation::ReqC;
    cfg.shapeCore = {true, false, true, false};
    System s(SystemPlan(cfg, adversaryMix("astar", "astar")));
    EXPECT_NE(s.requestShaper(0), nullptr);
    EXPECT_EQ(s.requestShaper(1), nullptr);
    EXPECT_NE(s.requestShaper(2), nullptr);
    EXPECT_EQ(s.requestShaper(3), nullptr);
}

TEST(System, SchedulerFollowsMitigation)
{
    const auto mix = adversaryMix("astar", "astar");
    {
        SystemConfig cfg = paperConfig();
        cfg.mitigation = Mitigation::TP;
        System s(SystemPlan(cfg, mix));
        EXPECT_STREQ(s.memory().channel(0).scheduler().name(), "TP");
    }
    {
        SystemConfig cfg = paperConfig();
        cfg.mitigation = Mitigation::FS;
        System s(SystemPlan(cfg, mix));
        EXPECT_STREQ(s.memory().channel(0).scheduler().name(), "FS");
        EXPECT_TRUE(s.memory().channel(0).config().bankPartitioning);
    }
}

TEST(System, WorkloadCountMustMatchCores)
{
    SystemConfig cfg = paperConfig();
    EXPECT_THROW(System(SystemPlan(cfg, {"astar"})), hard::ConfigError);
}

TEST(Presets, BannerDescribesTheConfiguredMachine)
{
    // The paper machine's banner is the text every bench prints.
    EXPECT_EQ(systemBanner(paperConfig()),
              "# System (paper Table II): 4 cores, 2.4GHz, 4-wide, "
              "128-entry window\n"
              "# L1 32KB/4-way, L2 128KB/8-way private, 64B lines, "
              "8 MSHRs\n"
              "# MC: 32-entry transaction queue; DDR3-1333, 1 channel, "
              "1 rank, 8 banks, 8KB rows\n");

    SystemConfig cfg = paperConfig();
    cfg.numCores = 8;
    cfg.mc.org.channels = 4;
    const std::string banner = systemBanner(cfg);
    EXPECT_EQ(banner.rfind("# System: 8 cores, ", 0), 0u) << banner;
    EXPECT_NE(banner.find("DDR3-1333, 4 channels, 1 rank,"),
              std::string::npos)
        << banner;
}

// ------------------------------------------------------- determinism

TEST(System, DeterministicForEqualSeeds)
{
    const auto mix = adversaryMix("mcf", "astar");
    SystemConfig cfg = paperConfig();
    cfg.mitigation = Mitigation::BDC;
    cfg.seed = 77;
    const auto a = runConfig(cfg, mix, 30000);
    const auto b = runConfig(cfg, mix, 30000);
    for (std::uint32_t i = 0; i < 4; ++i) {
        EXPECT_EQ(a.retired[i], b.retired[i]) << "core " << i;
        EXPECT_EQ(a.servedReads[i], b.servedReads[i]) << "core " << i;
    }
}

TEST(System, DifferentSeedsDiffer)
{
    const auto mix = adversaryMix("mcf", "astar");
    SystemConfig cfg = paperConfig();
    cfg.seed = 1;
    const auto a = runConfig(cfg, mix, 30000);
    cfg.seed = 2;
    const auto b = runConfig(cfg, mix, 30000);
    bool any_diff = false;
    for (std::uint32_t i = 0; i < 4; ++i)
        any_diff = any_diff || a.retired[i] != b.retired[i];
    EXPECT_TRUE(any_diff);
}

// ---------------------------------------------------------- mechanics

TEST(System, MemoryTrafficFlows)
{
    SystemConfig cfg = paperConfig();
    System s(SystemPlan(cfg, adversaryMix("mcf", "mcf")));
    s.run(50000);
    for (std::uint32_t i = 0; i < 4; ++i) {
        EXPECT_GT(s.servedReads(i), 0u) << "core " << i;
        EXPECT_GT(s.avgReadLatency(i), 20.0) << "core " << i;
        EXPECT_GT(s.intrinsicMonitor(i).count(), 0u);
        EXPECT_GT(s.busMonitor(i).count(), 0u);
    }
}

TEST(System, FakeResponsesNeverCountAsServed)
{
    SystemConfig cfg = paperConfig();
    cfg.mitigation = Mitigation::BDC;
    System s(SystemPlan(cfg, adversaryMix("sjeng", "sjeng"))); // light demand
    s.run(100000);
    // Fakes flow (sjeng leaves most credits unused)...
    std::uint64_t fakes = 0;
    for (std::uint32_t i = 0; i < 4; ++i)
        fakes += s.requestShaper(i)->bins().fakeIssued() +
                 s.responseShaper(i)->bins().fakeIssued();
    EXPECT_GT(fakes, 100u);
    // ...but served reads and the cores' progress only count reals:
    // every served read must have a real outstanding miss behind it.
    for (std::uint32_t i = 0; i < 4; ++i) {
        // Monitor count() is gaps (= events - 1).
        EXPECT_LE(s.servedReads(i),
                  s.intrinsicMonitor(i).count() + 1);
    }
    EXPECT_GT(s.stats().counter("responses.fake.dropped"), 0u);
}

TEST(System, LatencyLogOnlyWhenEnabled)
{
    SystemConfig cfg = paperConfig();
    System off(SystemPlan(cfg, adversaryMix("mcf", "mcf")));
    off.run(20000);
    EXPECT_TRUE(off.latencyLog(0).empty());

    cfg.recordLatencies = true;
    System on(SystemPlan(cfg, adversaryMix("mcf", "mcf")));
    on.run(20000);
    EXPECT_FALSE(on.latencyLog(0).empty());
    // Log is time-ordered.
    const auto &log = on.latencyLog(0);
    for (std::size_t i = 1; i < log.size(); ++i)
        EXPECT_GE(log[i].at, log[i - 1].at);
}

TEST(System, EpochCountersClear)
{
    SystemConfig cfg = paperConfig();
    System s(SystemPlan(cfg, adversaryMix("mcf", "mcf")));
    s.run(30000);
    EXPECT_GT(s.servedReads(0), 0u);
    s.clearEpochCounters();
    EXPECT_EQ(s.servedReads(0), 0u);
    EXPECT_EQ(s.coreAt(0).retired(), 0u);
}

TEST(System, ReconfigureShapersTakesEffect)
{
    SystemConfig cfg = paperConfig();
    cfg.mitigation = Mitigation::ReqC;
    System s(SystemPlan(cfg, adversaryMix("mcf", "mcf")));
    auto open = shaper::BinConfig::desired();
    open.credits.assign(open.numBins(), 500);
    s.reconfigureShapers(open, open);
    EXPECT_EQ(s.requestShaper(0)->bins().config().credits[0], 500u);
}

// --------------------------------------------- end-to-end experiments

TEST(Integration, ReqCShapesIntoDesired)
{
    // Mini Figure 11: shaped output matches DESIRED for a heavy app.
    SystemConfig cfg = paperConfig();
    cfg.mitigation = Mitigation::ReqC;
    cfg.numCores = 1;
    System s(SystemPlan(cfg, {"mcf"}));
    s.run(200000);

    const auto desired = shaper::BinConfig::desired();
    Histogram target(desired.edges);
    for (std::size_t i = 0; i < desired.numBins(); ++i)
        target.add(desired.edges[i], desired.credits[i]);
    const double tvd =
        s.requestShaper(0)->postMonitor().histogram()
            .totalVariationDistance(target);
    EXPECT_LT(tvd, 0.1);
}

TEST(Integration, ShapingCutsMutualInformation)
{
    // Mini SIV-B2: ReqC cuts the gap MI by >= 10x vs no shaping.
    const auto mix = adversaryMix("mcf", "bzip");
    const auto quantizer = security::makeMiQuantizer(24, 8, 1.6);

    SystemConfig base = paperConfig();
    base.recordTraffic = true;
    System unshaped(SystemPlan(base, mix));
    unshaped.run(400000);
    const auto h = security::computeUnshapedLeakage(
        unshaped.intrinsicMonitor(1).events(), quantizer);

    SystemConfig shaped_cfg = paperConfig();
    shaped_cfg.mitigation = Mitigation::ReqC;
    shaped_cfg.recordTraffic = true;
    shaped_cfg.shapeCore = {false, true, true, true};
    System shaped(SystemPlan(shaped_cfg, mix));
    shaped.run(1000000); // enough 20k-cycle windows for a stable MI
    // Cross-run pairing: X is the unshaped run's intrinsic timing,
    // Y is the shaped run's observable (paper SIV-B2 methodology).
    auto *sh = shaped.requestShaper(1);
    const auto mi = security::computeShapingMi(
        unshaped.intrinsicMonitor(1).events(),
        sh->postMonitor().events(), quantizer);

    EXPECT_GT(h.miBits, 1.0);
    // Gap-level MI drops several-fold (residual: phase transitions
    // within one replenishment window, see EXPERIMENTS.md)...
    EXPECT_LT(mi.miBits, h.miBits / 3.0);
    // ...and what the bus observer's window counts say about the
    // program's *natural* (unshaped-run) activity is essentially
    // nothing (cross-run, the paper's operational claim).
    const auto windowed = security::computeWindowedCrossMiCounts(
        unshaped.intrinsicMonitor(1).events(),
        shaped.busMonitor(1).events(), 20000, 4);
    EXPECT_LT(windowed.miBits, 0.1);
}

TEST(Integration, RespCFlattensAdversaryLatencyDifference)
{
    // Mini Figure 9: per-request latency drift between victim mixes
    // shrinks by an order of magnitude under RespC.
    auto run = [](const char *victim, bool respc,
                  const shaper::BinConfig *bins) {
        SystemConfig cfg = paperConfig();
        cfg.recordLatencies = true;
        if (respc) {
            cfg.mitigation = Mitigation::RespC;
            cfg.shapeCore = {true, false, false, false};
            cfg.respBins = *bins;
        }
        System s(SystemPlan(cfg, adversaryMix("bzip", victim)));
        s.run(400000);
        return s.latencyLog(0);
    };
    auto drift = [](const std::vector<security::LatencySample> &a,
                    const std::vector<security::LatencySample> &b) {
        const std::size_t n = std::min(a.size(), b.size());
        long long acc = 0;
        for (std::size_t i = 0; i < n; ++i)
            acc += static_cast<long long>(b[i].latency) -
                   static_cast<long long>(a[i].latency);
        return n ? std::abs(static_cast<double>(acc) / n) : 0.0;
    };

    const double unprotected =
        drift(run("astar", false, nullptr), run("mcf", false, nullptr));

    // Program the slower (mcf) mix's response distribution.
    SystemConfig probe_cfg = paperConfig();
    probe_cfg.recordTraffic = true;
    System probe(SystemPlan(probe_cfg, adversaryMix("bzip", "mcf")));
    probe.run(200000);
    const auto bins = binsFromMonitor(probe.responseMonitor(0), 200000,
                                      10000, 1.0);

    const double protected_drift =
        drift(run("astar", true, &bins), run("mcf", true, &bins));

    EXPECT_GT(unprotected, 50.0);
    EXPECT_LT(protected_drift, unprotected / 4.0);
}

TEST(Integration, TpIsolatesDomains)
{
    // Under TP, changing the co-runner barely moves the adversary's
    // latency; under FR-FCFS it moves a lot.
    auto avg_latency = [](Mitigation mit, const char *victim) {
        SystemConfig cfg = paperConfig();
        cfg.mitigation = mit;
        System s(SystemPlan(cfg, adversaryMix("bzip", victim)));
        s.run(300000);
        return s.avgReadLatency(0);
    };
    const double fr_delta =
        std::abs(avg_latency(Mitigation::None, "mcf") -
                 avg_latency(Mitigation::None, "sjeng"));
    const double tp_delta =
        std::abs(avg_latency(Mitigation::TP, "mcf") -
                 avg_latency(Mitigation::TP, "sjeng"));
    EXPECT_LT(tp_delta, fr_delta / 2.0);
}

TEST(Integration, OnlineGaImprovesOverGenerations)
{
    SystemConfig cfg = paperConfig();
    cfg.mitigation = Mitigation::BDC;
    ga::GaConfig ga_cfg;
    ga_cfg.generations = 4;
    ga_cfg.populationSize = 6;
    const auto result =
        runOnlineGa(cfg, adversaryMix("bzip", "astar"), ga_cfg, 10000);
    ASSERT_EQ(result.generationBest.size(), 4u);
    EXPECT_GE(result.bestFitness, result.generationBest.front());
    result.reqBins.validate();
    result.respBins.validate();
    EXPECT_LE(result.reqBins.totalCredits(),
              ga::GaConfig{}.maxTotalCredits);
}

TEST(Integration, RunMetricsHelpers)
{
    const auto mix = adversaryMix("astar", "astar");
    SystemConfig cfg = paperConfig();
    const auto base = runConfig(cfg, mix, 30000, 3000);
    cfg.mitigation = Mitigation::TP;
    const auto tp = runConfig(cfg, mix, 30000, 3000);
    const auto slow = slowdownVs(base, tp);
    ASSERT_EQ(slow.size(), 4u);
    for (const double s : slow)
        EXPECT_GT(s, 0.8) << "TP should not speed things up";
    EXPECT_GT(base.throughput(), tp.throughput());
}

TEST(Integration, BinsFromMonitorMatchesRate)
{
    SystemConfig cfg = paperConfig();
    cfg.recordTraffic = true;
    System s(SystemPlan(cfg, adversaryMix("mcf", "astar")));
    s.run(100000);
    const auto bins =
        binsFromMonitor(s.responseMonitor(0), 100000, 10000, 1.0);
    const double measured_rate =
        static_cast<double>(s.responseMonitor(0).count()) / 100000.0;
    EXPECT_NEAR(bins.maxRate(), measured_rate,
                0.3 * measured_rate + 0.001);
}

} // namespace
} // namespace camo::sim
