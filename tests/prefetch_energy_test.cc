/** @file Tests for the next-line prefetcher, DRAM energy accounting,
 *  and fairness metrics. */

#include <gtest/gtest.h>

#include "src/cache/hierarchy.h"
#include "src/dram/device.h"
#include "src/sim/plan.h"
#include "src/sim/presets.h"
#include "src/sim/runner.h"

namespace camo {
namespace {

// --------------------------------------------------------- prefetcher

cache::HierarchyConfig
prefetchCfg()
{
    cache::HierarchyConfig cfg;
    cfg.l1 = {1024, 2, 64, 4};
    cfg.l2 = {4096, 4, 64, 12};
    cfg.mshrs = 4;
    cfg.nextLinePrefetch = true;
    return cfg;
}

TEST(Prefetch, MissIssuesNextLine)
{
    cache::CacheHierarchy h(0, prefetchCfg());
    h.access(0x10000, false, 1);
    const auto &out = h.outgoing();
    ASSERT_EQ(out.size(), 2u);
    EXPECT_EQ(out[0].addr, 0x10000u);
    EXPECT_EQ(out[1].addr, 0x10040u);
    EXPECT_EQ(h.mshrsInUse(), 2u);
    EXPECT_EQ(h.stats().counter("prefetches.issued"), 1u);
}

TEST(Prefetch, PrefetchedLineHitsAfterFill)
{
    cache::CacheHierarchy h(0, prefetchCfg());
    h.access(0x10000, false, 1);
    h.clearOutgoing();
    h.onFill(0x10000, 10);
    h.onFill(0x10040, 12); // the prefetch
    EXPECT_EQ(h.access(0x10040, false, 20).kind,
              cache::AccessKind::L1Hit);
}

TEST(Prefetch, DemandCoalescesIntoInflightPrefetch)
{
    cache::CacheHierarchy h(0, prefetchCfg());
    h.access(0x10000, false, 1);
    h.clearOutgoing();
    // The next line is in flight as a prefetch: a demand access
    // coalesces instead of issuing again.
    EXPECT_EQ(h.access(0x10040, false, 2).kind,
              cache::AccessKind::Coalesced);
    EXPECT_TRUE(h.outgoing().empty());
}

TEST(Prefetch, RespectsMshrBudget)
{
    cache::CacheHierarchy h(0, prefetchCfg());
    // 3 demand misses: the 4-entry MSHR file cannot also hold 3
    // prefetches; prefetching must yield to demand.
    h.access(0x10000, false, 1);
    h.access(0x20000, false, 1);
    h.access(0x30000, false, 1);
    EXPECT_LE(h.mshrsInUse(), 4u);
}

TEST(Prefetch, StreamingWorkloadBenefits)
{
    sim::SystemConfig off = sim::paperConfig();
    off.numCores = 1;
    sim::SystemConfig on = off;
    on.cache.nextLinePrefetch = true;
    // h264ref: sequential but not MSHR-saturated, so prefetches get
    // slots (a fully saturated stream like libqt has no spare MSHRs
    // and gains little).
    const auto m_off = sim::runConfig(off, {"h264ref"}, 200000, 20000);
    const auto m_on = sim::runConfig(on, {"h264ref"}, 200000, 20000);
    EXPECT_GT(m_on.ipc[0], 1.03 * m_off.ipc[0])
        << "sequential streaming should gain from next-line prefetch";
}

// -------------------------------------------------------- DRAM energy

TEST(Energy, CountsFollowCommands)
{
    dram::DramOrganization org;
    dram::DramTiming timing;
    dram::DramDevice dev(org, timing);
    const dram::DramAddress da{0, 0, 0, 3, 0};
    std::uint64_t t = 0;
    while (!dev.canIssue(dram::Cmd::ACT, da, t))
        ++t;
    dev.issue(dram::Cmd::ACT, da, t);
    t += timing.tRCD;
    while (!dev.canIssue(dram::Cmd::RD, da, t))
        ++t;
    dev.issue(dram::Cmd::RD, da, t);

    const auto &e = dev.energy();
    EXPECT_EQ(e.actPairs(), 1u);
    EXPECT_EQ(e.reads(), 1u);
    EXPECT_EQ(e.writes(), 0u);
    EXPECT_DOUBLE_EQ(e.dynamicPj(), e.model().actPrePj +
                                        e.model().readBurstPj);
}

TEST(Energy, BackgroundScalesWithTimeAndRanks)
{
    dram::EnergyCounter e;
    EXPECT_DOUBLE_EQ(e.backgroundPj(1000, 2),
                     2000.0 * e.model().backgroundPjPerCycle);
    EXPECT_DOUBLE_EQ(e.totalPj(0, 1), e.dynamicPj());
}

TEST(Energy, FakeTrafficCostsEnergy)
{
    auto dynamic_pj = [](bool fakes) {
        sim::SystemConfig cfg = sim::paperConfig();
        cfg.mitigation = sim::Mitigation::ReqC;
        cfg.fakeTraffic = fakes;
        sim::System s(
            sim::SystemPlan(cfg, sim::adversaryMix("sjeng", "sjeng")));
        s.run(100000);
        return s.memory().channel(0).device().energy().dynamicPj();
    };
    EXPECT_GT(dynamic_pj(true), 1.3 * dynamic_pj(false))
        << "idle workloads + fakes -> substantial fake DRAM energy";
}

// ---------------------------------------------------- fairness metrics

TEST(Fairness, MaxAndHarmonicSummaries)
{
    sim::RunMetrics base, test;
    base.ipc = {1.0, 1.0, 1.0, 1.0};
    test.ipc = {1.0, 0.5, 0.25, 1.0}; // slowdowns 1, 2, 4, 1
    EXPECT_DOUBLE_EQ(sim::maxSlowdownVs(base, test), 4.0);
}

TEST(Fairness, IdenticalRunsAreNeutral)
{
    sim::RunMetrics base;
    base.ipc = {0.7, 1.3};
    EXPECT_DOUBLE_EQ(sim::maxSlowdownVs(base, base), 1.0);
}

} // namespace
} // namespace camo
