/** @file Tests for the synthetic workloads and covert-channel traces. */

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/hard/error.h"
#include "src/trace/covert.h"
#include "src/trace/synthetic.h"
#include "src/trace/trace.h"
#include "src/trace/workloads.h"

namespace camo::trace {
namespace {

// ---------------------------------------------------------- workloads

TEST(Workloads, RegistryHasElevenNames)
{
    EXPECT_EQ(workloadNames().size(), 11u);
    for (const auto &name : workloadNames()) {
        EXPECT_TRUE(isKnownWorkload(name)) << name;
        const auto p = workloadParams(name);
        EXPECT_EQ(p.name, name);
        EXPECT_GT(p.memPerKiloInstr, 0.0);
        EXPECT_GT(p.coldFrac, 0.0);
        EXPECT_LE(p.coldFrac, 1.0);
    }
    EXPECT_TRUE(isKnownWorkload("probe"));
    EXPECT_TRUE(isKnownWorkload("covert:2AAAAAAA"));
    EXPECT_FALSE(isKnownWorkload("quake3"));
}

TEST(Workloads, IntensityOrderingMatchesPaper)
{
    // mcf is the most memory-intensive; sjeng among the least.
    const double mcf =
        workloadParams("mcf").coldFrac * workloadParams("mcf").memPerKiloInstr;
    const double astar = workloadParams("astar").coldFrac *
                         workloadParams("astar").memPerKiloInstr;
    const double sjeng = workloadParams("sjeng").coldFrac *
                         workloadParams("sjeng").memPerKiloInstr;
    EXPECT_GT(mcf, astar);
    EXPECT_GT(astar, sjeng);
}

TEST(Workloads, MakeWorkloadRespectsAddrBase)
{
    auto w = compileWorkload("mcf").instantiate(1, 1ULL << 41);
    for (int i = 0; i < 1000; ++i) {
        const auto item = w->next(static_cast<Cycle>(i));
        if (item.hasMemOp()) {
            EXPECT_GE(item.addr, 1ULL << 41);
        }
    }
}

TEST(Workloads, UnknownNameRaisesConfigError)
{
    EXPECT_THROW(compileWorkload("nope"), hard::ConfigError);
    EXPECT_THROW(compileWorkload("covert:XYZ"), hard::ConfigError);
    try {
        compileWorkload("covert:XYZ");
        FAIL() << "expected hard::ConfigError";
    } catch (const hard::ConfigError &e) {
        EXPECT_NE(std::string(e.what()).find("bad covert key"),
                  std::string::npos);
        EXPECT_NE(std::string(e.what()).find("token 'XYZ' at byte 7"),
                  std::string::npos);
    }
}

// ---------------------------------------------------------- synthetic

TEST(Synthetic, DeterministicForSeed)
{
    const auto params = workloadParams("gcc");
    SyntheticWorkload a(params, 7), b(params, 7);
    for (int i = 0; i < 2000; ++i) {
        const auto ia = a.next(0), ib = b.next(0);
        ASSERT_EQ(ia.addr, ib.addr);
        ASSERT_EQ(ia.gapInstrs, ib.gapInstrs);
        ASSERT_EQ(ia.isWrite, ib.isWrite);
    }
}

TEST(Synthetic, MemoryDensityTracksParameter)
{
    WorkloadParams p;
    p.memPerKiloInstr = 200;
    p.coldFrac = 0.01;
    SyntheticWorkload w(p, 3);
    std::uint64_t instrs = 0, mems = 0;
    for (int i = 0; i < 20000; ++i) {
        const auto item = w.next(0);
        instrs += item.gapInstrs + (item.hasMemOp() ? 1 : 0);
        mems += item.hasMemOp();
    }
    const double per_kilo = 1000.0 * mems / instrs;
    EXPECT_NEAR(per_kilo, 200.0, 40.0);
}

TEST(Synthetic, ColdAccessesLeaveHotSet)
{
    WorkloadParams p;
    p.coldFrac = 0.5;
    p.hotBytes = 4096;
    SyntheticWorkload w(p, 5);
    std::uint64_t cold = 0, total = 0;
    for (int i = 0; i < 20000; ++i) {
        const auto item = w.next(0);
        if (!item.hasMemOp())
            continue;
        ++total;
        if (item.addr >= p.addrBase + p.hotBytes)
            ++cold;
    }
    EXPECT_GT(static_cast<double>(cold) / total, 0.3);
}

TEST(Synthetic, SequentialModeWalksLines)
{
    WorkloadParams p;
    p.coldFrac = 1.0;
    p.seqFrac = 1.0;
    p.burstContinue = 0.0;
    p.memPerKiloInstr = 1000;
    SyntheticWorkload w(p, 5);
    Addr prev = 0;
    int seq = 0, total = 0;
    for (int i = 0; i < 2000; ++i) {
        const auto item = w.next(0);
        if (!item.hasMemOp())
            continue;
        if (prev != 0 && item.addr == prev + 64)
            ++seq;
        prev = item.addr;
        ++total;
    }
    EXPECT_GT(static_cast<double>(seq) / total, 0.95);
}

TEST(Synthetic, PhasesToggle)
{
    WorkloadParams p;
    p.highPhaseMeanInstrs = 1000;
    p.lowPhaseMeanInstrs = 1000;
    SyntheticWorkload w(p, 11);
    bool saw_high = false, saw_low = false;
    for (int i = 0; i < 50000; ++i) {
        w.next(0);
        (w.inHighPhase() ? saw_high : saw_low) = true;
    }
    EXPECT_TRUE(saw_high);
    EXPECT_TRUE(saw_low);
}

// -------------------------------------------------------------- covert

TEST(KeyBits, MsbFirst)
{
    const auto bits = keyBits(0x80000001u);
    ASSERT_EQ(bits.size(), 32u);
    EXPECT_TRUE(bits.front());
    EXPECT_FALSE(bits[1]);
    EXPECT_TRUE(bits.back());

    const auto nibble = keyBits(0xAu, 4);
    EXPECT_EQ(nibble, (std::vector<bool>{true, false, true, false}));
}

TEST(CovertSender, OnePulsePerBit)
{
    CovertSenderParams p;
    p.key = keyBits(0xCu, 4); // 1100
    p.pulseCycles = 1000;
    CovertSender sender(p);

    // Simulate time passing; count memory ops per pulse window.
    std::map<std::uint64_t, std::uint64_t> ops_per_pulse;
    Cycle now = 0;
    while (now < 8000) {
        const auto item = sender.next(now);
        now += item.waitCycles + item.gapInstrs + 1;
        if (item.hasMemOp())
            ++ops_per_pulse[now / p.pulseCycles];
    }
    // Pulses 0,1 (bits 1,1) carry traffic; 2,3 (bits 0,0) are silent
    // (up to one boundary-spill op); the pattern repeats at 4,5.
    EXPECT_GT(ops_per_pulse[0], 10u);
    EXPECT_GT(ops_per_pulse[1], 10u);
    EXPECT_LE(ops_per_pulse[2], 1u);
    EXPECT_LE(ops_per_pulse[3], 1u);
    EXPECT_GT(ops_per_pulse[4], 10u);
}

TEST(CovertSender, WritesWalkCacheLines)
{
    CovertSenderParams p;
    p.key = {true};
    p.pulseCycles = 10000;
    CovertSender sender(p);
    Addr prev = 0;
    for (int i = 0; i < 100; ++i) {
        const auto item = sender.next(static_cast<Cycle>(i * 9));
        ASSERT_TRUE(item.hasMemOp());
        EXPECT_TRUE(item.isWrite);
        if (prev) {
            EXPECT_EQ(item.addr, prev + 64);
        }
        prev = item.addr;
    }
}

TEST(Probe, FixedCadence)
{
    ProbeParams p;
    p.probeEveryCycles = 100;
    ProbeWorkload probe(p);
    Cycle now = 0;
    std::vector<Cycle> probe_times;
    for (int i = 0; i < 50; ++i) {
        const auto item = probe.next(now);
        now += item.waitCycles;
        ASSERT_TRUE(item.hasMemOp());
        probe_times.push_back(now);
        now += 3; // some execution jitter
    }
    for (std::size_t i = 1; i < probe_times.size(); ++i) {
        const Cycle gap = probe_times[i] - probe_times[i - 1];
        EXPECT_EQ(gap, 100u) << "at " << i;
    }
}

TEST(Probe, StrideWrapsWithinRegion)
{
    ProbeParams p;
    p.regionBytes = 1 << 20;
    ProbeWorkload probe(p);
    for (int i = 0; i < 2000; ++i) {
        const auto item = probe.next(static_cast<Cycle>(i * 200));
        ASSERT_GE(item.addr, p.base);
        ASSERT_LT(item.addr, p.base + p.regionBytes);
    }
}

} // namespace
} // namespace camo::trace
