/**
 * @file
 * Equivalence tests for the idle-cycle fast-forward (System::run with
 * cfg.fastForward): skipping provably-idle cycles must be *bit-exact*
 * with the per-cycle loop. For every mitigation preset we compare the
 * full observable surface of a run -- the stats-registry JSON tree,
 * the interval-metrics CSV, the cycle-stamped event trace, and the
 * RunMetrics summary -- between fastForward on and off.
 */

#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "src/obs/registry.h"
#include "src/obs/tracer.h"
#include "src/sim/plan.h"
#include "src/sim/presets.h"
#include "src/sim/runner.h"

using namespace camo;

namespace {

constexpr Cycle kCycles = 60000;
constexpr Cycle kIntervalPeriod = 5000;

struct Variant
{
    const char *name;
    sim::SystemConfig cfg;
};

std::vector<Variant>
variants()
{
    std::vector<Variant> out;
    auto add = [&](const char *name, auto mutate) {
        sim::SystemConfig cfg = sim::paperConfig();
        mutate(cfg);
        out.push_back({name, cfg});
    };
    add("none", [](sim::SystemConfig &) {});
    add("cs", [](sim::SystemConfig &c) {
        c.mitigation = sim::Mitigation::CS;
    });
    add("reqc", [](sim::SystemConfig &c) {
        c.mitigation = sim::Mitigation::ReqC;
    });
    add("respc", [](sim::SystemConfig &c) {
        c.mitigation = sim::Mitigation::RespC;
    });
    add("bdc", [](sim::SystemConfig &c) {
        c.mitigation = sim::Mitigation::BDC;
    });
    add("bdc_random_timing", [](sim::SystemConfig &c) {
        c.mitigation = sim::Mitigation::BDC;
        c.randomizeTiming = true;
    });
    add("bdc_no_fakes", [](sim::SystemConfig &c) {
        c.mitigation = sim::Mitigation::BDC;
        c.fakeTraffic = false;
    });
    add("bdc_closed_page", [](sim::SystemConfig &c) {
        c.mitigation = sim::Mitigation::BDC;
        c.mc.pagePolicy = mem::PagePolicy::Closed;
    });
    add("tp", [](sim::SystemConfig &c) {
        c.mitigation = sim::Mitigation::TP;
    });
    add("fs", [](sim::SystemConfig &c) {
        c.mitigation = sim::Mitigation::FS;
    });
    add("two_channels", [](sim::SystemConfig &c) {
        c.mitigation = sim::Mitigation::BDC;
        c.mc.org.channels = 2;
    });
    return out;
}

/** Everything a run can show an observer, as one string. */
std::string
observableSurface(sim::SystemConfig cfg, bool fast_forward)
{
    cfg.fastForward = fast_forward;
    cfg.recordLatencies = true;
    sim::System system(
        sim::SystemPlan(cfg, sim::adversaryMix("mcf", "astar")));

    std::ostringstream trace;
    system.tracer().setSink(
        std::make_unique<obs::JsonlTraceSink>(trace));
    system.tracer().setEnabled(true);
    system.enableIntervalStats(kIntervalPeriod);

    system.run(kCycles);

    obs::StatRegistry reg;
    system.registerStats(reg);

    std::ostringstream all;
    all << "now=" << system.now() << "\n";
    for (std::uint32_t i = 0; i < system.numCores(); ++i) {
        all << "core" << i << " ipc=" << system.coreAt(i).ipc()
            << " served=" << system.servedReads(i)
            << " lat=" << system.avgReadLatency(i)
            << " latlog=" << system.latencyLog(i).size() << "\n";
    }
    all << reg.toJson().dump(2) << "\n";
    all << system.intervalStats()->toCsv();
    system.tracer().flush();
    all << trace.str();
    return all.str();
}

} // namespace

TEST(FastForward, BitExactWithPerCycleLoopAcrossMitigations)
{
    for (const Variant &v : variants()) {
        SCOPED_TRACE(v.name);
        const std::string plain = observableSurface(v.cfg, false);
        const std::string fast = observableSurface(v.cfg, true);
        EXPECT_EQ(plain, fast) << "fast-forward diverged for " << v.name;
    }
}

TEST(FastForward, RunMetricsMatchWithWarmup)
{
    for (const Variant &v : variants()) {
        SCOPED_TRACE(v.name);
        sim::SystemConfig plain_cfg = v.cfg;
        plain_cfg.fastForward = false;
        sim::SystemConfig fast_cfg = v.cfg;
        fast_cfg.fastForward = true;
        const auto mix = sim::adversaryMix("bzip", "apache");
        const auto plain =
            sim::runConfig(plain_cfg, mix, kCycles, /*warmup=*/10000);
        const auto fast =
            sim::runConfig(fast_cfg, mix, kCycles, /*warmup=*/10000);
        EXPECT_EQ(plain.cycles, fast.cycles);
        EXPECT_EQ(plain.ipc, fast.ipc);
        EXPECT_EQ(plain.retired, fast.retired);
        EXPECT_EQ(plain.servedReads, fast.servedReads);
        EXPECT_EQ(plain.avgReadLatency, fast.avgReadLatency);
        EXPECT_EQ(plain.alpha, fast.alpha);
    }
}

/** The skip must also be exact when run() is called in many small
 *  slices (epoch-style usage: GA loops, adaptive runtime). */
TEST(FastForward, SlicedRunsMatchMonolithicRun)
{
    sim::SystemConfig cfg = sim::paperConfig();
    cfg.mitigation = sim::Mitigation::BDC;

    auto surface = [&](const std::vector<Cycle> &slices) {
        sim::System system(
            sim::SystemPlan(cfg, sim::adversaryMix("probe", "apache")));
        for (const Cycle s : slices)
            system.run(s);
        obs::StatRegistry reg;
        system.registerStats(reg);
        return reg.toJson().dump(2);
    };

    const std::string mono = surface({40000});
    const std::string sliced = surface({1, 9999, 20000, 3, 9997});
    EXPECT_EQ(mono, sliced);

    cfg.fastForward = false;
    const std::string plain = surface({40000});
    EXPECT_EQ(mono, plain);
}
