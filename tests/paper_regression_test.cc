/** @file Headline-result regressions: fast, scaled-down versions of
 *  the paper's key findings, so a code change that breaks the
 *  reproduction fails CI rather than only the (slow) benches.
 *  EXPERIMENTS.md records the full-scale numbers. */

#include <string>

#include <gtest/gtest.h>

#include "src/security/covert_receiver.h"
#include "src/security/mutual_information.h"
#include "src/sim/plan.h"
#include "src/sim/presets.h"
#include "src/sim/runner.h"
#include "src/trace/covert.h"

namespace camo::sim {
namespace {

TEST(PaperRegression, CovertChannelMitigated)
{
    // SIV-G / Figs. 14-15 (covert keys are 32-bit; see
    // trace::compileWorkload).
    constexpr Cycle pulse = 20000;
    constexpr std::size_t bits = 32;
    auto attack = [&](bool defended) {
        SystemConfig cfg = paperConfig();
        cfg.recordLatencies = true;
        if (defended) {
            cfg.mitigation = Mitigation::ReqC;
            cfg.shapeCore = {true, false, false, false};
            cfg.reqBins = shaper::BinConfig::desired(8, 1.5, 2500);
        }
        System system(SystemPlan(cfg,
                      {"covert:2AAAAAAA", "probe", "sjeng", "sjeng"}));
        system.run(pulse * (bits + 4));
        security::CovertDecoderConfig dec;
        dec.windowCycles = pulse;
        const auto decoded =
            security::decodeCovert(system.latencyLog(1), dec, bits);
        return security::bitErrorRate(decoded.bits,
                                      trace::keyBits(0x2AAAAAAA));
    };
    const double before = attack(false);
    const double after = attack(true);
    EXPECT_LT(before, 0.2) << "the attack must work undefended";
    EXPECT_GT(after, 2.0 * before) << "Camouflage must degrade it";
}

TEST(PaperRegression, ReqcBeatsStaticLimiterOnBurstyApp)
{
    // Fig. 12's mechanism at one point: same budget, bursty app.
    auto ipc_of = [](Mitigation mit) {
        SystemConfig cfg = paperConfig();
        cfg.numCores = 1;
        cfg.mitigation = mit;
        cfg.csInterval = 40;
        cfg.fakeTraffic = false;
        if (mit == Mitigation::ReqC) {
            cfg.reqBins = shaper::BinConfig::geometric(
                {125, 62, 31, 16, 8, 4, 2, 1, 1, 0}, 20, 1.7, 10000);
        }
        return runConfig(cfg, {"apache"}, 400000, 40000).ipc[0];
    };
    const double cs = ipc_of(Mitigation::CS);
    const double reqc = ipc_of(Mitigation::ReqC);
    EXPECT_GT(reqc, 1.1 * cs);
}

TEST(PaperRegression, CamouflageCheaperThanTpAndFs)
{
    // Fig. 13's ranking at one mix, with a hand-set (non-GA) BDC
    // budget near the fair share.
    const auto mix = adversaryMix("bzip", "astar");
    SystemConfig base = paperConfig();
    const auto base_m = runConfig(base, mix, 200000, 20000);

    auto avg_slowdown = [&](SystemConfig cfg) {
        const auto m = runConfig(cfg, mix, 200000, 20000);
        const auto s = slowdownVs(base_m, m);
        double sum = 0;
        for (const double v : s)
            sum += v;
        return sum / static_cast<double>(s.size());
    };

    SystemConfig tp = paperConfig();
    tp.mitigation = Mitigation::TP;
    SystemConfig fs = paperConfig();
    fs.mitigation = Mitigation::FS;
    SystemConfig bdc = paperConfig();
    bdc.mitigation = Mitigation::BDC;
    for (auto &c : bdc.reqBins.credits)
        c *= 2; // ~110 credits: near the measured demand
    for (auto &c : bdc.respBins.credits)
        c *= 2;

    const double tp_s = avg_slowdown(tp);
    const double fs_s = avg_slowdown(fs);
    const double bdc_s = avg_slowdown(bdc);
    EXPECT_LT(bdc_s, tp_s);
    EXPECT_LT(bdc_s, fs_s);
}

TEST(PaperRegression, BusObserverLearnsNothingUnderReqc)
{
    // Table I's pin/bus column at one point.
    auto bus_leak = [](Mitigation mit) {
        SystemConfig cfg = paperConfig();
        cfg.mitigation = mit;
        cfg.recordTraffic = true;
        if (mit != Mitigation::None)
            cfg.shapeCore = {false, true, true, true};
        System system(SystemPlan(cfg, adversaryMix("probe", "apache")));
        system.run(1000000);
        return security::computeWindowedCrossMiCounts(
                   system.intrinsicMonitor(1).events(),
                   system.busMonitor(1).events(), 20000, 4)
            .miBits;
    };
    const double unshaped = bus_leak(Mitigation::None);
    const double shaped = bus_leak(Mitigation::ReqC);
    EXPECT_GT(unshaped, 0.5);
    EXPECT_LT(shaped, unshaped / 10.0);
}

TEST(PaperRegression, AdversaryCannotTellNeighboursApartUnderRespc)
{
    // Fig. 9's flatness, summarized as mean-latency closeness.
    auto adversary_latency = [](const char *victim, bool respc,
                                const shaper::BinConfig *bins) {
        SystemConfig cfg = paperConfig();
        if (respc) {
            cfg.mitigation = Mitigation::RespC;
            cfg.shapeCore = {true, false, false, false};
            cfg.respBins = *bins;
        }
        System s(SystemPlan(cfg, adversaryMix("bzip", victim)));
        s.run(300000);
        return s.avgReadLatency(0);
    };

    const double fr_astar = adversary_latency("astar", false, nullptr);
    const double fr_mcf = adversary_latency("mcf", false, nullptr);
    const double fr_gap = std::abs(fr_mcf - fr_astar);

    SystemConfig probe_cfg = paperConfig();
    probe_cfg.recordTraffic = true;
    System probe(SystemPlan(probe_cfg, adversaryMix("bzip", "mcf")));
    probe.run(200000);
    const auto bins = binsFromMonitor(probe.responseMonitor(0), 200000,
                                      10000, 1.0);

    const double c_astar = adversary_latency("astar", true, &bins);
    const double c_mcf = adversary_latency("mcf", true, &bins);
    const double camo_gap = std::abs(c_mcf - c_astar);

    EXPECT_GT(fr_gap, 30.0) << "the channel must exist undefended";
    EXPECT_LT(camo_gap, fr_gap / 2.0);
}

} // namespace
} // namespace camo::sim
