/**
 * @file
 * Online leakage monitor tests. The central claim: the monitor's
 * incremental pairing is *the same algorithm* as the offline
 * security::computeShapingMi, so its cumulative result equals the
 * offline number exactly — not approximately — on the same event
 * logs. Plus: windowed MI separates unshaped covert traffic from
 * shaped traffic, alerts fire deterministically (same cycle, every
 * run), the history is identical under fast-forward, and the
 * interval series grows the leakmon column.
 */

#include <gtest/gtest.h>

#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "src/hard/error.h"
#include "src/obs/leakmon.h"
#include "src/security/mutual_information.h"
#include "src/sim/plan.h"
#include "src/sim/presets.h"
#include "src/sim/runner.h"

using namespace camo;

namespace {

constexpr Cycle kCycles = 200000;
constexpr const char *kSender = "covert:5A5A5A5A";

sim::SystemConfig
covertConfig(bool shaped)
{
    sim::SystemConfig cfg = sim::paperConfig();
    if (shaped) {
        cfg.mitigation = sim::Mitigation::ReqC;
        cfg.shapeCore = {true, false, false, false};
        // Short replenishment window (as in bench/fig14_15_covert):
        // the fake-traffic takeover lag after a demand drop is one
        // window, so keep it well below the sender's pulse length.
        cfg.reqBins = shaper::BinConfig::desired(8, 1.5, 2500);
    }
    return cfg;
}

std::unique_ptr<sim::System>
runCovert(bool shaped, const obs::LeakMonitorConfig &lc,
          bool fast_forward = true)
{
    sim::SystemConfig cfg = covertConfig(shaped);
    cfg.fastForward = fast_forward;
    auto system = std::make_unique<sim::System>(sim::SystemPlan(
        cfg,
        std::vector<std::string>{kSender, "probe", "sjeng", "sjeng"}));
    system->setDiagnosticStream(nullptr);
    system->enableLeakMonitor(lc);
    system->run(kCycles);
    return system;
}

} // namespace

TEST(LeakMonitor, CumulativeResultEqualsOfflineMiExactly)
{
    for (const bool shaped : {false, true}) {
        SCOPED_TRACE(shaped ? "shaped" : "unshaped");
        obs::LeakMonitorConfig lc;
        auto system = runCovert(shaped, lc);

        obs::LeakMonitor *mon = system->leakMonitor();
        ASSERT_NE(mon, nullptr);
        const security::ShapingMiResult online =
            mon->cumulativeResult();
        const security::ShapingMiResult offline =
            security::computeShapingMi(
                system->intrinsicMonitor(0).events(),
                system->busMonitor(0).events(),
                security::makeMiQuantizer(lc.quantBins, lc.quantBase,
                                          lc.quantRatio));

        // Same pairing, same joint, same estimator: bit-identical.
        EXPECT_EQ(online.miBits, offline.miBits);
        EXPECT_EQ(online.miBitsRaw, offline.miBitsRaw);
        EXPECT_EQ(online.intrinsicEntropy, offline.intrinsicEntropy);
        EXPECT_EQ(online.shapedEntropy, offline.shapedEntropy);
        EXPECT_EQ(online.pairs, offline.pairs);
        EXPECT_EQ(online.fakeEvents, offline.fakeEvents);
        EXPECT_GT(online.pairs, 100u);
    }
}

TEST(LeakMonitor, ShapingCollapsesMi)
{
    obs::LeakMonitorConfig lc;
    auto unshaped = runCovert(false, lc);
    auto shaped = runCovert(true, lc);

    // Cumulative MI is the stable comparison (windowed estimates on
    // the shaped side have few pairs per window and a high variance).
    const double mi_unshaped =
        unshaped->leakMonitor()->cumulativeResult().miBits;
    const double mi_shaped =
        shaped->leakMonitor()->cumulativeResult().miBits;
    EXPECT_GT(mi_unshaped, 0.5)
        << "unshaped covert sender must show substantial MI";
    EXPECT_LT(mi_shaped, mi_unshaped / 2.0)
        << "request shaping must collapse the MI";

    const double peak_unshaped =
        unshaped->leakMonitor()->peakWindowMiBits();
    EXPECT_GT(peak_unshaped, 0.5)
        << "the windowed series must expose the covert pulses too";
}

TEST(LeakMonitor, AlertFiresDeterministicallyAtThreshold)
{
    // Calibrate monitor-only, then alert at half the observed peak.
    obs::LeakMonitorConfig lc;
    auto calib = runCovert(false, lc);
    const double peak = calib->leakMonitor()->peakWindowMiBits();
    ASSERT_GT(peak, 0.0);

    lc.alertThresholdBits = peak / 2.0;
    try {
        runCovert(false, lc);
        FAIL() << "expected a LeakageAlert";
    } catch (const hard::LeakageAlert &e) {
        EXPECT_FALSE(e.diagnostic().empty())
            << "alert must carry the structured diagnostic dump";
        EXPECT_NE(std::string(e.what()).find("leak"),
                  std::string::npos);
    }
    // And again: the alert is a deterministic property of the run.
    EXPECT_THROW(runCovert(false, lc), hard::LeakageAlert);
}

TEST(LeakMonitor, AlertCycleIdenticalAcrossRepeatsAndFastForward)
{
    obs::LeakMonitorConfig lc;
    auto calib = runCovert(false, lc);
    lc.alertThresholdBits =
        calib->leakMonitor()->peakWindowMiBits() / 2.0;

    // Scan the monitor-only window history for the cycle at which an
    // alerting monitor would have fired (the previous test pins that
    // the alerting configuration actually throws).
    auto alertAtOf = [&](bool ff) -> Cycle {
        sim::SystemConfig cfg = covertConfig(false);
        cfg.fastForward = ff;
        obs::LeakMonitorConfig monitor_only = lc;
        monitor_only.alertThresholdBits =
            std::numeric_limits<double>::infinity();
        sim::System system(
            sim::SystemPlan(cfg, {kSender, "probe", "sjeng", "sjeng"}));
        system.enableLeakMonitor(monitor_only);
        system.run(kCycles);
        const auto &hist = system.leakMonitor()->history();
        std::uint32_t streak = 0;
        for (const auto &w : hist) {
            streak = (w.miBits > lc.alertThresholdBits &&
                      w.pairs >= lc.minWindowPairs)
                         ? streak + 1
                         : 0;
            if (streak >= lc.consecutiveBreaches)
                return w.at;
        }
        return 0;
    };

    const Cycle ff_alert = alertAtOf(true);
    const Cycle plain_alert = alertAtOf(false);
    EXPECT_GT(ff_alert, 0u);
    EXPECT_EQ(ff_alert, plain_alert)
        << "alert cycle must not depend on fast-forward";
}

TEST(LeakMonitor, HistoryIdenticalUnderFastForward)
{
    obs::LeakMonitorConfig lc;
    auto fast = runCovert(false, lc, true);
    auto plain = runCovert(false, lc, false);

    const auto &hf = fast->leakMonitor()->history();
    const auto &hp = plain->leakMonitor()->history();
    ASSERT_EQ(hf.size(), hp.size());
    ASSERT_GT(hf.size(), 5u);
    for (std::size_t i = 0; i < hf.size(); ++i) {
        EXPECT_EQ(hf[i].at, hp[i].at);
        EXPECT_EQ(hf[i].miBits, hp[i].miBits);
        EXPECT_EQ(hf[i].pairs, hp[i].pairs);
    }
}

TEST(LeakMonitor, IntervalSeriesGrowsLeakmonColumn)
{
    sim::SystemConfig cfg = covertConfig(false);
    sim::System system(
        sim::SystemPlan(cfg, {kSender, "probe", "sjeng", "sjeng"}));
    obs::LeakMonitorConfig lc;
    system.enableLeakMonitor(lc);
    system.enableIntervalStats(20000);
    system.run(kCycles);

    const std::string csv = system.intervalStats()->toCsv();
    EXPECT_NE(csv.find("leakmon.window_mi_bits"), std::string::npos);
}

TEST(LeakMonitor, RejectsInvalidConfig)
{
    sim::SystemConfig cfg = covertConfig(false);
    sim::System system(
        sim::SystemPlan(cfg, {kSender, "probe", "sjeng", "sjeng"}));

    obs::LeakMonitorConfig bad_core;
    bad_core.core = 99;
    EXPECT_THROW(system.enableLeakMonitor(bad_core),
                 hard::ConfigError);

    obs::LeakMonitorConfig bad_window;
    bad_window.windowCycles = 0;
    EXPECT_THROW(system.enableLeakMonitor(bad_window),
                 hard::ConfigError);

    obs::LeakMonitorConfig ok;
    system.enableLeakMonitor(ok);
    EXPECT_THROW(system.enableLeakMonitor(ok), hard::ConfigError)
        << "double-enable must be rejected";
}
