/** @file System-level property sweep: every mitigation x several
 *  workload mixes upholds the same invariants. */

#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "src/sim/plan.h"
#include "src/sim/presets.h"
#include "src/sim/runner.h"

namespace camo::sim {
namespace {

using Param = std::tuple<Mitigation, std::string, std::string>;

class MitigationSweep : public ::testing::TestWithParam<Param>
{
};

TEST_P(MitigationSweep, InvariantsHold)
{
    const auto [mit, adv, victim] = GetParam();
    SystemConfig cfg = paperConfig();
    cfg.mitigation = mit;
    cfg.recordLatencies = true;
    System system(SystemPlan(cfg, adversaryMix(adv, victim)));
    system.run(40000);

    std::uint64_t total_served = 0;
    for (std::uint32_t i = 0; i < system.numCores(); ++i) {
        // Progress: every core retires instructions.
        EXPECT_GT(system.coreAt(i).retired(), 0u) << "core " << i;
        // Conservation: a core never receives more real read
        // responses than LLC-miss events it generated (+1 for the
        // gap-counting monitor).
        EXPECT_LE(system.servedReads(i),
                  system.intrinsicMonitor(i).count() + 1)
            << "core " << i;
        // Latency log is time ordered and plausibly bounded below.
        const auto &log = system.latencyLog(i);
        for (std::size_t k = 1; k < log.size(); ++k)
            ASSERT_GE(log[k].at, log[k - 1].at);
        for (const auto &s : log)
            ASSERT_GE(s.latency, 10u) << "impossibly fast response";
        total_served += system.servedReads(i);
    }
    EXPECT_GT(total_served, 0u);

    // The DRAM device never fell behind on refresh.
    EXPECT_LE(system.memory().channel(0).device().refreshDebt(
                  0, system.memory().channel(0).dramCycle()),
              2u);
}

TEST_P(MitigationSweep, DeterministicAcrossRuns)
{
    const auto [mit, adv, victim] = GetParam();
    SystemConfig cfg = paperConfig();
    cfg.mitigation = mit;
    cfg.seed = 99;
    const auto a = runConfig(cfg, adversaryMix(adv, victim), 20000);
    const auto b = runConfig(cfg, adversaryMix(adv, victim), 20000);
    for (std::uint32_t i = 0; i < 4; ++i) {
        ASSERT_EQ(a.retired[i], b.retired[i]) << "core " << i;
        ASSERT_EQ(a.servedReads[i], b.servedReads[i]) << "core " << i;
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllSchemes, MitigationSweep,
    ::testing::Combine(
        ::testing::Values(Mitigation::None, Mitigation::CS,
                          Mitigation::ReqC, Mitigation::RespC,
                          Mitigation::BDC, Mitigation::TP,
                          Mitigation::FS),
        ::testing::Values(std::string("bzip"), std::string("probe")),
        ::testing::Values(std::string("mcf"), std::string("apache"))),
    [](const ::testing::TestParamInfo<Param> &info) {
        std::string name =
            std::string(mitigationName(std::get<0>(info.param))) + "_" +
            std::get<1>(info.param) + "_" + std::get<2>(info.param);
        for (char &c : name) {
            if (c == '-')
                c = '_'; // gtest names must be [A-Za-z0-9_]
        }
        return name;
    });

/** Shaped cores must conform to the programmed distribution whenever
 *  their demand saturates the budget (the Figure 11 property, across
 *  workloads). */
class ConformanceSweep : public ::testing::TestWithParam<std::string>
{
};

TEST_P(ConformanceSweep, SaturatedShapedTrafficMatchesProgram)
{
    SystemConfig cfg = paperConfig();
    cfg.mitigation = Mitigation::ReqC;
    cfg.numCores = 1;
    System system(SystemPlan(cfg, {GetParam()}));
    system.run(300000);

    const auto desired = shaper::BinConfig::desired();
    Histogram target(desired.edges);
    for (std::size_t i = 0; i < desired.numBins(); ++i)
        target.add(desired.edges[i], desired.credits[i]);
    const double tvd = system.requestShaper(0)
                           ->postMonitor()
                           .histogram()
                           .totalVariationDistance(target);
    EXPECT_LT(tvd, 0.12) << GetParam();
}

INSTANTIATE_TEST_SUITE_P(
    Workloads, ConformanceSweep,
    ::testing::Values("mcf", "libqt", "omnetpp", "apache", "astar",
                      "gcc"));

} // namespace
} // namespace camo::sim
