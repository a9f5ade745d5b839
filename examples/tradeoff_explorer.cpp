/**
 * @file
 * Example: exploring Camouflage's security/performance trade-off
 * space for a workload of your choice (the paper's headline claim is
 * that this space exists at all — CS/TP/FS are single points).
 *
 * Usage: tradeoff_explorer [workload]   (default mcf)
 *
 * Sweeps the shaping budget and the distribution shape, printing one
 * frontier row per configuration. Budgets are credits per 10k-cycle
 * replenishment window for the protected cores.
 */

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "src/security/mutual_information.h"
#include "src/sim/plan.h"
#include "src/sim/presets.h"
#include "src/sim/runner.h"
#include "src/trace/workloads.h"

using namespace camo;

namespace {

constexpr Cycle kRunCycles = 800000;

shaper::BinConfig
shapeConfig(const std::string &shape, std::uint32_t budget)
{
    std::vector<std::uint32_t> credits(10, 0);
    if (shape == "uniform") {
        for (auto &c : credits)
            c = std::max(1u, budget / 10);
    } else if (shape == "bursty") {
        std::uint32_t rest = budget;
        for (auto &c : credits) {
            c = std::max(1u, rest / 2);
            rest -= std::min(rest, c);
        }
    } else { // "ramp": the DESIRED-style decreasing ramp
        std::uint32_t granted = 0;
        for (std::size_t i = 0; i < 10; ++i) {
            credits[i] = std::max(
                1u, static_cast<std::uint32_t>(
                        2.0 * budget * (10 - i) / (10 * 11)));
            granted += credits[i];
        }
    }
    return shaper::BinConfig::geometric(credits, 20, 1.7, 10000);
}

} // namespace

int
main(int argc, char **argv)
{
    const std::string workload = argc > 1 ? argv[1] : "mcf";
    if (!trace::isKnownWorkload(workload)) {
        std::fprintf(stderr, "unknown workload '%s'; try one of:",
                     workload.c_str());
        for (const auto &n : trace::workloadNames())
            std::fprintf(stderr, " %s", n.c_str());
        std::fprintf(stderr, "\n");
        return 1;
    }

    const auto mix = sim::adversaryMix("probe", workload);
    const auto reference = sim::unshapedIntrinsicEvents(
        sim::paperConfig(), mix, 1, kRunCycles);
    const Histogram quantizer(shaper::BinConfig::desired().edges);

    // Unprotected corner of the space.
    sim::SystemConfig base_cfg = sim::paperConfig();
    const auto base = sim::runConfig(base_cfg, mix, kRunCycles, 50000);

    std::printf("trade-off frontier for '%s' (protected on cores "
                "1-3; budget = credits / 10k cycles)\n\n",
                workload.c_str());
    std::printf("%-8s %8s %14s %14s %12s\n", "shape", "budget",
                "gap MI (bits)", "app slowdown", "fake/real");
    std::printf("%-8s %8s %14s %14.3f %12s   <- no shaping\n", "-",
                "inf", "= H(X)", 1.0, "-");

    for (const std::string shape : {"uniform", "ramp", "bursty"}) {
        for (const std::uint32_t budget : {28u, 55u, 110u, 220u}) {
            sim::SystemConfig cfg = sim::paperConfig();
            cfg.mitigation = sim::Mitigation::ReqC;
            cfg.shapeCore = {false, true, true, true};
            cfg.reqBins = shapeConfig(shape, budget);
            cfg.recordTraffic = true;
            sim::System system(sim::SystemPlan(cfg, mix));
            system.run(kRunCycles);

            auto *sh = system.requestShaper(1);
            const auto mi = security::computeShapingMi(
                reference, sh->postMonitor().events(), quantizer);
            const double slowdown =
                base.ipc[1] / std::max(1e-9, system.coreAt(1).ipc());
            const double fake_ratio =
                sh->bins().realIssued()
                    ? static_cast<double>(sh->bins().fakeIssued()) /
                          sh->bins().realIssued()
                    : 0.0;
            std::printf("%-8s %8u %14.4f %14.2f %12.2f\n",
                        shape.c_str(), budget, mi.miBits, slowdown,
                        fake_ratio);
        }
    }
    std::printf("\npick the row matching your leakage budget; "
                "Camouflage's value is that these rows exist.\n");
    return 0;
}
