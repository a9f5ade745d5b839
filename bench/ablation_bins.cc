/**
 * @file
 * Ablation: how the number of hardware bins trades security for
 * performance (DESIGN.md ablation index; the paper chose 10 bins,
 * §III-A1).
 *
 * One bin is configured as the degenerate constant-rate shaper
 * (paper §III-B3); more bins let the shaper track burstiness,
 * recovering performance. The budget (total credits per period) is
 * held constant across all points.
 */

#include <cmath>
#include <cstdio>
#include <vector>

#include "src/security/mutual_information.h"
#include "src/sim/plan.h"
#include "src/sim/presets.h"
#include "src/sim/runner.h"

using namespace camo;

namespace {

constexpr Cycle kRunCycles = 800000;
constexpr std::uint32_t kBudget = 200; ///< credits per 10000 cycles

/** A bin config with `n` bins and a constant total budget. */
shaper::BinConfig
makeBins(std::size_t n)
{
    if (n == 1) {
        // Degenerate constant-rate configuration (paper SIII-B3).
        return shaper::BinConfig::constantRate(10000 / kBudget, 10000);
    }
    // Decreasing credit ramp across n bins, totalling ~kBudget.
    std::vector<std::uint32_t> credits(n);
    std::uint32_t granted = 0;
    for (std::size_t i = 0; i < n; ++i) {
        const auto c = static_cast<std::uint32_t>(
            (2.0 * kBudget * (n - i)) / (n * (n + 1)) + 0.5);
        credits[i] = std::max(1u, c);
        granted += credits[i];
    }
    (void)granted;
    const double ratio =
        std::pow(600.0 / 10.0, 1.0 / static_cast<double>(n - 1));
    return shaper::BinConfig::geometric(std::move(credits), 10, ratio,
                                        10000);
}

} // namespace

int
main()
{
    std::printf("%s", sim::systemBanner(sim::paperConfig()).c_str());
    std::printf("# Ablation: bin count at a fixed budget of %u "
                "credits / 10000 cycles.\n"
                "# mix: w(bzip, apache); ReqC on the apache victims\n\n",
                kBudget);
    std::printf("%5s %12s %14s %12s\n", "bins", "throughput",
                "MI(bits)@10q", "fake/real");

    const Histogram quantizer(shaper::BinConfig::desired().edges);
    const auto mix = sim::adversaryMix("bzip", "apache");
    const auto reference =
        sim::unshapedIntrinsicEvents(sim::paperConfig(), mix, 1,
                                     kRunCycles);

    for (const std::size_t n : {std::size_t(1), std::size_t(2),
                                std::size_t(4), std::size_t(8),
                                std::size_t(10), std::size_t(16)}) {
        sim::SystemConfig cfg = sim::paperConfig();
        cfg.mitigation = sim::Mitigation::ReqC;
        cfg.shapeCore = {false, true, true, true};
        cfg.reqBins = makeBins(n);
        cfg.recordTraffic = true;
        sim::System system(sim::SystemPlan(cfg, mix));
        system.run(kRunCycles);

        double tput = 0.0;
        for (std::uint32_t i = 0; i < system.numCores(); ++i)
            tput += system.coreAt(i).ipc();

        auto *sh = system.requestShaper(1);
        const auto mi = security::computeShapingMi(
            reference, sh->postMonitor().events(), quantizer);
        const double fake_ratio =
            sh->bins().realIssued()
                ? static_cast<double>(sh->bins().fakeIssued()) /
                      static_cast<double>(sh->bins().realIssued())
                : 0.0;
        std::printf("%5zu %12.3f %14.4f %12.3f\n", n, tput, mi.miBits,
                    fake_ratio);
    }
    std::printf("\n# expectation: throughput rises with bin count at "
                "equal budget; 1 bin is the CS subset\n");
    return 0;
}
