/**
 * @file
 * Figure 11: Camouflage shapes every application's intrinsic request
 * inter-arrival distribution into the DESIRED distribution
 * (monotonically decreasing bin sizes 10, 9, ..., 1).
 *
 * For each of the 11 workloads we print the intrinsic (pre-shaper)
 * per-bin distribution, the post-Camouflage distribution measured by
 * an independent monitor bin, and the DESIRED target, plus the total
 * variation distance between shaped and DESIRED.
 */

#include <cstdio>

#include "src/camouflage/bin_config.h"
#include "src/common/histogram.h"
#include "src/security/divergence.h"
#include "src/sim/plan.h"
#include "src/sim/presets.h"
#include "src/sim/runner.h"
#include "src/trace/workloads.h"

using namespace camo;

int
main()
{
    std::printf("%s", sim::systemBanner(sim::paperConfig()).c_str());
    std::printf("# Figure 11: shaping arbitrary request distributions "
                "into DESIRED\n");

    const shaper::BinConfig desired = shaper::BinConfig::desired();
    std::printf("# DESIRED credits per bin:");
    for (const auto c : desired.credits)
        std::printf(" %u", c);
    std::printf("  (period=%llu cycles)\n\n",
                static_cast<unsigned long long>(desired.replenishPeriod));

    std::printf("%-10s %-9s %s\n", "workload", "stream",
                "bin share (%) for bins 0..9");

    for (const std::string &name : trace::workloadNames()) {
        sim::SystemConfig cfg = sim::paperConfig();
        cfg.mitigation = sim::Mitigation::ReqC;
        cfg.reqBins = desired;
        cfg.numCores = 1;
        sim::System system(sim::SystemPlan(cfg, {name}));
        system.run(400000);

        const auto &pre = system.intrinsicMonitor(0).histogram();
        const auto &post =
            system.requestShaper(0)->postMonitor().histogram();

        Histogram target(desired.edges);
        for (std::size_t i = 0; i < desired.numBins(); ++i)
            target.add(desired.edges[i], desired.credits[i]);

        auto print_row = [&](const char *label, const Histogram &h) {
            std::printf("%-10s %-9s", name.c_str(), label);
            for (const double p : h.pmf())
                std::printf(" %5.1f", 100.0 * p);
            std::printf("\n");
        };
        print_row("intrinsic", pre);
        print_row("shaped", post);
        print_row("DESIRED", target);

        // Statistical closeness of the shaped stream to the target.
        std::vector<std::uint64_t> observed;
        for (std::size_t i = 0; i < post.numBins(); ++i)
            observed.push_back(post.count(i));
        const auto chi2 =
            security::chiSquareGoodnessOfFit(observed, target.pmf());
        std::printf("%-10s TVD = %.4f, KL = %.4f bits, chi2 = %.1f "
                    "(df %u)   (paper: shaped == DESIRED)\n\n",
                    name.c_str(), post.totalVariationDistance(target),
                    security::klDivergenceBits(post, target),
                    chi2.statistic, chi2.degreesOfFreedom);
    }
    return 0;
}
