/**
 * @file
 * Quickstart: build the paper's Table II machine, protect it with
 * Bi-directional Camouflage, and compare throughput and leakage
 * against the unprotected baseline.
 */

#include <cstdio>

#include "src/security/mutual_information.h"
#include "src/sim/plan.h"
#include "src/sim/presets.h"
#include "src/sim/runner.h"

using namespace camo;

int
main()
{
    // A malicious VM ("mcf" here) co-scheduled with three instances of
    // a victim application.
    const auto mix = sim::adversaryMix("mcf", "astar");

    // 1. Unprotected baseline: FR-FCFS, no shaping.
    sim::SystemConfig base_cfg = sim::paperConfig();
    base_cfg.recordTraffic = true;
    sim::System baseline(sim::SystemPlan(base_cfg, mix));
    baseline.run(600000);

    // 2. The same machine protected by Bi-directional Camouflage.
    sim::SystemConfig camo_cfg = sim::paperConfig();
    camo_cfg.mitigation = sim::Mitigation::BDC;
    camo_cfg.recordTraffic = true;
    sim::System protected_sys(sim::SystemPlan(camo_cfg, mix));
    protected_sys.run(600000);

    std::printf("core | workload | baseline IPC | BDC IPC\n");
    for (std::uint32_t i = 0; i < 4; ++i) {
        std::printf("%4u | %-8s | %12.3f | %7.3f\n", i,
                    mix[i].c_str(), baseline.coreAt(i).ipc(),
                    protected_sys.coreAt(i).ipc());
    }

    // 3. How much timing information leaks from the victim's request
    //    stream? (mutual information between intrinsic and observed)
    // Quantize at the shaper's own ten intervals (the paper's
    // measurement granularity).
    const Histogram quantizer(shaper::BinConfig::desired().edges);
    const auto unshaped = security::computeUnshapedLeakage(
        baseline.intrinsicMonitor(1).events(), quantizer);
    // Cross-run pairing: the intrinsic (unshaped) timing vs the
    // shaped observable (see DESIGN.md SIV-B2 methodology).
    const auto shaped = security::computeShapingMi(
        baseline.intrinsicMonitor(1).events(),
        protected_sys.requestShaper(1)->postMonitor().events(),
        quantizer);

    std::printf("\nleakage (bits): no shaping H(X) = %.3f, "
                "BDC I(X;Y) = %.4f (%.2f%% of unshaped)\n",
                unshaped.miBits, shaped.miBits,
                100.0 * shaped.leakFraction());
    return 0;
}
