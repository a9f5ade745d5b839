/**
 * @file
 * §IV-C / Figure 8, full online operation: CONFIG_PHASE + RUN_PHASE
 * with phase-change-triggered reconfiguration.
 *
 * A phase-heavy mix runs under BDC three ways: a hand-written static
 * configuration, a one-shot GA configuration, and the adaptive
 * runtime that re-runs the GA when the EWMA phase detector fires —
 * each reconfiguration charged against the E x log2(R) leakage
 * budget.
 */

#include <cstdio>

#include "src/common/logging.h"
#include "src/common/parse.h"
#include "src/sim/parallel.h"
#include "src/sim/presets.h"
#include "src/sim/runner.h"

using namespace camo;

namespace {

constexpr Cycle kRunCycles = 1500000;

} // namespace

int
main(int argc, char **argv)
{
    ga::GaConfig ga_cfg;
    const auto gens = argc > 1 ? parseUnsigned(argv[1]) : std::uint64_t{6};
    const auto pop = argc > 2 ? parseUnsigned(argv[2]) : std::uint64_t{12};
    if (!gens || !pop)
        camo_fatal("usage: bench_adaptive_runtime [GENERATIONS] [POPULATION]");
    ga_cfg.generations = *gens;
    ga_cfg.populationSize = *pop;

    std::printf("%s", sim::systemBanner(sim::paperConfig()).c_str());
    std::printf("# SIV-C online operation: static vs one-shot GA vs "
                "adaptive reconfiguration\n");
    const auto mix = sim::adversaryMix("bzip", "apache");
    std::printf("# mix: w(bzip, apache x3) — apache's on/off phases "
                "are the adaptation target\n\n");

    sim::SystemConfig cfg = sim::paperConfig();
    cfg.mitigation = sim::Mitigation::BDC;

    // The three deployment modes share nothing, so they run as three
    // parallel jobs: the hand-written static configuration, the
    // one-shot GA then a static run (the paper's "GA at the beginning
    // of the program" deployment), and the adaptive runtime.
    struct ModeResult
    {
        sim::RunMetrics m;
        sim::OnlineGaResult tuned;   // one-shot GA mode only
        sim::AdaptiveResult adaptive;// adaptive mode only
    };
    const auto modes = sim::parallelMap(3, 0, [&](std::size_t i) {
        ModeResult r;
        if (i == 0) {
            r.m = sim::runConfig(cfg, mix, kRunCycles, 30000);
        } else if (i == 1) {
            r.tuned = sim::runOnlineGa(cfg, mix, ga_cfg);
            sim::SystemConfig tuned_cfg = cfg;
            tuned_cfg.reqBinsPerCore = r.tuned.reqBinsPerCore;
            tuned_cfg.respBinsPerCore = r.tuned.respBinsPerCore;
            r.m = sim::runConfig(tuned_cfg, mix, kRunCycles, 30000);
        } else {
            sim::AdaptiveConfig ad;
            ad.ga = ga_cfg;
            r.adaptive = sim::runAdaptive(cfg, mix, kRunCycles, ad);
        }
        return r;
    });
    const auto &static_m = modes[0].m;
    const auto &tuned = modes[1].tuned;
    const auto &oneshot_m = modes[1].m;
    const auto &adaptive = modes[2].adaptive;

    std::printf("%-22s %12s %14s %14s\n", "mode", "throughput",
                "reconfigs", "leak bound");
    std::printf("%-22s %12.3f %14s %14s\n", "static DESIRED",
                static_m.throughput(), "0", "0.0");
    std::printf("%-22s %12.3f %14s %14.1f\n", "one-shot GA",
                oneshot_m.throughput(), "1",
                tuned.configPhaseLeakBoundBits);
    std::printf("%-22s %12.3f %14llu %14.1f\n", "adaptive",
                adaptive.metrics.throughput(),
                static_cast<unsigned long long>(
                    adaptive.reconfigurations),
                adaptive.leakBoundBits);
    std::printf("\nadaptive details: %llu phase changes detected, "
                "reconfigured at cycles:",
                static_cast<unsigned long long>(
                    adaptive.phaseChangesDetected));
    for (const Cycle c : adaptive.reconfigAt)
        std::printf(" %llu", static_cast<unsigned long long>(c));
    std::printf("\n# expectation: GA modes beat the static hand "
                "configuration; adaptation spends leakage budget\n"
                "# (E x log2 R per reconfiguration) for robustness to "
                "phase changes\n");
    return 0;
}
