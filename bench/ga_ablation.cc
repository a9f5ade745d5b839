/**
 * @file
 * §IV-C: the online genetic algorithm (paper Figure 8 flow).
 *
 * Runs the CONFIG_PHASE on w(ADVERSARY, astar) and reports the best
 * fitness (negated average MISE slowdown) per generation, the final
 * bin configurations, and the RUN_PHASE throughput of the GA-found
 * configuration vs the hand-written DESIRED configuration and a
 * constant-rate shaper with the same total budget.
 */

#include <cstdio>

#include "src/common/logging.h"
#include "src/common/parse.h"
#include "src/sim/parallel.h"
#include "src/sim/presets.h"
#include "src/sim/runner.h"

using namespace camo;

namespace {

constexpr Cycle kMeasureCycles = 300000;
constexpr Cycle kWarmup = 30000;

} // namespace

int
main(int argc, char **argv)
{
    ga::GaConfig ga_cfg;
    const auto gens = argc > 1 ? parseUnsigned(argv[1]) : std::uint64_t{10};
    const auto pop = argc > 2 ? parseUnsigned(argv[2]) : std::uint64_t{16};
    if (!gens || !pop)
        camo_fatal("usage: bench_ga_ablation [GENERATIONS] [POPULATION]");
    ga_cfg.generations = *gens;
    ga_cfg.populationSize = *pop;

    std::printf("%s", sim::systemBanner(sim::paperConfig()).c_str());
    std::printf("# SIV-C: online GA, %zu generations x %zu children, "
                "20k-cycle epochs, fitness = -avg MISE slowdown\n\n",
                ga_cfg.generations, ga_cfg.populationSize);

    const auto mix = sim::adversaryMix("bzip", "astar");
    sim::SystemConfig cfg = sim::paperConfig();
    cfg.mitigation = sim::Mitigation::BDC;

    const auto tuned = sim::runOnlineGa(cfg, mix, ga_cfg);

    std::printf("generation best_fitness (higher is better)\n");
    for (std::size_t g = 0; g < tuned.generationBest.size(); ++g)
        std::printf("%10zu %.4f\n", g, tuned.generationBest[g]);
    std::printf("\nper-core tuned configurations:\n");
    for (std::size_t c = 0; c < tuned.reqBinsPerCore.size(); ++c) {
        std::printf("core %zu req:  %s\n", c,
                    tuned.reqBinsPerCore[c].toString().c_str());
        std::printf("core %zu resp: %s\n", c,
                    tuned.respBinsPerCore[c].toString().c_str());
    }
    std::printf("\nCONFIG_PHASE length: %llu cycles; reconfiguration "
                "leak bound (E x log2 R): %.1f bits\n",
                static_cast<unsigned long long>(tuned.configPhaseCycles),
                tuned.configPhaseLeakBoundBits);
    // Offline comparator: same genome layout and MISE fitness, but
    // each child evaluated in a fresh seed-derived system, fanned
    // across the worker pool (src/sim/parallel.h).
    const auto offline = sim::runOfflineGa(cfg, mix, ga_cfg);
    std::printf("\noffline GA (parallel, fresh system per child): "
                "best fitness %.4f over %zu generations\n",
                offline.bestFitness, offline.generationBest.size());

    // RUN_PHASE comparison, all four configurations swept in parallel.
    sim::SystemConfig ga_run = cfg;
    ga_run.reqBinsPerCore = tuned.reqBinsPerCore;
    ga_run.respBinsPerCore = tuned.respBinsPerCore;

    sim::SystemConfig offline_run = cfg;
    offline_run.reqBinsPerCore = offline.reqBinsPerCore;
    offline_run.respBinsPerCore = offline.respBinsPerCore;

    sim::SystemConfig desired_run = cfg;

    // Naive comparator: the same total budget spread uniformly over
    // the bins (no workload awareness), still BDC so the comparison
    // is like-for-like.
    sim::SystemConfig uniform_run = cfg;
    const auto per_bin = static_cast<std::uint32_t>(
        tuned.reqBins.totalCredits() / tuned.reqBins.numBins());
    shaper::BinConfig uniform = tuned.reqBins;
    for (auto &c : uniform.credits)
        c = std::max(1u, per_bin);
    uniform_run.reqBins = uniform;
    uniform_run.respBins = uniform;

    const auto runs = sim::runConfigsParallel({
        {ga_run, mix, kMeasureCycles, kWarmup},
        {offline_run, mix, kMeasureCycles, kWarmup},
        {desired_run, mix, kMeasureCycles, kWarmup},
        {uniform_run, mix, kMeasureCycles, kWarmup},
    });

    std::printf("\nRUN_PHASE throughput: GA config %.3f | offline GA "
                "%.3f | DESIRED %.3f | uniform same-budget %.3f\n",
                runs[0].throughput(), runs[1].throughput(),
                runs[2].throughput(), runs[3].throughput());
    std::printf("# expectation: GA >= hand-written configurations\n");
    return 0;
}
