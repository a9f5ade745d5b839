/**
 * @file
 * Figure 13: Bi-directional Camouflage vs Temporal Partitioning and
 * Fixed Service (with bank partitioning).
 *
 * For each of the 11 ADVERSARY workloads mixed with (a) astar x3 and
 * (b) mcf x3, we report the workload-average slowdown of each secure
 * scheme relative to the unprotected FR-FCFS baseline. Paper: BDC has
 * minimal impact; TP costs ~1.5x more and FS ~1.32x more than BDC on
 * average.
 *
 * BDC bin configurations come from the online genetic algorithm
 * (paper §IV-C); pass a smaller generation/population count via argv
 * to trade fidelity for run time: fig13 [generations] [population].
 */

#include <cstdio>
#include <string>
#include <vector>

#include "src/common/logging.h"
#include "src/common/parse.h"
#include "src/common/stats.h"
#include "src/sim/parallel.h"
#include "src/sim/presets.h"
#include "src/sim/runner.h"
#include "src/trace/workloads.h"

using namespace camo;

namespace {

constexpr Cycle kMeasureCycles = 300000;
constexpr Cycle kWarmup = 30000;

double
avgSlowdown(const sim::RunMetrics &base, const sim::RunMetrics &test)
{
    const auto s = sim::slowdownVs(base, test);
    double sum = 0.0;
    for (const double v : s)
        sum += v;
    return sum / static_cast<double>(s.size());
}

} // namespace

int
main(int argc, char **argv)
{
    ga::GaConfig ga_cfg;
    // Per-core genomes (4 cores x 20 genes) need a bigger search than
    // the shared-config default would.
    const auto gens = argc > 1 ? parseUnsigned(argv[1]) : std::uint64_t{8};
    const auto pop = argc > 2 ? parseUnsigned(argv[2]) : std::uint64_t{14};
    if (!gens || !pop)
        camo_fatal("usage: bench_fig13_bdc [GENERATIONS] [POPULATION]");
    ga_cfg.generations = *gens;
    ga_cfg.populationSize = *pop;

    std::printf("%s", sim::systemBanner(sim::paperConfig()).c_str());
    std::printf("# Figure 13: program average slowdown vs unprotected "
                "FR-FCFS (lower is better)\n");
    std::printf("# BDC configured by online GA: %zu generations x %zu "
                "children, 20k-cycle epochs\n",
                ga_cfg.generations, ga_cfg.populationSize);

    for (const std::string &victim : {std::string("astar"),
                                      std::string("mcf")}) {
        std::printf("\n# (%s) w(ADVERSARY, %s)\n",
                    victim == "astar" ? "a" : "b", victim.c_str());
        std::printf("%-10s %8s %8s %8s\n", "ADVERSARY", "TP", "FS",
                    "BDC");
        std::vector<double> tp_all, fs_all, bdc_all;

        // Baseline/TP/FS are plain runConfig jobs; the BDC column
        // chains a (serial, live-system) online GA into its measured
        // run, so each adversary's whole chain is one parallel job.
        const auto names = trace::workloadNames();
        std::vector<sim::SimJob> jobs;
        for (const std::string &adv : names) {
            const auto mix = sim::adversaryMix(adv, victim);
            sim::SystemConfig base = sim::paperConfig();
            jobs.push_back({base, mix, kMeasureCycles, kWarmup});
            sim::SystemConfig tp = sim::paperConfig();
            tp.mitigation = sim::Mitigation::TP;
            jobs.push_back({tp, mix, kMeasureCycles, kWarmup});
            sim::SystemConfig fs = sim::paperConfig();
            fs.mitigation = sim::Mitigation::FS;
            jobs.push_back({fs, mix, kMeasureCycles, kWarmup});
        }
        const auto static_m = sim::runConfigsParallel(jobs);
        const auto bdc_m = sim::parallelMap(
            names.size(), 0, [&](std::size_t i) {
                const auto mix = sim::adversaryMix(names[i], victim);
                sim::SystemConfig bdc = sim::paperConfig();
                bdc.mitigation = sim::Mitigation::BDC;
                const auto tuned = sim::runOnlineGa(bdc, mix, ga_cfg);
                bdc.reqBinsPerCore = tuned.reqBinsPerCore;
                bdc.respBinsPerCore = tuned.respBinsPerCore;
                return sim::runConfig(bdc, mix, kMeasureCycles,
                                      kWarmup);
            });

        for (std::size_t i = 0; i < names.size(); ++i) {
            const auto &base_m = static_m[3 * i];
            const double tp_s = avgSlowdown(base_m, static_m[3 * i + 1]);
            const double fs_s = avgSlowdown(base_m, static_m[3 * i + 2]);
            const double bdc_s = avgSlowdown(base_m, bdc_m[i]);
            tp_all.push_back(tp_s);
            fs_all.push_back(fs_s);
            bdc_all.push_back(bdc_s);
            std::printf("%-10s %8.3f %8.3f %8.3f\n", names[i].c_str(),
                        tp_s, fs_s, bdc_s);
        }
        std::printf("%-10s %8.3f %8.3f %8.3f\n", "GEOMEAN",
                    geomean(tp_all), geomean(fs_all), geomean(bdc_all));
        std::printf("# paper: BDC beats TP by ~1.5x and FS by ~1.32x "
                    "on average\n");
    }
    return 0;
}
