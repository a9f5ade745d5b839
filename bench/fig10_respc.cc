/**
 * @file
 * Figure 10: Response Camouflage performance.
 *
 * (a) w(ADVERSARY, astar) with the ADVERSARY's responses shaped to the
 *     response distribution it would see in w(ADVERSARY, mcf): the
 *     adversary is throttled to sustain the illusion (paper: ADV
 *     slowdown 1.00-1.09, geomean 1.03; throughput ~1.02).
 * (b) w(ADVERSARY, mcf) shaped to the w(ADVERSARY, astar) response
 *     distribution: RespC must accelerate the adversary via scheduler
 *     priority (paper: ADV "slowdown" 0.92-1.00, i.e. it speeds up;
 *     throughput cost 1.01-1.12, geomean 1.03).
 *
 * Each of the 11 workloads plays the ADVERSARY in turn.
 */

#include <cstdio>
#include <string>
#include <vector>

#include "src/common/stats.h"
#include "src/sim/parallel.h"
#include "src/sim/plan.h"
#include "src/sim/presets.h"
#include "src/sim/runner.h"
#include "src/trace/workloads.h"

using namespace camo;

namespace {

constexpr Cycle kMeasureCycles = 400000;
constexpr Cycle kWarmup = 40000;

shaper::BinConfig
responseBinsOfMix(const std::string &adv, const std::string &victim)
{
    sim::SystemConfig cfg = sim::paperConfig();
    cfg.recordTraffic = true;
    sim::System system(sim::SystemPlan(cfg, sim::adversaryMix(adv, victim)));
    system.run(kMeasureCycles);
    return sim::binsFromMonitor(system.responseMonitor(0),
                                kMeasureCycles,
                                cfg.respBins.replenishPeriod,
                                /*headroom=*/1.05);
}

void
runCase(const char *title, const std::string &run_victim,
        const std::string &target_victim)
{
    std::printf("\n# %s\n", title);
    std::printf("%-10s %18s %18s\n", "ADVERSARY", "ADV slowdown",
                "throughput slowdown");
    std::vector<double> adv_slow, tput_slow;

    // Each adversary needs three chained simulations (the target-mix
    // distribution pre-run, the baseline, and the shaped run);
    // adversaries are independent of one another, so each chain is
    // one job of the parallel map.
    struct CasePoint
    {
        double advSlowdown = 0.0;
        double tputSlowdown = 0.0;
    };
    const auto names = trace::workloadNames();
    const auto points = sim::parallelMap(
        names.size(), 0, [&](std::size_t i) {
            const std::string &adv = names[i];
            const auto mix = sim::adversaryMix(adv, run_victim);

            sim::SystemConfig base_cfg = sim::paperConfig();
            const auto base = sim::runConfig(base_cfg, mix,
                                             kMeasureCycles, kWarmup);

            sim::SystemConfig shaped_cfg = sim::paperConfig();
            shaped_cfg.mitigation = sim::Mitigation::RespC;
            shaped_cfg.shapeCore = {true, false, false, false};
            shaped_cfg.respBins = responseBinsOfMix(adv, target_victim);
            const auto shaped = sim::runConfig(
                shaped_cfg, mix, kMeasureCycles, kWarmup);

            CasePoint p;
            p.advSlowdown = base.ipc[0] / shaped.ipc[0];
            p.tputSlowdown = base.throughput() / shaped.throughput();
            return p;
        });

    for (std::size_t i = 0; i < names.size(); ++i) {
        adv_slow.push_back(points[i].advSlowdown);
        tput_slow.push_back(points[i].tputSlowdown);
        std::printf("%-10s %18.3f %18.3f\n", names[i].c_str(),
                    points[i].advSlowdown, points[i].tputSlowdown);
    }
    std::printf("%-10s %18.3f %18.3f\n", "GEOMEAN", geomean(adv_slow),
                geomean(tput_slow));
}

} // namespace

int
main()
{
    std::printf("%s", sim::systemBanner(sim::paperConfig()).c_str());
    std::printf("# Figure 10: RespC performance (slowdown = "
                "baseline IPC / shaped IPC; < 1 means speedup)\n");

    runCase("(a) w(ADV, astar) shaped to the w(ADV, mcf) response "
            "distribution (paper geomean: ADV 1.03, tput 1.02)",
            "astar", "mcf");
    runCase("(b) w(ADV, mcf) shaped to the w(ADV, astar) response "
            "distribution (paper geomean: ADV 0.97, tput 1.03)",
            "mcf", "astar");
    return 0;
}
