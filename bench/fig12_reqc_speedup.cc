/**
 * @file
 * Figure 12: single-program speedup of Request Camouflage over a
 * static (constant-rate) limiter at the same 1 GB/s average budget.
 *
 * The static shaper allows one request every 1/(1GB/s / 64B) seconds;
 * Camouflage spends the same budget as a distribution with burst-
 * friendly low-interval bins, so bursty applications recover the
 * latency the rate limiter forces onto every request.
 * Paper: geomean 1.12x; mcf 1.48x, omnetpp 1.47x, hmmer/gcc/apache
 * ~1.1x, low-intensity apps ~1.0x.
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

constexpr Cycle kMeasureCycles = 600000;
constexpr Cycle kWarmup = 50000;

/**
 * The shared per-application budget. The paper used 1 GB/s on its
 * traces; our synthetic workloads have different absolute intensities
 * (DESIGN.md §5), so the equivalent "budget below the intense apps'
 * burst demand but above their average" point is a 40-cycle interval
 * (= 3.84 GB/s at 2.4 GHz and 64 B lines). Override with argv[1].
 */
Cycle g_cs_interval = 40;

/** Same budget as the CS interval, spent as a bursty distribution. */
shaper::BinConfig
burstyBudget(Cycle period)
{
    const auto total =
        static_cast<std::uint32_t>(period / g_cs_interval);
    // Front-load roughly half the credits so bursts pass back-to-back,
    // and decay the rest across the longer-interval bins.
    std::vector<std::uint32_t> credits(10, 0);
    credits[0] = total / 2;
    std::uint32_t rest = total - credits[0];
    for (std::size_t i = 1; i < credits.size() && rest > 0; ++i) {
        const std::uint32_t c = std::max<std::uint32_t>(1, rest / 2);
        credits[i] = c;
        rest -= c;
    }
    credits[9] += rest;
    return shaper::BinConfig::geometric(credits, 20, 1.7, period);
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc > 1) {
        const auto interval = parseUnsigned(argv[1]);
        if (!interval)
            camo_fatal("usage: bench_fig12_reqc_speedup [CS_INTERVAL]");
        g_cs_interval = *interval;
    }
    std::printf("%s", sim::systemBanner(sim::paperConfig()).c_str());
    std::printf("# Figure 12: ReqC speedup vs static 1 GB/s rate "
                "limiter (single program, same average budget)\n");
    const shaper::BinConfig reqc = burstyBudget(10000);
    std::printf("# CS: 1 request / %llu cycles; ReqC: %s "
                "(total %llu credits)\n\n",
                static_cast<unsigned long long>(g_cs_interval),
                reqc.toString().c_str(),
                static_cast<unsigned long long>(reqc.totalCredits()));

    std::printf("%-10s %10s %10s %9s\n", "workload", "CS IPC",
                "ReqC IPC", "speedup");
    // One CS + one ReqC run per workload, fanned across the pool.
    const auto names = trace::workloadNames();
    std::vector<sim::SimJob> jobs;
    for (const std::string &name : names) {
        sim::SystemConfig cs = sim::paperConfig();
        cs.numCores = 1;
        cs.mitigation = sim::Mitigation::CS;
        cs.csInterval = g_cs_interval;
        cs.fakeTraffic = false; // isolate the shaping policy itself
        jobs.push_back({cs, {name}, kMeasureCycles, kWarmup});

        sim::SystemConfig rc = sim::paperConfig();
        rc.numCores = 1;
        rc.mitigation = sim::Mitigation::ReqC;
        rc.reqBins = reqc;
        rc.fakeTraffic = false;
        jobs.push_back({rc, {name}, kMeasureCycles, kWarmup});
    }
    const auto metrics = sim::runConfigsParallel(jobs);

    std::vector<double> speedups;
    for (std::size_t i = 0; i < names.size(); ++i) {
        const auto &cs_m = metrics[2 * i];
        const auto &rc_m = metrics[2 * i + 1];
        const double speedup = rc_m.ipc[0] / cs_m.ipc[0];
        speedups.push_back(speedup);
        std::printf("%-10s %10.3f %10.3f %9.3f\n", names[i].c_str(),
                    cs_m.ipc[0], rc_m.ipc[0], speedup);
    }
    std::printf("%-10s %10s %10s %9.3f   (paper: 1.12)\n", "GEOMEAN",
                "", "", geomean(speedups));
    return 0;
}
