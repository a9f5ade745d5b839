/**
 * @file
 * Figure 9: accumulated memory-request return-time difference seen by
 * the ADVERSARY between w(ADVERSARY, astar) and w(ADVERSARY, mcf).
 *
 * Under FR-FCFS the difference grows without bound (the adversary can
 * tell which neighbour it runs with: a timing channel). With Response
 * Camouflage shaping the adversary's responses to one fixed
 * distribution, the curve stays flat.
 */

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "src/sim/plan.h"
#include "src/sim/presets.h"
#include "src/sim/runner.h"

using namespace camo;

namespace {

constexpr Cycle kRunCycles = 1200000;
constexpr const char *kAdversary = "bzip";

std::vector<security::LatencySample>
adversaryLatencies(const std::string &victim, bool respc,
                   const shaper::BinConfig *resp_bins)
{
    sim::SystemConfig cfg = sim::paperConfig();
    cfg.recordLatencies = true;
    if (respc) {
        cfg.mitigation = sim::Mitigation::RespC;
        cfg.shapeCore = {true, false, false, false}; // shape the ADV
        cfg.respBins = *resp_bins;
    }
    sim::System system(
        sim::SystemPlan(cfg, sim::adversaryMix(kAdversary, victim)));
    system.run(kRunCycles);
    return system.latencyLog(0);
}

shaper::BinConfig
measuredResponseBins(const std::string &victim)
{
    // Measure the adversary's response inter-arrival distribution in
    // the reference mix and program it as the RespC target.
    sim::SystemConfig cfg = sim::paperConfig();
    cfg.recordTraffic = true;
    sim::System system(
        sim::SystemPlan(cfg, sim::adversaryMix(kAdversary, victim)));
    system.run(kRunCycles / 2);
    return sim::binsFromMonitor(system.responseMonitor(0),
                                kRunCycles / 2,
                                cfg.respBins.replenishPeriod,
                                /*headroom=*/1.0);
}

void
printSeries(const char *label,
            const std::vector<security::LatencySample> &a,
            const std::vector<security::LatencySample> &b)
{
    const std::size_t n = std::min(a.size(), b.size());
    std::printf("\n# %s: accumulated (lat_mcf - lat_astar) over the "
                "first %zu adversary requests\n", label, n);
    std::printf("request_index accumulated_diff_cycles\n");
    long long acc = 0;
    const std::size_t step = std::max<std::size_t>(1, n / 20);
    for (std::size_t i = 0; i < n; ++i) {
        acc += static_cast<long long>(b[i].latency) -
               static_cast<long long>(a[i].latency);
        if (i % step == 0 || i + 1 == n)
            std::printf("%13zu %lld\n", i, acc);
    }
    const double per_req =
        n ? static_cast<double>(acc) / static_cast<double>(n) : 0.0;
    std::printf("# drift: %.2f cycles/request (flat ~ 0 means no "
                "leak)\n", per_req);
}

} // namespace

int
main()
{
    std::printf("%s", sim::systemBanner(sim::paperConfig()).c_str());
    std::printf("# Figure 9: return-time difference between "
                "w(%s, astar) and w(%s, mcf)\n", kAdversary, kAdversary);

    // Unprotected FR-FCFS.
    const auto frfcfs_astar = adversaryLatencies("astar", false, nullptr);
    const auto frfcfs_mcf = adversaryLatencies("mcf", false, nullptr);
    printSeries("FR-FCFS (paper: grows to ~2e6 cycles)", frfcfs_astar,
                frfcfs_mcf);

    // Response Camouflage: both mixes shaped to the same response
    // distribution. Target the *slower* (mcf) mix: throttling to a
    // slower distribution is exact, while acceleration is best-effort
    // via scheduler priority (paper SIII-B1).
    const auto bins = measuredResponseBins("mcf");
    std::printf("\n# RespC bin config: %s\n", bins.toString().c_str());
    const auto respc_astar = adversaryLatencies("astar", true, &bins);
    const auto respc_mcf = adversaryLatencies("mcf", true, &bins);
    printSeries("RespC (paper: flat)", respc_astar, respc_mcf);
    return 0;
}
