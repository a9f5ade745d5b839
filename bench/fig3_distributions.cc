/**
 * @file
 * Figure 3: the conceptual difference between the schemes, measured.
 *
 * Shows the request inter-arrival histograms an observer on the
 * shared channel sees for the same application under: no shaping
 * (the intrinsic distribution), a constant-rate shaper (everything in
 * one bin), Temporal Partitioning (mass pushed into high-latency bins
 * by turn-waiting), and Camouflage (the programmed distribution).
 */

#include <cstdio>
#include <string>

#include "src/common/histogram.h"
#include "src/sim/plan.h"
#include "src/sim/presets.h"
#include "src/sim/runner.h"

using namespace camo;

namespace {

constexpr Cycle kRunCycles = 600000;
constexpr std::uint32_t kApp = 1; // observed application (victim slot)

void
show(const char *label, const Histogram &hist)
{
    std::printf("\n-- %s (%llu requests) --\n", label,
                static_cast<unsigned long long>(hist.totalCount()));
    std::printf("%s", hist.toAscii(48).c_str());
}

Histogram
observed(sim::Mitigation mit)
{
    sim::SystemConfig cfg = sim::paperConfig();
    cfg.mitigation = mit;
    if (mit == sim::Mitigation::CS || mit == sim::Mitigation::ReqC)
        cfg.shapeCore = {false, true, true, true};
    sim::System system(
        sim::SystemPlan(cfg, sim::adversaryMix("astar", "omnetpp")));
    system.run(kRunCycles);
    // What the shared request channel (SC1) sees from the app. Under
    // TP the queueing shows up in the *service* gaps, so observe the
    // response stream instead for TP.
    return mit == sim::Mitigation::TP
               ? system.responseMonitor(kApp).histogram()
               : system.busMonitor(kApp).histogram();
}

} // namespace

int
main()
{
    std::printf("%s", sim::systemBanner(sim::paperConfig()).c_str());
    std::printf("# Figure 3: inter-arrival distributions under each "
                "scheme (app: omnetpp)\n");
    show("intrinsic (no shaping)", observed(sim::Mitigation::None));
    show("constant rate shaper (CS): one bin",
         observed(sim::Mitigation::CS));
    show("temporal partitioning (TP): mass in high-latency bins "
         "(response stream)",
         observed(sim::Mitigation::TP));
    show("Camouflage (ReqC): the programmed DESIRED distribution",
         observed(sim::Mitigation::ReqC));
    return 0;
}
