/**
 * @file
 * Per-layer attribution for traced runs: the obs::Profiler tree of
 * the Systems the benchmark owns, split into the repository's layers
 * with the profiler's own timer cost subtracted, plus simulated-work
 * counts read through System::registerStats.
 *
 * The System's profiler hooks give a "run" root with "tick/<component>"
 * and "skip/<component>" leaves (plus "next_event" and "watchdog").
 * Every leaf call is one timer pair. A pair costs `pairNs` in total,
 * of which `insideNs` falls inside the measured interval (and so in
 * the leaf's time) and the rest in the parent's self time, which is
 * the kernel's. Subtracting calls x cost on both sides removes the
 * profiler from every figure. Whether that subtraction is right is
 * checked against the clock: the corrected total of each mitigation
 * half must match the unprofiled run time of the same simulations.
 */

#ifndef PERFBENCH_LAYERS_H
#define PERFBENCH_LAYERS_H

#include <cstdint>
#include <string>
#include <vector>

#include "perfbench/bench.h"
#include "src/obs/prof.h"
#include "src/sim/system.h"

namespace perfbench {

/** Measured cost of one obs::Profiler::Timer pair. */
struct TimerCost
{
    double pairNs = 0.0;   ///< construct + elapsedNs + Profiler::add
    double insideNs = 0.0; ///< what an empty timed interval reads
};

/** Calibrate the timer pair from outside, median of several loops. */
TimerCost calibrateTimer();

/** Field-wise median of calibrations taken through a traced run: the
 *  host's speed drifts, so one calibration at the start can be off by
 *  more than the check in reportTrace allows. */
TimerCost medianCost(const std::vector<TimerCost> &samples);

/** Profiled host time split by layer, timer cost subtracted (ns). */
struct LayerTimes
{
    double rawTotalNs = 0.0; ///< profiler root, as recorded
    double totalNs = 0.0;    ///< root minus every timer pair
    double kernelNs = 0.0;   ///< root self: calendar pops, re-arms, glue
    double skipNs = 0.0;     ///< idle catch-up, every component
    double stationNs = 0.0;  ///< station.* ticks (drive the shapers)
    double resplinkNs = 0.0;
    double coreNs = 0.0;     ///< core* ticks (core + its cache)
    double nocNs = 0.0;      ///< noc.req + noc.resp ticks
    double memNs = 0.0;      ///< mem tick (MC + DRAM)
    double otherNs = 0.0;    ///< remaining leaves (next_event, ...)
    std::uint64_t tickCalls = 0;
    std::uint64_t resplinkCalls = 0;
    std::uint64_t coreCalls = 0;
    std::uint64_t memCalls = 0;
    std::uint64_t timedCalls = 0; ///< every timer pair below the root

    LayerTimes &operator+=(const LayerTimes &o);
};

LayerTimes attribute(const camo::obs::Profiler &prof,
                     const TimerCost &cost);

/** Simulated-work counts summed over the profiled Systems. */
struct SimCounts
{
    double cycles = 0.0; ///< simulated cycles, warm-up included
    double retired = 0.0;
    double ipcSum = 0.0; ///< sum of per-core IPC, averaged per run
    double llcMisses = 0.0;
    double coalesced = 0.0;
    double releasedReal = 0.0;
    double releasedFake = 0.0;
    double stallCycles = 0.0;
    double grants = 0.0;
    double queueLatSum = 0.0;
    double queueLatCount = 0.0;
    double act = 0.0;
    double rd = 0.0;
    double wr = 0.0;
    double arenaReserved = 0.0;
    double heapFallbacks = 0.0;
    double runs = 0.0;

    /** Add one finished System that simulated `cycles` cycles. */
    void add(const camo::sim::System &sys, double cycles);
};

/** The profiler, spans and counts of a traced run. */
struct Trace
{
    explicit Trace(bool on) : spans(on) {}
    bool on() const { return spans.enabled(); }
    camo::obs::Profiler *profFor(camo::sim::Mitigation m)
    {
        if (!on())
            return nullptr;
        return m == camo::sim::Mitigation::None ? &profNone : &profShaped;
    }

    /** Count a finished System that simulated `cycles` cycles. */
    void record(const camo::sim::System &sys, double cycles)
    {
        counts.add(sys, cycles);
        (sys.config().mitigation == camo::sim::Mitigation::None ? cyclesNone
                                                     : cyclesShaped) +=
            cycles;
    }

    Spans spans;
    camo::obs::Profiler profNone;
    camo::obs::Profiler profShaped;
    SimCounts counts;
    double cyclesNone = 0.0;
    double cyclesShaped = 0.0;
};

/** Unprofiled host time (ns) inside System::run of the simulations a
 *  traced run also profiled, per mitigation half (0: half not run). */
struct PlainRunNs
{
    double none = 0.0;
    double shaped = 0.0;
};

/**
 * Corrected profiled total over unprofiled run time must lie in this
 * range (within 4/3 either way) for each half. Measured on a shared
 * 4-vCPU x86-64 VM: corrected 0.94-1.23 over every workload; raw (no
 * subtraction) 1.6-2.2 on idle-probe and 1.15-1.42 elsewhere, and a
 * doubled subtraction reads about 0.35 on idle-probe and 0.7 on
 * paper-busy. The band is as tight as that host's noise allows.
 */
inline constexpr double kMinCorrectedRatio = 0.75;
inline constexpr double kMaxCorrectedRatio = 4.0 / 3.0;

/**
 * Report the per-layer metrics of a traced in-process run (profile,
 * spans, counts) and write its spans and profiles under opt.outDir.
 * `plain` is the unprofiled run time of the same simulations, one op
 * per half checks the timer-cost subtraction against it, and
 * `overhead_ratio` is traced wall / untraced wall.
 */
void reportTrace(const Options &opt, Report &report, Trace &trace,
                 const TimerCost &cost, const PlainRunNs &plain,
                 double overhead_ratio);

/** Every per-layer metric a traced run prints, with its unit. */
const std::vector<std::pair<std::string, std::string>> &perLayerMetrics();

} // namespace perfbench

#endif // PERFBENCH_LAYERS_H
