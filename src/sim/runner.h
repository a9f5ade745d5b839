/**
 * @file
 * Experiment helpers shared by benches, examples, and tests: run a
 * configured system and summarize it, compute slowdowns between runs,
 * and the paper's online genetic-algorithm loop (Figure 8).
 */

#ifndef CAMO_SIM_RUNNER_H
#define CAMO_SIM_RUNNER_H

#include <string>
#include <vector>

#include "src/camouflage/bin_config.h"
#include "src/ga/genetic.h"
#include "src/obs/json.h"
#include "src/sim/system.h"

namespace camo::sim {

/** Per-core results of one simulation run. */
struct RunMetrics
{
    Cycle cycles = 0;
    std::vector<double> ipc;
    std::vector<std::uint64_t> retired;
    std::vector<std::uint64_t> servedReads;
    std::vector<double> avgReadLatency;
    std::vector<double> alpha;

    double throughput() const; ///< sum of per-core IPC
};

/** Run an already-built system for `cycles` and summarize it. */
RunMetrics runAndMeasure(System &system, Cycle cycles,
                         Cycle warmup = 0);

/** Build a system, run it, summarize it. */
RunMetrics runConfig(const SystemConfig &cfg,
                     const std::vector<std::string> &workloads,
                     Cycle cycles, Cycle warmup = 0);

/**
 * The summary document `camosim --stats-json` writes: run metadata
 * (mitigation, cycle count, seed, workload mix) plus the full
 * registered stats tree, a tracer-counters section when
 * `tracer_section` is set, and the interval series when interval
 * collection is enabled. One serializer shared by the CLI and the
 * golden-file regression tests, so both produce byte-identical
 * output.
 */
obs::json::Value summaryJson(const System &system,
                             const std::vector<std::string> &workloads,
                             bool tracer_section = false);

/**
 * Per-core slowdown of `test` relative to `baseline` (same workloads;
 * > 1 means slower under test). Computed from IPC.
 */
std::vector<double> slowdownVs(const RunMetrics &baseline,
                               const RunMetrics &test);

/** Maximum per-core slowdown: the fairness-sensitive summary. */
double maxSlowdownVs(const RunMetrics &baseline, const RunMetrics &test);

/**
 * Program a BinConfig whose credits reproduce a measured inter-arrival
 * histogram (Figs. 9/10: "the bin configuration is set the same as the
 * response distribution of w(ADVERSARY, astar)").
 *
 * @param monitor the measured stream (its histogram edges become the
 *        config's bin edges)
 * @param observed_cycles how long the monitor watched
 * @param period replenishment period of the new config
 * @param headroom multiplier on the measured rate (>1 adds slack)
 */
shaper::BinConfig binsFromMonitor(const shaper::DistributionMonitor &monitor,
                                  Cycle observed_cycles, Cycle period,
                                  double headroom = 1.0);

/**
 * Record a workload mix's *intrinsic* (unshaped) LLC-miss event
 * stream for core `core`: the X variable of the paper's SIV-B2 MI
 * methodology. Runs the mix with no mitigation and the same seed.
 */
std::vector<shaper::TrafficEvent>
unshapedIntrinsicEvents(const SystemConfig &cfg,
                        const std::vector<std::string> &workloads,
                        std::uint32_t core, Cycle cycles);

/** Result of the online GA configuration phase. */
struct OnlineGaResult
{
    /** Per-core tuned configurations (the paper's GA optimizes all
     *  programs' bins simultaneously). Assign these to
     *  SystemConfig::reqBinsPerCore / respBinsPerCore. */
    std::vector<shaper::BinConfig> reqBinsPerCore;
    std::vector<shaper::BinConfig> respBinsPerCore;
    /** Core 0's configs (convenience). */
    shaper::BinConfig reqBins;
    shaper::BinConfig respBins;
    double bestFitness = 0.0;          ///< -average MISE slowdown
    std::vector<double> generationBest;///< best fitness per generation
    std::uint64_t configPhaseCycles = 0;
    /** Fletcher-style E x log2(R) bound on what the CONFIG_PHASE's
     *  observable reconfigurations could have leaked. */
    double configPhaseLeakBoundBits = 0.0;
};

/**
 * Decode core `core`'s request-bin slice of a GA genome. Genome
 * layout: for each core, its request bins then (BDC only) its
 * response bins. Shared by the online and offline GA paths so a
 * genome means the same configuration in both.
 */
shaper::BinConfig gaReqBinsOf(const SystemConfig &cfg,
                              const ga::Genome &g, std::size_t core);

/** Decode core `core`'s response-bin slice (cfg.respBins verbatim
 *  when the mitigation shapes only requests). */
shaper::BinConfig gaRespBinsOf(const SystemConfig &cfg,
                               const ga::Genome &g, std::size_t core);

/**
 * The paper's Figure 8 online GA (CONFIG_PHASE): per generation,
 * first measure each core's alone service rate in highest-priority
 * mode, then evaluate each child bin-configuration for one epoch and
 * score it by -average MISE slowdown. Returns the best request and
 * response configurations for the RUN_PHASE.
 *
 * @pre cfg.mitigation is BDC, ReqC, or RespC (needs shapers).
 */
OnlineGaResult runOnlineGa(const SystemConfig &cfg,
                           const std::vector<std::string> &workloads,
                           const ga::GaConfig &ga_cfg,
                           Cycle epoch_cycles = 20000);

/**
 * Run the CONFIG_PHASE on an already-running system (used by
 * runOnlineGa and by the adaptive runtime at phase changes). The
 * system is left configured with the tuned per-core bins.
 */
OnlineGaResult tuneOnline(System &system, const SystemConfig &cfg,
                          const ga::GaConfig &ga_cfg,
                          Cycle epoch_cycles);

/**
 * Offline GA configuration search: same genome layout, seeding, and
 * MISE fitness as tuneOnline(), but every child is evaluated in a
 * *fresh* System whose seed derives from (cfg.seed, generation,
 * child index) -- see deriveSeed() in parallel.h. Evaluations are
 * therefore independent and order-free, so they fan across `jobs`
 * worker threads (0 = defaultJobs()) with results identical to
 * jobs == 1. Alone rates are measured once up front (fresh systems
 * have no phase drift to track, unlike the live online loop).
 *
 * The search compiles one SystemPlan for the whole run (workload
 * names parsed and trace files loaded once); every evaluation is a
 * cheap PlanOverrides instantiation.
 *
 * configPhaseLeakBoundBits is 0: offline search happens before
 * deployment, so an observer of the running system sees no
 * reconfiguration sequence to learn from.
 *
 * @pre cfg.mitigation is BDC, ReqC, or RespC (needs shapers).
 */
OnlineGaResult runOfflineGa(const SystemConfig &cfg,
                            const std::vector<std::string> &workloads,
                            const ga::GaConfig &ga_cfg,
                            Cycle epoch_cycles = 20000,
                            unsigned jobs = 0);

/** Configuration of the adaptive RUN_PHASE (paper Figure 8 + SIV-C). */
struct AdaptiveConfig
{
    Cycle epochCycles = 20000;
    ga::GaConfig ga;                 ///< per-reconfiguration search
    double detectorThreshold = 0.5;  ///< relative rate deviation
    /**
     * Leakage budget: maximum reconfigurations allowed. Each one
     * leaks at most log2(population) x (children evaluated) bits via
     * the E x log R bound; the runtime refuses further adaptation
     * once the budget is spent.
     */
    std::uint32_t maxReconfigs = 4;
};

/** Result of an adaptive run. */
struct AdaptiveResult
{
    RunMetrics metrics;
    std::uint64_t reconfigurations = 0;
    std::uint64_t phaseChangesDetected = 0;
    std::vector<Cycle> reconfigAt; ///< cycle of each reconfiguration
    double leakBoundBits = 0.0;    ///< E x log2 R over all reconfigs
};

/**
 * The paper's full online operation: run under Camouflage, watch for
 * program phase changes (EWMA of per-core service rates), and rerun
 * the GA CONFIG_PHASE when one fires — up to a reconfiguration
 * (leakage) budget.
 */
AdaptiveResult runAdaptive(const SystemConfig &cfg,
                           const std::vector<std::string> &workloads,
                           Cycle total_cycles,
                           const AdaptiveConfig &adaptive);

} // namespace camo::sim

#endif // CAMO_SIM_RUNNER_H
