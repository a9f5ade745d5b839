/**
 * @file
 * One run description (RunSpec: a topology document plus execution
 * flags) and the one function that builds, hardens and runs it
 * (runSpec). camosim's single run, the camosimd worker's job body and
 * the attack-scenario runs all go through runSpec(), so a daemon job
 * and the camosim invocation with the same fields produce the same
 * bytes. See DESIGN.md §16.3.
 */

#ifndef CAMO_SIM_RUN_SPEC_H
#define CAMO_SIM_RUN_SPEC_H

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/hard/fault_injection.h"
#include "src/obs/json.h"
#include "src/sim/runner.h"

namespace camo::sim {

/** The runtime invariant checkers of a run; Recover degrades a
 *  violating shaper to its fail-secure schedule instead of stopping. */
enum class CheckerMode { Off, On, Recover };

/** One simulation: a topology document plus execution flags. */
struct RunSpec
{
    /** Topology document (src/sim/topology.h schema). */
    obs::json::Value config;
    Cycle cycles = 1000000;
    Cycle warmup = 50000;
    std::uint64_t seed = 0; ///< replaces the topology's; 0 keeps it
    Cycle watchdog = 0;     ///< watchdog window (0 = off)
    CheckerMode checkers = CheckerMode::Off;
    std::string inject;         ///< hard::FaultPlan spec ("" = none)
    std::uint64_t injectSeed = 0; ///< 0 = the run's effective seed

    /**
     * Parse {"config" (required), "cycles", "warmup", "seed",
     * "watchdog", "checkers" (a bool or "recover"), "inject",
     * "inject_seed"}. Unknown keys and wrong types are errors
     * (returned in *error), so a typo fails instead of silently
     * running the wrong experiment.
     */
    static bool fromJson(const obs::json::Value &doc, RunSpec *out,
                         std::string *error);
    /** Inverse of fromJson; zero defaults are left out, so equal
     *  specs dump to equal text. */
    obs::json::Value toJson() const;

    /** The topology with the seed override applied.
     *  @throws hard::ConfigError */
    TopologyConfig topology() const;
    /** The injector for `inject` in a run seeded `run_seed`, or
     *  nullptr. @throws hard::ConfigError on a malformed spec */
    std::unique_ptr<hard::FaultInjector>
    faultInjector(std::uint64_t run_seed) const;

    bool operator==(const RunSpec &) const = default;
};

/** Where a caller steps into runSpec(); both optional. */
struct RunHooks
{
    /** Edits the machine before the plan compiles (GA-tuned bins,
     *  scenario recording). */
    std::function<void(SystemConfig &, const std::vector<std::string> &)>
        configure;
    /** Attaches observers to the built, hardened System just before
     *  it runs; `injector` is the spec's (nullptr without one). */
    std::function<void(System &, hard::FaultInjector *injector)> attach;
};

/** What runSpec() leaves behind. */
struct SpecRun
{
    std::vector<std::string> workloads;
    std::unique_ptr<hard::FaultInjector> injector; ///< outlives system
    std::unique_ptr<System> system;
    RunMetrics metrics;
};

/**
 * topology -> seed override -> fault plan -> hooks.configure ->
 * SystemPlan -> diagnostic dir, checkers, watchdog, injector ->
 * hooks.attach -> runAndMeasure -> leak audit (with checkers).
 * @param diag_dir directory for diagnostic dump files ("" = stderr)
 * @throws hard::CamoError
 */
SpecRun runSpec(const RunSpec &spec, const RunHooks &hooks = {},
                const std::string &diag_dir = {});

} // namespace camo::sim

#endif // CAMO_SIM_RUN_SPEC_H
