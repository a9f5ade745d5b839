/**
 * @file
 * Compiled system plan: the one way to build a System.
 *
 * A sweep (or GA generation) instantiates the same machine hundreds
 * of times, varying only the seed and — for the GA — the shaper bin
 * configurations. SystemPlan does the per-machine work once: it
 * validates the SystemConfig and compiles every workload name
 * (trace::CompiledWorkload, which loads trace files eagerly and
 * shares the parsed items immutably). instantiate() — or
 * `System(plan, overrides)` — then builds a fresh System per run from
 * the pre-compiled pieces. A single run writes
 * `System sys(SystemPlan(cfg, workloads));`: the System shares what
 * it needs from the plan, so the plan may be a temporary.
 *
 * A SystemPlan is immutable after construction and safe to share
 * across threads: instantiate() is const and every worker builds its
 * own System from it. See DESIGN.md §16.
 */

#ifndef CAMO_SIM_PLAN_H
#define CAMO_SIM_PLAN_H

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/sim/system.h"
#include "src/trace/workloads.h"

namespace camo::sim {

/** The compiled, immutable half of System construction. */
class SystemPlan
{
  public:
    /**
     * Validate `cfg` + `workloads` and compile every workload name.
     * @throws hard::ConfigError on a malformed configuration, an
     *         unknown or malformed workload name, or a trace file
     *         that fails to load.
     */
    SystemPlan(const SystemConfig &cfg,
               const std::vector<std::string> &workloads);

    /**
     * Reuse an already-compiled workload mix (runConfigsParallel
     * compiles each distinct mix once per batch and shares it across
     * the jobs that use it). `compiled` must be index-aligned with
     * `workloads`.
     */
    SystemPlan(const SystemConfig &cfg,
               std::vector<std::string> workloads,
               std::vector<trace::CompiledWorkload> compiled);

    const SystemConfig &config() const { return cfg_; }
    const std::vector<std::string> &workloads() const
    {
        return workloads_;
    }
    std::uint32_t numCores() const { return cfg_.numCores; }

    /** The compiled workload for core `i`. */
    const trace::CompiledWorkload &compiled(std::uint32_t i) const;

    /**
     * Build a fresh System from the plan. Every call returns an
     * independent machine; concurrent calls from different threads
     * are safe (the plan is only read).
     * @throws hard::ConfigError when an override is malformed (wrong
     *         per-core vector size).
     */
    std::unique_ptr<System>
    instantiate(const PlanOverrides &overrides = {}) const;

  private:
    SystemConfig cfg_;
    std::vector<std::string> workloads_;
    std::vector<trace::CompiledWorkload> compiled_;
};

} // namespace camo::sim

#endif // CAMO_SIM_PLAN_H
