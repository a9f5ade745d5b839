/**
 * @file
 * Job model of the camosimd experiment service: what a client asks
 * for (JobSpec), every state a job can terminate in (JobState), and
 * the cache key that makes identical asks share one execution.
 *
 * A JobSpec is deliberately the same configuration surface as a
 * one-shot `camosim --config=FILE --stats-json` run: a topology JSON
 * document plus the execution flags (cycles, warmup, seed override,
 * watchdog, checkers, fault-injection spec). A job that runs clean
 * through the daemon produces a result byte-identical to that CLI
 * invocation — the chaos soak pins this.
 */

#ifndef CAMO_SERVER_JOB_H
#define CAMO_SERVER_JOB_H

#include <cstdint>
#include <string>

#include "src/common/types.h"
#include "src/obs/json.h"

namespace camo::server {

/** What a client submits: topology + execution flags. */
struct JobSpec
{
    /** Topology document (src/sim/topology.h schema). Required,
     *  supplied either directly as "config" or by naming a registered
     *  attack scenario as "scenario" ("NAME" or "NAME:shaped", see
     *  src/scenario/scenario.h), which resolves to its embedded
     *  topology before the job is queued. */
    obs::json::Value config;
    Cycle cycles = 1000000;
    Cycle warmup = 50000;
    /** 0 = use the topology's seed. */
    std::uint64_t seed = 0;
    /** Watchdog window in cycles (0 = off); fires as a structured
     *  watchdog failure, never as a daemon problem. */
    Cycle watchdog = 0;
    bool checkers = false;
    /** Fault-injection campaign (hard::FaultPlan spec string). The
     *  worker kinds (worker-kill / worker-stall) hit the daemon's
     *  forked worker for this job, keyed by job id. */
    std::string inject;
    std::uint64_t injectSeed = 0; ///< 0 = effective seed
    /** Wall-clock deadline in milliseconds (0 = server default). */
    std::uint64_t timeoutMs = 0;
    /** Test hook for the chaos soak: the worker dies with a real
     *  SIGSEGV while attempt < crashAttempts, exercising the
     *  crash-isolation and retry paths with a genuine signal death. */
    std::uint64_t crashAttempts = 0;

    /**
     * Parse from the "job" object of a submit request. Unknown keys
     * and wrong types are errors (returned in *error), so a typo'd
     * flag fails the submission instead of silently running the
     * wrong experiment.
     */
    static bool fromJson(const obs::json::Value &doc, JobSpec *out,
                         std::string *error);

    /** Inverse of fromJson (used by the client CLI and tests). */
    obs::json::Value toJson() const;

    /**
     * Deterministic cache identity: the compact dump of every
     * execution-affecting field (json objects are ordered maps, so
     * the dump is canonical). Two specs with equal keys produce
     * byte-identical results, so one may serve the other's answer.
     */
    std::string cacheKey() const;
};

/** Every state a job can be observed in. Exactly one terminal state
 *  per job — the soak's accounting invariant. */
enum class JobState
{
    Queued,
    Running,
    Succeeded, ///< result payload available
    Cached,    ///< served from the result cache / single-flight leader
    Failed,    ///< structured simulator error (config, invariant,
               ///  watchdog, leakage, runtime, exhausted transient)
    Crashed,   ///< worker died without a payload, retries exhausted
    Deadline,  ///< wall-clock timeout; worker killed
    Canceled,
};

const char *jobStateName(JobState s);

/** True for states no transition leaves. */
bool jobStateTerminal(JobState s);

} // namespace camo::server

#endif // CAMO_SERVER_JOB_H
