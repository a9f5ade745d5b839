/**
 * @file
 * Job model of the camosimd experiment service: what a client asks
 * for (JobSpec), every state a job can terminate in (JobState), and
 * the cache key that makes identical asks share one execution.
 *
 * A JobSpec is a sim::RunSpec (src/sim/run_spec.h) — the run
 * description `camosim --config=FILE --stats-json` builds from its
 * flags — plus two daemon-only fields: the wall-clock deadline and
 * the chaos soak's crash hook. The worker runs the RunSpec through
 * the same sim::runSpec() as camosim, so a job that runs clean
 * produces a result byte-identical to that CLI invocation — the
 * chaos soak pins this.
 */

#ifndef CAMO_SERVER_JOB_H
#define CAMO_SERVER_JOB_H

#include <cstdint>
#include <string>

#include "src/obs/json.h"
#include "src/sim/run_spec.h"

namespace camo::server {

/** What a client submits: a run description plus daemon limits. */
struct JobSpec : sim::RunSpec
{
    /** Wall-clock deadline in milliseconds (0 = server default). */
    std::uint64_t timeoutMs = 0;
    /** Test hook for the chaos soak: the worker dies with a real
     *  SIGSEGV while attempt < crashAttempts, exercising the
     *  crash-isolation and retry paths with a genuine signal death. */
    std::uint64_t crashAttempts = 0;

    /**
     * Parse from the "job" object of a submit request: the RunSpec
     * keys (sim::RunSpec::fromJson, equally strict) plus
     * "timeout_ms", "crash_attempts", and "scenario" ("NAME" or
     * "NAME:shaped", src/scenario/scenario.h) as an alternative to
     * "config" that resolves to the scenario's embedded topology.
     */
    static bool fromJson(const obs::json::Value &doc, JobSpec *out,
                         std::string *error);

    /** Inverse of fromJson (used by the client CLI and tests). */
    obs::json::Value toJson() const;

    /**
     * Cache identity: toJson() without timeout_ms, i.e. the canonical
     * RunSpec JSON plus crash_attempts when set. Two specs with equal
     * keys produce byte-identical results, so one may serve the
     * other's answer.
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
