/**
 * @file
 * Crash-isolated job execution for the camosimd daemon.
 *
 * Every attempt of every job runs in a forked child: the child
 * builds the System, runs it, serializes the same summary document
 * `camosim --stats-json` writes, sends it up a pipe as a structured
 * payload, and _exit()s. The parent classifies strictly by what came
 * back: a parseable payload is a structured outcome (success or a
 * typed simulator error); anything else — SIGSEGV, abort, _exit
 * without a payload, a corrupted pipe — is a crash. A crash is a
 * fact about the job, never about the daemon: the supervisor thread
 * that called wait() keeps running no matter how the child died.
 *
 * The parent enforces a wall-clock deadline and a cancel flag by
 * SIGKILLing the child; both are terminal classifications, not
 * retries.
 */

#ifndef CAMO_SERVER_WORKER_H
#define CAMO_SERVER_WORKER_H

#include <atomic>
#include <cstdint>
#include <string>

#include <sys/types.h>

#include "src/server/job.h"

namespace camo::server {

/** How an attempt ended, from the supervising parent's view. */
enum class WorkerOutcome
{
    Success,   ///< payload with code 0 and a result document
    Failure,   ///< typed simulator error (config, invariant, ...)
    Transient, ///< hard::TransientFault — the retryable kind
    Crashed,   ///< child died without a parseable payload
    Deadline,  ///< wall-clock timeout; child killed
    Canceled,  ///< cancel flag observed; child killed
};

/** Classified result of one forked attempt. */
struct WorkerResult
{
    WorkerOutcome outcome = WorkerOutcome::Crashed;
    /** camosim-compatible exit code of the outcome (0 success,
     *  3 config, 4 invariant, 5 watchdog, 6 leakage, 1 runtime /
     *  transient / crash). */
    int code = 1;
    std::string kind;     ///< error kind name ("" on success)
    std::string error;    ///< error message ("" on success)
    std::string dumpPath; ///< diagnostic dump file ("" if none)
    std::string result;   ///< stats JSON text (success only)
    /** How the child died when outcome == Crashed ("signal 11",
     *  "exit 3 without payload", ...). */
    std::string crashDetail;
};

/**
 * Run one attempt of `spec` in a forked child and classify it.
 *
 * @param job_id   daemon job id; selects worker-kill/worker-stall
 *                 faults with an index= field and names the job in
 *                 errors
 * @param attempt  0 = first run; > 0 re-derives the seed with
 *                 sim::deriveSeed(seed, kRetrySeedStream, attempt),
 *                 matching the in-process parallel engine
 * @param timeout_ms wall-clock deadline (0 = none)
 * @param diag_dir  System diagnostic-dump directory ("" = stderr)
 * @param cancel   polled ~every 20 ms; kills the child when set
 *                 (may be null)
 * @param child_pid published while the child runs (may be null);
 *                 reset to -1 before wait returns
 */
WorkerResult runJobForked(const JobSpec &spec, std::uint64_t job_id,
                          unsigned attempt, std::uint64_t timeout_ms,
                          const std::string &diag_dir,
                          const std::atomic<bool> *cancel,
                          std::atomic<pid_t> *child_pid);

/**
 * The child-side body of runJobForked, exposed for direct unit
 * testing: runs the simulation in-process and returns the payload
 * document it would have written to the pipe.
 */
obs::json::Value runJobPayload(const JobSpec &spec,
                               std::uint64_t job_id, unsigned attempt,
                               const std::string &diag_dir);

} // namespace camo::server

#endif // CAMO_SERVER_WORKER_H
