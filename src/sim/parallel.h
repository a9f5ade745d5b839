/**
 * @file
 * Parallel experiment engine: a fixed-size worker pool plus batch
 * wrappers that fan *independent* simulations across threads.
 *
 * Determinism contract: every job owns its System (PR 1 made a System
 * self-contained: its own RNGs, tracer, stats), and every RNG seed is
 * derived from the job's *index* via deriveSeed() -- never from a
 * shared RNG or from thread scheduling. Results land in a pre-sized
 * vector at the job's submission index. Together these make parallel
 * output byte-identical to sequential: runConfigsParallel(jobs=N)
 * equals runConfigsParallel(jobs=1) equals a plain runConfig() loop.
 */

#ifndef CAMO_SIM_PARALLEL_H
#define CAMO_SIM_PARALLEL_H

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "src/ga/genetic.h"
#include "src/hard/error.h"
#include "src/hard/fault_injection.h"
#include "src/hard/retry.h"
#include "src/sim/plan.h"
#include "src/sim/runner.h"
#include "src/sim/system.h"

namespace camo::sim {

/** Attempts per job before a TransientFault becomes permanent. */
inline constexpr unsigned kDefaultWorkerAttempts = 3;

/** Seed stream id for per-attempt seed re-derivation (see
 *  parallelMapRetry): retried attempts must not replay the RNG
 *  sequence that just faulted. */
inline constexpr std::uint64_t kRetrySeedStream = 0xFA117;

/**
 * Worker count used when a caller passes jobs == 0: the CAMO_JOBS
 * environment variable if set to a positive integer, otherwise
 * std::thread::hardware_concurrency() (at least 1).
 */
unsigned defaultJobs();

/**
 * Derive an independent RNG seed from (base, stream, index) with a
 * splitmix64-style mix. Pure function of its arguments, so a job's
 * seed depends only on *which* job it is -- not on evaluation order,
 * thread count, or any shared RNG state. Never returns 0.
 *
 * @param base   experiment master seed (SystemConfig::seed)
 * @param stream independent sequence id (e.g. GA generation + 1)
 * @param index  job index within the stream (e.g. GA child index)
 */
std::uint64_t deriveSeed(std::uint64_t base, std::uint64_t stream,
                         std::uint64_t index);

/**
 * Fixed-size pool of worker threads executing indexed jobs.
 *
 * The pool holds jobs-1 threads; the calling thread participates in
 * forEachIndex(), so `jobs` simulations run concurrently. With
 * jobs <= 1 no threads are spawned and everything runs inline on the
 * caller (identical results -- see the determinism contract above).
 */
class WorkerPool
{
  public:
    /** @param jobs concurrent workers (0 = defaultJobs()). */
    explicit WorkerPool(unsigned jobs = 0);
    ~WorkerPool();

    WorkerPool(const WorkerPool &) = delete;
    WorkerPool &operator=(const WorkerPool &) = delete;

    unsigned jobs() const { return jobs_; }

    /**
     * Run fn(0) .. fn(n-1) across the pool; blocks until all n calls
     * return. Indices are claimed dynamically, so `fn` must not
     * depend on which thread runs which index (jobs built per the
     * determinism contract never do). The first exception thrown by
     * any call is rethrown here after the batch drains.
     */
    void forEachIndex(std::size_t n,
                      const std::function<void(std::size_t)> &fn);

  private:
    void workerLoop();
    /** Claim + run one index of batch `epoch`; false when none left
     *  (or the batch changed under a stale worker). */
    bool runOne(const std::function<void(std::size_t)> &fn,
                std::uint64_t epoch);

    unsigned jobs_;
    std::vector<std::thread> threads_;

    std::mutex m_;
    std::condition_variable wake_;
    std::condition_variable done_;
    const std::function<void(std::size_t)> *task_ = nullptr;
    std::uint64_t epoch_ = 0; ///< batch id, guards stale claims
    std::size_t next_ = 0;    ///< next unclaimed index
    std::size_t total_ = 0;   ///< batch size
    std::size_t pending_ = 0; ///< claimed-or-unclaimed not yet finished
    std::exception_ptr error_;
    bool stop_ = false;
};

/**
 * Map fn over [0, n) with `jobs` concurrent workers; out[i] = fn(i)
 * in submission order regardless of completion order.
 */
template <typename Fn>
auto
parallelMap(std::size_t n, unsigned jobs, Fn &&fn)
    -> std::vector<decltype(fn(std::size_t{0}))>
{
    std::vector<decltype(fn(std::size_t{0}))> out(n);
    WorkerPool pool(jobs);
    pool.forEachIndex(n, [&](std::size_t i) { out[i] = fn(i); });
    return out;
}

/**
 * parallelMap with structured recovery: fn(i, attempt) is retried on
 * hard::TransientFault up to policy.attempts times per job (attempt =
 * 0, 1, ...), waiting policy.delayUsFor(i, attempt) before each retry
 * so a transient-fault storm backs off instead of busy-respawning.
 * Every other exception — ConfigError, InvariantViolation,
 * WatchdogTimeout, std::exception — propagates immediately through
 * forEachIndex's first-exception path; only faults declared transient
 * are worth re-running. The attempt number is passed to fn so it can
 * re-derive seeds (deriveSeed(seed, kRetrySeedStream, attempt)):
 * retrying a genuinely nondeterministic fault with the exact same RNG
 * sequence would just replay it. Deterministic: the retry decision
 * depends only on what fn(i, attempt) throws, and the backoff delay
 * only on (policy, i, attempt) — never on thread timing — so results
 * stay byte-identical across jobs=1 / jobs=N.
 */
template <typename Fn>
auto
parallelMapRetry(std::size_t n, unsigned jobs,
                 const hard::RetryPolicy &policy, Fn &&fn)
    -> std::vector<decltype(fn(std::size_t{0}, unsigned{0}))>
{
    std::vector<decltype(fn(std::size_t{0}, unsigned{0}))> out(n);
    WorkerPool pool(jobs);
    const unsigned tries = policy.attempts == 0 ? 1 : policy.attempts;
    pool.forEachIndex(n, [&](std::size_t i) {
        for (unsigned attempt = 0;; ++attempt) {
            if (attempt > 0)
                hard::backoffSleep(policy.delayUsFor(i, attempt));
            try {
                out[i] = fn(i, attempt);
                return;
            } catch (const hard::TransientFault &) {
                if (attempt + 1 >= tries)
                    throw;
            }
        }
    });
    return out;
}

/** parallelMapRetry with just an attempt budget: the default backoff
 *  schedule (RetryPolicy{}) with `attempts` substituted. */
template <typename Fn>
auto
parallelMapRetry(std::size_t n, unsigned jobs, unsigned attempts,
                 Fn &&fn) -> std::vector<decltype(fn(std::size_t{0},
                                                     unsigned{0}))>
{
    hard::RetryPolicy policy;
    policy.attempts = attempts;
    return parallelMapRetry(n, jobs, policy, std::forward<Fn>(fn));
}

/** One independent simulation of a batch. */
struct SimJob
{
    SystemConfig cfg;
    std::vector<std::string> workloads;
    Cycle cycles = 0;
    Cycle warmup = 0;
};

/**
 * runConfig() for every job, fanned across `jobs` threads (0 =
 * defaultJobs()). results[i] is job i's metrics; byte-identical to
 * calling runConfig sequentially in job order.
 *
 * With `injector` attached, every attempt first consults
 * FaultInjector::maybeWorkerFault(i, attempt); a TransientFault
 * retries the job (up to kDefaultWorkerAttempts) with its seed
 * re-derived per attempt, so a transient worker death costs one job
 * re-run instead of the whole batch.
 */
std::vector<RunMetrics>
runConfigsParallel(const std::vector<SimJob> &batch, unsigned jobs = 0,
                   hard::FaultInjector *injector = nullptr);

/**
 * Evaluate one GA generation offline over a pre-compiled plan (the
 * offline GA builds one SystemPlan for the whole search): each child
 * genome runs in a fresh System instantiated with seed
 * deriveSeed(cfg.seed, generation + 1, child), with the genome decoded
 * into per-core bin configurations exactly as tuneOnline() does.
 * Fitness is -average MISE slowdown against the supplied per-core
 * alone service rates.
 *
 * @param alone_rate per-core alone (highest-priority) service rate
 * @return fitness per child, index-aligned with `children`
 */
std::vector<double> evaluateGenerationParallel(
    const SystemPlan &plan, const std::vector<ga::Genome> &children,
    std::uint64_t generation, const std::vector<double> &alone_rate,
    Cycle epoch_cycles, unsigned jobs = 0);

/**
 * Fitness of one offline-GA child: decode its genome into per-core
 * bins, instantiate the plan with seed deriveSeed(seed, generation+1,
 * child), run one epoch, score -average MISE slowdown. The single
 * evaluation path of evaluateGenerationParallel, so a child scored
 * alone matches its score inside a generation byte for byte.
 */
double evaluateGaChild(const SystemPlan &plan, const ga::Genome &genome,
                       std::uint64_t generation, std::size_t child,
                       const std::vector<double> &alone_rate,
                       Cycle epoch_cycles);

/**
 * GA fitness of the epoch `system` just ran: ga::miseFitness over
 * every core, with each core's shared service rate measured over
 * `epoch_cycles` against its `alone_rate`. The one scoring path of
 * tuneOnline() and evaluateGaChild().
 */
double epochMiseFitness(const System &system,
                        const std::vector<double> &alone_rate,
                        Cycle epoch_cycles);

} // namespace camo::sim

#endif // CAMO_SIM_PARALLEL_H
