/**
 * @file
 * Shared pieces of the performance benchmark program: command-line
 * options, the operation/metric report printed as the run's last
 * line, in-memory spans for traced runs, pinned output digests, and
 * small statistics helpers.
 *
 * The benchmark measures each layer of the simulator from outside:
 * it times the public calls it makes (SystemPlan, System::run,
 * security::computeShapingMi, sim::runOfflineGa, server::Client) and,
 * in traced runs, attaches the existing obs::Profiler through
 * System::setProfiler. Nothing here changes simulated results.
 */

#ifndef PERFBENCH_BENCH_H
#define PERFBENCH_BENCH_H

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/obs/json.h"
#include "src/sim/runner.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

double secondsSince(Clock::time_point t0);

/** Median of `v` (0 when empty). */
double median(std::vector<double> v);

/** Quantile with linear interpolation between order statistics
 *  (q in [0, 1]; 0 when empty). */
double quantile(std::vector<double> v, double q);

/** Resident high-water mark of this process, MiB. */
double selfPeakRssMb();

/** The workload seed every pinned digest was recorded with. */
inline constexpr std::uint64_t kDefaultSeed = 1;

/** Command line of one run. */
struct Options
{
    std::string workload;
    std::uint64_t seed = kDefaultSeed;
    double seconds = 10.0;
    bool trace = false;
    std::string daemon;      ///< camosimd binary (daemon-uncached)
    std::string pins;        ///< pinned digests (pins.json)
    std::string outDir;      ///< spans, profiles, daemon sockets/logs
    bool printDigests = false;
};

/**
 * The simulator seed of one input stream, derived from the workload
 * seed: the program only ever sees these derived values.
 */
std::uint64_t simSeed(std::uint64_t workload_seed, std::uint64_t stream);

/** Operation tally and the metrics the run prints. */
class Report
{
  public:
    /** Count one operation; `ok == false` counts it failed and logs
     *  `what` on stderr. */
    void op(bool ok, const std::string &what);
    /** A run-wide guard failed: every operation counts failed. */
    void failRun(const std::string &what);

    void metric(const std::string &name, double value,
                const std::string &unit);

    bool hasMetric(const std::string &name) const
    {
        return metrics_.find(name) != nullptr;
    }
    std::vector<std::string> metricNames() const;

    std::uint64_t attempted() const { return attempted_; }
    std::uint64_t failed() const { return failed_; }

    /** The result object: {correct, attempted, failed, metrics}. */
    std::string json() const;

  private:
    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;
    camo::obs::json::Value metrics_ = camo::obs::json::Value::makeObject();
};

/**
 * Spans kept in memory during a traced run and written at exit. A
 * disabled recorder (untraced runs) ignores every call, so the same
 * workload code serves both modes.
 */
class Spans
{
  public:
    static constexpr int kNoParent = -1;

    explicit Spans(bool enabled) : enabled_(enabled) {}

    bool enabled() const { return enabled_; }
    int begin(const std::string &name, int parent = kNoParent);
    void end(int id);
    /** Record a span timed elsewhere (e.g. on a client thread). */
    int add(const std::string &name, int parent, std::uint64_t start_ns,
            std::uint64_t end_ns);

    /** Durations (ns) of every closed span called `name`. */
    std::vector<double> durationsNs(const std::string &name) const;

    /** Write every span as a JSON array; false on I/O failure. */
    bool write(const std::string &path) const;

  private:
    struct Span
    {
        std::string name;
        int parent = kNoParent;
        std::uint64_t startNs = 0;
        std::uint64_t endNs = 0;
    };
    bool enabled_;
    std::vector<Span> spans_;
};

/** RAII span; a no-op on a disabled recorder. */
class SpanScope
{
  public:
    SpanScope(Spans &spans, const std::string &name,
              int parent = Spans::kNoParent)
        : spans_(spans), id_(spans.begin(name, parent))
    {
    }
    ~SpanScope() { spans_.end(id_); }
    SpanScope(const SpanScope &) = delete;
    SpanScope &operator=(const SpanScope &) = delete;

  private:
    Spans &spans_;
    int id_;
};

/** FNV-1a 64 of `text`, as 16 hex digits. */
std::string digest(const std::string &text);

/** Canonical text of a RunMetrics (every double at full precision). */
std::string metricsText(const camo::sim::RunMetrics &m);

/** Full-precision text of one double. */
std::string fullText(double v);

/**
 * Output checks for one run: every keyed digest must repeat across
 * the run's rounds, and for the default seed it must equal the
 * digest pinned in pins.json.
 */
class OutputCheck
{
  public:
    OutputCheck(const Options &opt, const std::string &workload);

    /** True when `value_digest` agrees with the first round's digest
     *  for `key` and, for the default seed, with the pinned one. */
    bool check(const std::string &key, const std::string &value_digest,
               std::string *why);

  private:
    bool pinned_;
    bool print_;
    std::string workload_;
    std::map<std::string, std::string> pins_;
    std::map<std::string, std::string> first_;
};

/** One measured round of a workload (the unit whose medians the
 *  end-to-end metrics report). */
struct Round
{
    double wallS = 0.0;   ///< whole round
    double runS = 0.0;    ///< inside System::run (wallS when parallel)
    double runNoneS = 0.0; ///< the part of runS in unshaped simulations
    double setupS = 0.0;  ///< plan compile + instantiate in the round
    double simCycles = 0.0;
    double sims = 0.0;    ///< simulations completed
    std::vector<double> jobLatMs; ///< one entry per job
};

/**
 * The run's fastest tenth of rounds by wall time (rounded up), what
 * every workload reports over. A fixed share, so a build that gets
 * through more rounds in the time budget is not favoured by taking a
 * minimum over more samples. Host noise on a shared machine only ever
 * adds time, and one vCPU flips in stretches of seconds between its
 * uncontended speed and up to ~1.7x slower; the fastest rounds track
 * the uncontended speed, which is what a code change moves.
 */
std::vector<Round> fastestRounds(std::vector<Round> rounds);

/**
 * Threads of ga-offline and client connections and daemon workers of
 * daemon-uncached: min(2, nproc). At nproc on a shared 4-vCPU host a
 * round is fast only while every vCPU is, and between runs its wall
 * spread 15-34% (daemon p50 32%); at two, with the fastest rounds,
 * 3-11%.
 */
unsigned parallelJobs();

/** The smallest tenth of `v` (rounded up), sorted: the single-thread
 *  samples fastestRounds' reasoning applies to. */
std::vector<double> fastestShare(std::vector<double> v);

/** Every job latency (ms) of `rounds`, for the parallel workloads,
 *  whose jobs differ from round to round. */
std::vector<double> jobLatencies(const std::vector<Round> &rounds);

/**
 * Job latencies (ms) for the single-thread workloads: for each job
 * position of a round (every round runs the same jobs in the same
 * order), the fastest tenth of its latencies over all rounds, rounded
 * up, pooled. A burst of host noise can slow one job of a round that
 * stays among the fastest rounds; choosing per job keeps it out of
 * the percentiles, as fastestRounds keeps slow rounds out of the
 * medians.
 */
std::vector<double> fastestJobLatencies(const std::vector<Round> &rounds);

/**
 * Report the end-to-end metrics: medians over `rounds`, the job-latency
 * p50 over `lat_ms` and p90 over `tail_lat_ms`, the median of the
 * set-up samples (s), and peak memory; `extra_rss_mb` adds a child's
 * high-water mark.
 */
void reportEndToEnd(Report &report, const std::vector<Round> &rounds,
                    const std::vector<double> &lat_ms,
                    const std::vector<double> &tail_lat_ms,
                    const std::vector<double> &setup_samples,
                    double extra_rss_mb);

/** Untraced rounds for `budget_s` seconds (at least `min_rounds`). */
template <typename F>
std::vector<Round>
roundsFor(double budget_s, std::size_t min_rounds, F &&round)
{
    std::vector<Round> rounds;
    const auto t0 = Clock::now();
    while (rounds.size() < min_rounds || secondsSince(t0) < budget_s)
        rounds.push_back(round());
    return rounds;
}

/** Median of a Round field over `rounds`. */
template <typename F>
double
medianOf(const std::vector<Round> &rounds, F &&field)
{
    std::vector<double> v;
    for (const Round &r : rounds)
        v.push_back(field(r));
    return median(std::move(v));
}

/** Entry points of the four workloads (workloads.cc, daemon.cc). */
void runPaperBusy(const Options &opt, Report &report);
void runIdleProbe(const Options &opt, Report &report);
void runGaOffline(const Options &opt, Report &report);
void runDaemonUncached(const Options &opt, Report &report);

} // namespace perfbench

#endif // PERFBENCH_BENCH_H
