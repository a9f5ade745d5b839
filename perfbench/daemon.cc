/**
 * @file
 * The daemon-uncached workload: a camosimd child with the result
 * cache off, driven in a closed loop over one server::Client
 * connection per host thread. Every job has its own seed, so none is
 * served from a cache or joined to another. Each result is checked
 * against the in-process summaryJson of the same spec (by 64-bit
 * digest, so memory does not grow with the number of jobs run).
 */

#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "perfbench/bench.h"
#include "perfbench/layers.h"
#include "src/obs/prof.h"
#include "src/server/client.h"
#include "src/sim/parallel.h"
#include "src/sim/plan.h"
#include "src/sim/topology.h"

namespace perfbench {

using namespace camo;
namespace json = obs::json;

namespace {

/** Measured cycles and warm-up of every job. */
constexpr Cycle kJobCycles = 100000;
constexpr Cycle kJobWarmup = 10000;
/** Jobs each client submits per round. */
constexpr std::size_t kJobsPerClient = 4;
/** Daemon spawns timed for set-up (the last one runs the jobs). */
constexpr int kSetupSamples = 20;
/** Jobs re-run in process, serially, in a traced run. */
constexpr std::size_t kProfiledJobs = 8;
constexpr std::uint64_t kDaemonStream = 4;
constexpr double kReadyTimeoutS = 20.0;
constexpr double kJobTimeoutS = 120.0;
constexpr double kDrainTimeoutS = 60.0;

json::Value
topology()
{
    json::Value cfg = json::Value::makeObject();
    json::Value w = json::Value::makeArray();
    for (const char *name : {"mcf", "astar", "astar", "astar"})
        w.push(json::Value(name));
    cfg["workloads"] = std::move(w);
    cfg["mitigation"] = "bdc";
    return cfg;
}

server::JobSpec
jobSpec(std::uint64_t seed)
{
    server::JobSpec spec;
    spec.config = topology();
    spec.cycles = kJobCycles;
    spec.warmup = kJobWarmup;
    spec.seed = seed;
    return spec;
}

/** A camosimd child process; killed and reaped if still running
 *  when destroyed. */
class Daemon
{
  public:
    Daemon(const std::string &binary, std::string socket,
           const std::string &log, unsigned workers)
        : socket_(std::move(socket))
    {
        ::unlink(socket_.c_str());
        const std::vector<std::string> args = {
            binary, "--socket=" + socket_,
            "--workers=" + std::to_string(workers), "--cache=0",
            "--queue=4096",
            // Few terminal records, so the daemon's memory does not
            // grow with the number of jobs a run gets through.
            "--terminal-jobs=256"};
        pid_ = ::fork();
        if (pid_ == 0) {
            // Child: never outlive the benchmark.
            ::prctl(PR_SET_PDEATHSIG, SIGKILL);
            const int fd = ::open(log.c_str(),
                                  O_WRONLY | O_CREAT | O_APPEND, 0644);
            if (fd >= 0) {
                ::dup2(fd, STDOUT_FILENO);
                ::dup2(fd, STDERR_FILENO);
            }
            std::vector<char *> argv;
            for (const std::string &a : args)
                argv.push_back(const_cast<char *>(a.c_str()));
            argv.push_back(nullptr);
            ::execv(argv[0], argv.data());
            ::_exit(127);
        }
    }

    ~Daemon()
    {
        if (pid_ > 0) {
            ::kill(pid_, SIGKILL);
            ::waitpid(pid_, nullptr, 0);
        }
        ::unlink(socket_.c_str());
    }

    Daemon(const Daemon &) = delete;
    Daemon &operator=(const Daemon &) = delete;

    bool spawned() const { return pid_ > 0; }
    const std::string &socket() const { return socket_; }

    /** Connect and get one stats reply (the first accepted
     *  connection); false on timeout or if the child died. */
    bool waitReady()
    {
        const auto t0 = Clock::now();
        while (secondsSince(t0) < kReadyTimeoutS) {
            server::Client c;
            std::string err;
            if (c.connect(socket_, &err) && c.stats())
                return true;
            if (::waitpid(pid_, nullptr, WNOHANG) != 0) {
                pid_ = -1; // exited (or was never ours to wait for)
                return false;
            }
            ::usleep(500);
        }
        return false;
    }

    /**
     * Drain through the protocol and reap. Returns the exit code (-1
     * when the child did not exit cleanly in time) and sets
     * *max_rss_mb to its resident high-water mark, forked workers
     * included.
     */
    int drain(double *max_rss_mb)
    {
        server::Client c;
        std::string err;
        if (c.connect(socket_, &err))
            c.drain();
        const auto t0 = Clock::now();
        while (secondsSince(t0) < kDrainTimeoutS) {
            int status = 0;
            rusage ru{};
            const pid_t r = ::wait4(pid_, &status, WNOHANG, &ru);
            if (r == pid_) {
                pid_ = -1;
                *max_rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;
                return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
            }
            ::usleep(1000);
        }
        return -1;
    }

  private:
    std::string socket_;
    pid_t pid_ = -1;
};

/** What one job returned, filled by its client thread. */
struct JobRecord
{
    std::uint64_t seed = 0;
    bool traced = false; ///< submitted in a traced round
    bool succeeded = false;
    std::string error;
    std::string resultDigest;
    std::uint64_t submitNs = 0;   ///< submit sent
    std::uint64_t acceptedNs = 0; ///< submit answered
    std::uint64_t doneNs = 0;     ///< result received
};

void
runJob(server::Client &client, JobRecord &job)
{
    job.submitNs = obs::Profiler::clockNs();
    std::string err;
    const auto id = client.submit(jobSpec(job.seed), &err);
    job.acceptedNs = obs::Profiler::clockNs();
    if (!id) {
        job.error = "submit: " + err;
        return;
    }
    const auto t0 = Clock::now();
    while (secondsSince(t0) < kJobTimeoutS) {
        const auto resp = client.waitResult(*id, 30000);
        if (!resp) {
            job.error = "result: connection lost";
            return;
        }
        const json::Value *done = resp->find("done");
        if (!done || !done->isBool() || !done->asBool())
            continue;
        job.doneNs = obs::Profiler::clockNs();
        const json::Value *state = resp->find("state");
        const json::Value *text = resp->find("result");
        job.succeeded = state && state->isString() &&
                        state->asString() == "succeeded" && text &&
                        text->isString();
        if (job.succeeded)
            job.resultDigest = digest(text->asString());
        else
            job.error = "terminal state " +
                        (state && state->isString() ? state->asString()
                                                    : std::string("?"));
        return;
    }
    job.error = "no result within the job timeout";
}

/** The daemon's `stats` object, or nullopt. */
std::optional<json::Value>
daemonStats(server::Client &client)
{
    const auto resp = client.stats();
    if (!resp)
        return std::nullopt;
    const json::Value *s = resp->find("stats");
    if (!s || !s->isObject())
        return std::nullopt;
    return *s;
}

double
number(const json::Value &v, const char *key)
{
    const json::Value *x = v.find(key);
    return x && x->isNumber() ? x->asNumber() : -1.0;
}

/** The in-process twin of a job: what `camosim --stats-json` writes
 *  for the same spec. Profiled when `trace` is given. */
std::string
inProcess(const server::JobSpec &spec, Trace *trace, double *run_ns)
{
    const sim::TopologyConfig topo = sim::topologyFromJson(spec.config);
    sim::SystemConfig cfg = topo.system;
    cfg.numCores = static_cast<std::uint32_t>(topo.workloads.size());
    cfg.seed = spec.seed;
    std::unique_ptr<sim::SystemPlan> plan;
    std::unique_ptr<sim::System> sys;
    if (trace) {
        {
            SpanScope span(trace->spans, "sim.plan.compile");
            plan = std::make_unique<sim::SystemPlan>(cfg, topo.workloads);
        }
        SpanScope span(trace->spans, "sim.plan.instantiate");
        sys = plan->instantiate();
        sys->setProfiler(trace->profFor(cfg.mitigation));
    } else {
        plan = std::make_unique<sim::SystemPlan>(cfg, topo.workloads);
        sys = plan->instantiate();
    }
    const auto t0 = Clock::now();
    {
        Spans idle(false);
        SpanScope span(trace ? trace->spans : idle,
                       cfg.mitigation == sim::Mitigation::None
                           ? "sim.run.none"
                           : "sim.run.bdc");
        sim::runAndMeasure(*sys, spec.cycles, spec.warmup);
    }
    if (run_ns)
        *run_ns = secondsSince(t0) * 1e9;
    if (trace)
        trace->record(*sys, static_cast<double>(sys->now()));
    return sim::summaryJson(*sys, topo.workloads, false).dump(2) + "\n";
}

} // namespace

void
runDaemonUncached(const Options &opt, Report &report)
{
    const unsigned clients = parallelJobs();
    const std::uint64_t seed_base = simSeed(opt.seed, kDaemonStream);
    const std::string log = opt.outDir + "/camosimd.log";

    // Set-up: spawn to first accepted connection, several times; the
    // last daemon runs the workload.
    std::vector<double> setup;
    std::unique_ptr<Daemon> daemon;
    for (int i = 0; i < kSetupSamples; ++i) {
        const auto t0 = Clock::now();
        daemon = std::make_unique<Daemon>(
            opt.daemon,
            opt.outDir + "/d" + std::to_string(::getpid()) + "-" +
                std::to_string(i) + ".sock",
            log, clients);
        const bool ready = daemon->spawned() && daemon->waitReady();
        setup.push_back(secondsSince(t0));
        report.op(ready, "daemon-uncached: camosimd did not come up");
        if (!ready)
            return;
        if (i + 1 < kSetupSamples) {
            double rss = 0.0;
            report.op(daemon->drain(&rss) == 0,
                      "daemon-uncached: set-up daemon did not drain cleanly");
        }
    }

    std::vector<server::Client> conns(clients);
    for (server::Client &c : conns) {
        std::string err;
        if (!c.connect(daemon->socket(), &err)) {
            report.op(false, "daemon-uncached: connect: " + err);
            return;
        }
    }

    std::vector<JobRecord> jobs;
    auto round = [&](bool traced) {
        Round r;
        const std::size_t first = jobs.size();
        const std::size_t n = clients * kJobsPerClient;
        for (std::size_t i = 0; i < n; ++i) {
            JobRecord job;
            job.seed = seed_base + first + i;
            job.traced = traced;
            jobs.push_back(std::move(job));
        }
        std::atomic<std::size_t> next{first};
        const auto t0 = Clock::now();
        std::vector<std::thread> threads;
        for (server::Client &c : conns) {
            threads.emplace_back([&] {
                for (std::size_t i = next++; i < first + n; i = next++)
                    runJob(c, jobs[i]);
            });
        }
        for (std::thread &t : threads)
            t.join();
        r.wallS = secondsSince(t0);
        r.runS = r.wallS;
        r.sims = static_cast<double>(n);
        r.simCycles = static_cast<double>(n * (kJobCycles + kJobWarmup));
        for (std::size_t i = first; i < first + n; ++i) {
            const JobRecord &j = jobs[i];
            if (j.doneNs > j.submitNs)
                r.jobLatMs.push_back(
                    static_cast<double>(j.doneNs - j.submitNs) / 1e6);
        }
        return r;
    };

    // Traced runs alternate untraced rounds with traced ones, during
    // which a separate connection polls the daemon's stats.
    std::vector<Round> rounds;
    std::vector<Round> traced;
    double queue_depth_max = 0.0;
    if (!opt.trace) {
        rounds = roundsFor(opt.seconds, 3, [&] { return round(false); });
    } else {
        std::atomic<bool> poll{false};
        std::atomic<bool> stop{false};
        std::thread poller([&] {
            server::Client c;
            std::string err;
            if (!c.connect(daemon->socket(), &err))
                return;
            for (; !stop; ::usleep(20000)) {
                if (!poll)
                    continue;
                if (const auto s = daemonStats(c))
                    queue_depth_max =
                        std::max(queue_depth_max, number(*s, "queue_depth"));
            }
        });
        const auto t0 = Clock::now();
        while (rounds.size() < 2 || secondsSince(t0) < opt.seconds) {
            rounds.push_back(round(false));
            poll = true;
            traced.push_back(round(true));
            poll = false;
        }
        stop = true;
        poller.join();
    }

    // Guard against inflated throughput: no job may have been served
    // from the cache, retried or shed.
    std::optional<json::Value> stats = daemonStats(conns.front());
    for (server::Client &c : conns)
        c.close();
    const json::Value *terminal = stats ? stats->find("terminal") : nullptr;
    const double succeeded = terminal ? number(*terminal, "succeeded") : -1.0;
    double daemon_rss = 0.0;
    const int exit_code = daemon->drain(&daemon_rss);
    daemon.reset();

    // Identity with the in-process run of every spec; untimed, so on
    // every vCPU.
    const std::vector<std::string> expect = sim::parallelMap(
        jobs.size(), std::max(1u, std::thread::hardware_concurrency()),
        [&](std::size_t i) {
            try {
                return digest(
                    inProcess(jobSpec(jobs[i].seed), nullptr, nullptr));
            } catch (const std::exception &e) {
                return std::string("in-process run threw: ") + e.what();
            }
        });
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        const JobRecord &j = jobs[i];
        const std::string what = "daemon-uncached job seed " +
                                 std::to_string(j.seed) + ": ";
        if (!j.succeeded)
            report.op(false, what + j.error);
        else
            report.op(j.resultDigest == expect[i],
                      what + "result differs from the in-process run");
    }
    report.op(exit_code == 0, "daemon-uncached: drain exit code " +
                                  std::to_string(exit_code));
    if (!stats || number(*stats, "cache_hits") != 0.0 ||
        number(*stats, "retries") != 0.0 || number(*stats, "shed") != 0.0 ||
        succeeded != static_cast<double>(jobs.size())) {
        report.failRun("daemon stats show cache hits, retries, sheds or a "
                       "succeeded count other than the jobs submitted");
    }

    if (!opt.trace) {
        // Job latencies mix a fast mode (~25 ms, both vCPUs fast) and a
        // slow one (~40 ms); a percentile is steady only inside a mode.
        // The p50 of the fastest rounds' jobs sits in the fast one and
        // the p90 of every job in the slow one: over 8 runs they spread
        // 5% and 6%, the other pairing 13-14%. Set-up splits the same
        // way, so its fastest tenth is kept (spread 8% against 12%).
        const std::vector<Round> fastest = fastestRounds(rounds);
        reportEndToEnd(report, fastest, jobLatencies(fastest),
                       jobLatencies(rounds), fastestShare(std::move(setup)),
                       daemon_rss);
        return;
    }

    // Traced: client-side spans of the traced rounds, then a few specs
    // re-run in process, plain and profiled, for the simulator layers.
    std::vector<TimerCost> costs;
    Trace trace(true);
    std::vector<double> rtt_us;
    std::vector<double> latency_ms;
    for (const JobRecord &j : jobs) {
        if (!j.traced)
            continue;
        const int id =
            trace.spans.add("server.job", Spans::kNoParent, j.submitNs,
                            j.doneNs);
        trace.spans.add("server.submit", id, j.submitNs, j.acceptedNs);
        rtt_us.push_back(static_cast<double>(j.acceptedNs - j.submitNs) /
                         1e3);
        if (j.doneNs > j.submitNs)
            latency_ms.push_back(static_cast<double>(j.doneNs - j.submitNs) /
                                 1e6);
    }
    // Plain and profiled runs alternate, so host drift hits both.
    std::vector<double> plain_ms;
    double plain_ns = 0.0;
    for (std::size_t i = 0; i < kProfiledJobs && i < jobs.size(); ++i) {
        double ns = 0.0;
        inProcess(jobSpec(jobs[i].seed), nullptr, &ns);
        plain_ns += ns;
        plain_ms.push_back(ns / 1e6);
        inProcess(jobSpec(jobs[i].seed), &trace, nullptr);
        costs.push_back(calibrateTimer());
    }
    const TimerCost cost = medianCost(costs);

    const auto wall = [](const Round &r) { return r.wallS; };
    reportTrace(opt, report, trace, cost, PlainRunNs{0.0, plain_ns},
                medianOf(traced, wall) / medianOf(rounds, wall));
    report.metric("server.submit_rtt_us", median(rtt_us), "us");
    report.metric("server.overhead_ms_per_job",
                  median(latency_ms) - median(plain_ms), "ms");
    const json::Value *lat = stats ? stats->find("latency_ms") : nullptr;
    report.metric("server.latency_mean_ms",
                  lat ? number(*lat, "mean") : 0.0, "ms");
    report.metric("server.queue_depth_max", queue_depth_max, "count");
    report.metric("server.retries", stats ? number(*stats, "retries") : 0.0,
                  "count");
    report.metric("server.cache_hits",
                  stats ? number(*stats, "cache_hits") : 0.0, "count");
}

} // namespace perfbench
