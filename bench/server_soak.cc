/**
 * @file
 * Chaos soak for the camosimd experiment service: the proof that the
 * daemon is crash-isolated and self-healing under a hostile workload.
 *
 * Forks a real camosimd, then drives it from several client threads
 * with a deterministic chaos mix: duplicate jobs from a small spec
 * pool (cache + single-flight), jobs that SIGSEGV in the worker
 * (terminal and retried), worker-kill/worker-stall injections,
 * in-simulation faults (corrupt-credits + checkers, wedge +
 * watchdog), wall-clock deadline jobs, cancels, and a side thread
 * spraying malformed protocol frames. Mid-run the limits are
 * reloaded over the socket and via SIGHUP.
 *
 * Asserted invariants (the run fails loudly when any breaks):
 *  - the daemon never dies: every request keeps being answered, and
 *    SIGTERM at the end drains and exits 0;
 *  - every accepted job lands in exactly one terminal state, and the
 *    server-side terminal counters sum to the accepted count;
 *  - every job's terminal state is the one its chaos kind predicts;
 *  - results are byte-identical to one-shot `camosim --stats-json`
 *    runs, including a job that succeeded only on attempt 3 (checked
 *    against camosim at the re-derived retry seed);
 *  - admission control sheds explicitly when the queue is full.
 *
 * Emits BENCH_server.json (schema_version + build provenance, like
 * BENCH_ticks.json) with jobs/sec and p99 latency for benchdiff.
 *
 *   bench_server_soak [--short] [--jobs=N] [--cycles=N]
 *       [--threads=N] [--workers=N] [--out=FILE] [--inject]
 *       [--no-inject]
 *
 * --short is the CI/ASan mode (hundreds of jobs, not thousands);
 * --no-inject turns the fault mix off for pure-throughput runs.
 */

#include <atomic>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <fstream>
#include <limits>
#include <map>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <fcntl.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include "src/common/logging.h"
#include "src/common/parse.h"
#include "src/obs/benchdiff.h"
#include "src/obs/json.h"
#include "src/server/client.h"
#include "src/server/protocol.h"
#include "src/sim/parallel.h"

#ifndef CAMO_CAMOSIMD_PATH
#define CAMO_CAMOSIMD_PATH "camosimd"
#endif
#ifndef CAMO_CAMOSIM_PATH
#define CAMO_CAMOSIM_PATH "camosim"
#endif

using namespace camo;

namespace {

struct Options
{
    std::uint64_t jobs = 5000;
    std::uint64_t cycles = 120000;
    std::uint64_t warmup = 5000;
    unsigned threads = 8;
    unsigned workers = 4;
    bool inject = true;
    std::string out = "BENCH_server.json";
};

/** The deterministic chaos mix, selected per job index. */
enum class Mix
{
    Plain,       ///< duplicate specs: cache + single-flight traffic
    RetryCrash,  ///< SIGSEGVs once, succeeds on the retried attempt
    TermCrash,   ///< SIGSEGVs every attempt: terminal `crashed`
    WorkerKill,  ///< injected transient fault, retried to success
    WorkerStall, ///< injected stall inside the deadline: succeeds
    DeadlineJob, ///< unbounded sim + tiny deadline: `deadline`
    Invariant,   ///< corrupt-credits + checkers: failed, code 4
    WatchdogJob, ///< wedged shaper + watchdog: failed, code 5
    CancelJob,   ///< canceled right after submit
};

Mix
mixFor(std::uint64_t i, bool inject)
{
    if (!inject)
        return Mix::Plain;
    if (i % 211 == 17)
        return Mix::TermCrash;
    if (i % 239 == 5)
        return Mix::CancelJob;
    if (i % 191 == 3)
        return Mix::WatchdogJob;
    if (i % 173 == 11)
        return Mix::Invariant;
    if (i % 149 == 7)
        return Mix::DeadlineJob;
    if (i % 163 == 19)
        return Mix::WorkerStall;
    if (i % 101 == 29)
        return Mix::WorkerKill;
    if (i % 97 == 13)
        return Mix::RetryCrash;
    return Mix::Plain;
}

const char *
mixName(Mix m)
{
    switch (m) {
      case Mix::Plain: return "plain";
      case Mix::RetryCrash: return "retry-crash";
      case Mix::TermCrash: return "term-crash";
      case Mix::WorkerKill: return "worker-kill";
      case Mix::WorkerStall: return "worker-stall";
      case Mix::DeadlineJob: return "deadline";
      case Mix::Invariant: return "invariant";
      case Mix::WatchdogJob: return "watchdog";
      case Mix::CancelJob: return "cancel";
    }
    return "?";
}

/** The duplicate-heavy spec pool: 8 distinct topologies. */
obs::json::Value
plainConfig(std::uint64_t variant)
{
    static const char *const kPairs[2][2] = {{"mcf", "astar"},
                                             {"libqt", "bzip"}};
    static const char *const kMits[4] = {"none", "bdc", "cs", "tp"};
    obs::json::Value cfg = obs::json::Value::makeObject();
    obs::json::Value w = obs::json::Value::makeArray();
    w.push(obs::json::Value(kPairs[variant % 2][0]));
    w.push(obs::json::Value(kPairs[variant % 2][1]));
    cfg["workloads"] = std::move(w);
    cfg["mitigation"] = obs::json::Value(kMits[(variant / 2) % 4]);
    cfg["seed"] = obs::json::Value(std::uint64_t{7} + variant);
    return cfg;
}

/** A shaping topology for the in-sim fault jobs (the injected
 *  faults need a shaper to corrupt or wedge). */
obs::json::Value
shapedConfig()
{
    obs::json::Value cfg = obs::json::Value::makeObject();
    obs::json::Value w = obs::json::Value::makeArray();
    w.push(obs::json::Value("mcf"));
    w.push(obs::json::Value("astar"));
    cfg["workloads"] = std::move(w);
    cfg["mitigation"] = obs::json::Value("bdc");
    return cfg;
}

struct JobPlan
{
    server::JobSpec spec;
    Mix mix = Mix::Plain;
    bool cancelAfterSubmit = false;
};

JobPlan
makePlan(std::uint64_t i, const Options &opt)
{
    JobPlan p;
    p.mix = mixFor(i, opt.inject);
    p.spec.cycles = opt.cycles;
    p.spec.warmup = opt.warmup;
    // Chaos jobs get unique seeds so each one exercises its fault
    // path instead of collapsing into the result cache.
    const std::uint64_t unique = 1000000 + i;
    switch (p.mix) {
      case Mix::Plain:
        p.spec.config = plainConfig(i % 8);
        break;
      case Mix::RetryCrash:
        p.spec.config = plainConfig(i % 8);
        p.spec.seed = unique;
        p.spec.crashAttempts = 1;
        break;
      case Mix::TermCrash:
        p.spec.config = plainConfig(i % 8);
        p.spec.seed = unique;
        p.spec.crashAttempts = 99;
        break;
      case Mix::WorkerKill:
        p.spec.config = plainConfig(i % 8);
        p.spec.seed = unique;
        p.spec.inject = "worker-kill:param=1";
        break;
      case Mix::WorkerStall:
        p.spec.config = plainConfig(i % 8);
        p.spec.seed = unique;
        p.spec.inject = "worker-stall:param=100";
        break;
      case Mix::DeadlineJob:
        p.spec.config = plainConfig(i % 8);
        p.spec.seed = unique;
        p.spec.cycles = 2000000000ULL;
        p.spec.timeoutMs = 250;
        break;
      case Mix::Invariant:
        p.spec.config = shapedConfig();
        p.spec.seed = unique;
        p.spec.inject = "corrupt-credits:at=1000";
        p.spec.checkers = true;
        break;
      case Mix::WatchdogJob:
        p.spec.config = shapedConfig();
        p.spec.seed = unique;
        p.spec.inject = "wedge-req:at=1000";
        p.spec.watchdog = 15000;
        break;
      case Mix::CancelJob:
        p.spec.config = plainConfig(i % 8);
        p.spec.seed = unique;
        p.spec.cycles = 2000000000ULL;
        p.spec.timeoutMs = 30000;
        p.cancelAfterSubmit = true;
        break;
    }
    return p;
}

/** Expected terminal states per mix (a cancel can lose the race to
 *  its own deadline; both are correct accounting). */
bool
stateExpected(Mix m, const std::string &state)
{
    switch (m) {
      case Mix::Plain:
      case Mix::RetryCrash:
      case Mix::WorkerKill:
      case Mix::WorkerStall:
        return state == "succeeded" || state == "cached";
      case Mix::TermCrash:
        return state == "crashed";
      case Mix::DeadlineJob:
        return state == "deadline";
      case Mix::Invariant:
      case Mix::WatchdogJob:
        return state == "failed";
      case Mix::CancelJob:
        return state == "canceled" || state == "deadline";
    }
    return false;
}

double
secondsSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

std::string
pathOf(const char *env, const char *fallback)
{
    const char *v = std::getenv(env);
    return v && *v ? v : fallback;
}

/** fork/exec with stdout+stderr redirected to `log_path`. */
pid_t
spawn(const std::vector<std::string> &argv,
      const std::string &log_path)
{
    std::vector<char *> cargv;
    cargv.reserve(argv.size() + 1);
    for (const std::string &a : argv)
        cargv.push_back(const_cast<char *>(a.c_str()));
    cargv.push_back(nullptr);
    const pid_t pid = ::fork();
    if (pid != 0)
        return pid;
    const int fd = ::open(log_path.c_str(),
                          O_CREAT | O_WRONLY | O_APPEND, 0644);
    if (fd >= 0) {
        ::dup2(fd, 1);
        ::dup2(fd, 2);
        ::close(fd);
    }
    ::execv(cargv[0], cargv.data());
    std::fprintf(stderr, "exec %s: %s\n", cargv[0],
                 std::strerror(errno));
    ::_exit(127);
}

int
waitExit(pid_t pid)
{
    int status = 0;
    while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
    }
    return WIFEXITED(status) ? WEXITSTATUS(status) : -WTERMSIG(status);
}

std::string
readFileOr(const std::string &path, const std::string &fallback)
{
    std::ifstream is(path);
    if (!is)
        return fallback;
    std::ostringstream ss;
    ss << is.rdbuf();
    return ss.str();
}

/** One-shot camosim run; returns the --stats-json document text. */
std::string
oneShotCamosim(const std::string &camosim, const std::string &dir,
               const obs::json::Value &config, std::uint64_t cycles,
               std::uint64_t warmup, std::uint64_t seed,
               const std::string &tag)
{
    const std::string cfg_path = dir + "/oneshot-" + tag + ".json";
    const std::string out_path = dir + "/oneshot-" + tag + ".out";
    {
        std::ofstream os(cfg_path);
        os << config.dump(2) << "\n";
    }
    const int code = waitExit(spawn(
        {camosim, "--config=" + cfg_path,
         "--cycles=" + std::to_string(cycles),
         "--warmup=" + std::to_string(warmup),
         "--seed=" + std::to_string(seed),
         "--stats-json=" + out_path},
        dir + "/oneshot-" + tag + ".log"));
    camo_assert(code == 0, "one-shot camosim (", tag,
                ") exited with ", code);
    return readFileOr(out_path, "");
}

// ---------------------------------------------------------------
// Shared soak state.

struct Tally
{
    std::mutex m;
    std::map<std::string, std::uint64_t> states;
    std::uint64_t accepted = 0;
    std::uint64_t shedResponses = 0;
    std::uint64_t lost = 0; ///< never accepted even after retries
    std::vector<std::string> failures;
    std::string plainResult;      ///< variant-0 result text
    std::string watchdogDumpPath; ///< any watchdog job's dump file

    void fail(const std::string &what)
    {
        std::lock_guard<std::mutex> lk(m);
        if (failures.size() < 20)
            failures.push_back(what);
        else if (failures.size() == 20)
            failures.push_back("... more failures suppressed");
    }
};

/** Submit with bounded retry on shed (admission control pushes
 *  back; a well-behaved client backs off and resubmits). */
std::optional<std::uint64_t>
submitRetrying(server::Client &client, const server::JobSpec &spec,
               Tally &tally)
{
    for (int tries = 0; tries < 2000; ++tries) {
        std::string err;
        const auto id = client.submit(spec, &err);
        if (id)
            return id;
        if (err.find("shed") == std::string::npos &&
            err.find("queue full") == std::string::npos) {
            tally.fail("submit rejected: " + err);
            return std::nullopt;
        }
        {
            std::lock_guard<std::mutex> lk(tally.m);
            ++tally.shedResponses;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    return std::nullopt;
}

void
settle(server::Client &client, std::uint64_t id,
       const JobPlan &plan, std::uint64_t index, Tally &tally)
{
    const auto resp = client.waitResult(id, 120000);
    if (!resp) {
        tally.fail("job " + std::to_string(index) +
                   ": connection lost waiting for result");
        return;
    }
    const obs::json::Value *done = resp->find("done");
    const obs::json::Value *state = resp->find("state");
    if (!done || !done->isBool() || !done->asBool() || !state ||
        !state->isString()) {
        tally.fail("job " + std::to_string(index) +
                   " not terminal after wait: " + resp->dump(0));
        return;
    }
    const std::string &s = state->asString();
    std::lock_guard<std::mutex> lk(tally.m);
    ++tally.states[s];
    if (!stateExpected(plan.mix, s)) {
        if (tally.failures.size() < 20) {
            tally.failures.push_back(
                "job " + std::to_string(index) + " (" +
                mixName(plan.mix) + "): unexpected state '" + s +
                "': " + resp->dump(0));
        }
        return;
    }
    if (plan.mix == Mix::Plain && tally.plainResult.empty() &&
        plan.spec.config.find("seed") &&
        obs::json::toUnsigned(*plan.spec.config.find("seed")) == 7u) {
        if (const obs::json::Value *r = resp->find("result"))
            tally.plainResult = r->asString();
    }
    if (plan.mix == Mix::WatchdogJob &&
        tally.watchdogDumpPath.empty()) {
        if (const obs::json::Value *d = resp->find("dump_path"))
            tally.watchdogDumpPath = d->asString();
        else if (tally.failures.size() < 20)
            tally.failures.push_back(
                "job " + std::to_string(index) +
                " (watchdog): no dump_path in " + resp->dump(0));
    }
}

void
clientThread(const std::string &socket, unsigned tid,
             const Options &opt, Tally &tally)
{
    server::Client client;
    std::string err;
    if (!client.connect(socket, &err)) {
        tally.fail("thread " + std::to_string(tid) + ": " + err);
        return;
    }
    struct Outstanding
    {
        std::uint64_t id;
        std::uint64_t index;
        JobPlan plan;
    };
    std::deque<Outstanding> window;
    for (std::uint64_t i = tid; i < opt.jobs; i += opt.threads) {
        JobPlan plan = makePlan(i, opt);
        const auto id = submitRetrying(client, plan.spec, tally);
        if (!id) {
            std::lock_guard<std::mutex> lk(tally.m);
            ++tally.lost;
            continue;
        }
        {
            std::lock_guard<std::mutex> lk(tally.m);
            ++tally.accepted;
        }
        if (plan.cancelAfterSubmit)
            client.cancel(*id);
        window.push_back({*id, i, std::move(plan)});
        if (window.size() >= 16) {
            settle(client, window.front().id, window.front().plan,
                   window.front().index, tally);
            window.pop_front();
        }
    }
    while (!window.empty()) {
        settle(client, window.front().id, window.front().plan,
               window.front().index, tally);
        window.pop_front();
    }
}

/** Spray malformed frames at the daemon until told to stop; the
 *  daemon must answer errors or drop the connection, never die. */
void
abuseThread(const std::string &socket, std::atomic<bool> &stop,
            std::atomic<std::uint64_t> &count)
{
    for (int pattern = 0; !stop.load(std::memory_order_relaxed);
         ++pattern) {
        server::Client c;
        std::string err;
        if (!c.connect(socket, &err)) {
            std::this_thread::sleep_for(
                std::chrono::milliseconds(20));
            continue;
        }
        const int fd = c.rawFd();
        switch (pattern % 4) {
          case 0: { // oversize header
            const unsigned char h[4] = {0xff, 0xff, 0xff, 0x7f};
            (void)::send(fd, h, sizeof h, MSG_NOSIGNAL);
            break;
          }
          case 1: { // length-correct frame, payload not JSON
            std::string frame;
            server::encodeFrame("}{ not json", &frame);
            (void)::send(fd, frame.data(), frame.size(),
                         MSG_NOSIGNAL);
            break;
          }
          case 2: { // truncated frame, then hang up mid-body
            const unsigned char h[4] = {100, 0, 0, 0};
            (void)::send(fd, h, sizeof h, MSG_NOSIGNAL);
            (void)::send(fd, "abc", 3, MSG_NOSIGNAL);
            break;
          }
          case 3: { // valid JSON, but not a request object
            std::string frame;
            server::encodeFrame("42", &frame);
            (void)::send(fd, frame.data(), frame.size(),
                         MSG_NOSIGNAL);
            break;
          }
        }
        c.close();
        count.fetch_add(1, std::memory_order_relaxed);
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
}

const obs::json::Value *
statsField(const obs::json::Value &resp, const char *name)
{
    const obs::json::Value *stats = resp.find("stats");
    return stats ? stats->find(name) : nullptr;
}

} // namespace

int
main(int argc, char **argv)
{
    std::signal(SIGPIPE, SIG_IGN);
    Options opt;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto eq = arg.find('=');
        const std::string name =
            eq == std::string::npos ? arg : arg.substr(0, eq);
        const std::string value =
            eq == std::string::npos ? "" : arg.substr(eq + 1);
        const auto n = parseUnsigned(
            value, name == "--threads" || name == "--workers"
                       ? std::numeric_limits<unsigned>::max()
                       : std::numeric_limits<std::uint64_t>::max());
        if (name == "--short") {
            opt.jobs = 400;
            opt.cycles = 40000;
            opt.warmup = 2000;
        } else if (name == "--jobs" && n) {
            opt.jobs = *n;
        } else if (name == "--cycles" && n) {
            opt.cycles = *n;
        } else if (name == "--threads" && n) {
            opt.threads = static_cast<unsigned>(*n);
        } else if (name == "--workers" && n) {
            opt.workers = static_cast<unsigned>(*n);
        } else if (name == "--inject") {
            opt.inject = true;
        } else if (name == "--no-inject") {
            opt.inject = false;
        } else if (name == "--out") {
            opt.out = value;
        } else {
            std::fprintf(stderr, "unknown option or bad value %s\n",
                         arg.c_str());
            return 2;
        }
    }
    if (opt.threads == 0)
        opt.threads = 1;

    const std::string camosimd =
        pathOf("CAMO_CAMOSIMD", CAMO_CAMOSIMD_PATH);
    const std::string camosim =
        pathOf("CAMO_CAMOSIM", CAMO_CAMOSIM_PATH);

    char tmpl[] = "/tmp/camosoak.XXXXXX";
    camo_assert(::mkdtemp(tmpl) != nullptr, "mkdtemp failed");
    const std::string dir = tmpl;
    const std::string socket = dir + "/camosimd.sock";
    const std::string daemon_log = dir + "/daemon.log";

    const pid_t daemon = spawn(
        {camosimd, "--socket=" + socket,
         "--workers=" + std::to_string(opt.workers), "--queue=64",
         "--timeout-ms=60000", "--retries=3", "--cache=64",
         "--diag-dir=" + dir},
        daemon_log);
    camo_assert(daemon > 0, "fork failed");

    // Wait for the socket to come up.
    {
        server::Client probe;
        std::string err;
        bool up = false;
        for (int i = 0; i < 200 && !up; ++i) {
            up = probe.connect(socket, &err);
            if (!up)
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(25));
        }
        if (!up) {
            std::fprintf(stderr, "daemon never came up: %s\n%s\n",
                         err.c_str(),
                         readFileOr(daemon_log, "(no log)").c_str());
            ::kill(daemon, SIGKILL);
            return 1;
        }
    }

    std::printf("soak: %llu jobs, %u client threads, %u workers, "
                "inject=%s\n",
                static_cast<unsigned long long>(opt.jobs),
                opt.threads, opt.workers,
                opt.inject ? "on" : "off");

    Tally tally;
    std::atomic<bool> stopAbuse{false};
    std::atomic<std::uint64_t> abuseFrames{0};
    const auto t0 = std::chrono::steady_clock::now();

    std::thread abuser(abuseThread, socket, std::ref(stopAbuse),
                       std::ref(abuseFrames));
    // Mid-run chaos: reload the limits over the socket and via
    // SIGHUP while jobs are in flight.
    std::thread reloader([&] {
        std::this_thread::sleep_for(std::chrono::milliseconds(500));
        server::Client c;
        std::string err;
        if (c.connect(socket, &err)) {
            obs::json::Value req = obs::json::Value::makeObject();
            req["op"] = "reload";
            obs::json::Value limits = obs::json::Value::makeObject();
            limits["cache_entries"] = std::uint64_t{48};
            req["limits"] = limits;
            (void)c.request(req);
        }
        ::kill(daemon, SIGHUP);
    });

    std::vector<std::thread> clients;
    for (unsigned t = 0; t < opt.threads; ++t) {
        clients.emplace_back(clientThread, socket, t, std::cref(opt),
                             std::ref(tally));
    }
    for (auto &t : clients)
        t.join();
    const double soak_sec = secondsSince(t0);
    stopAbuse.store(true, std::memory_order_relaxed);
    abuser.join();
    reloader.join();

    // ----- post-run checks against the still-running daemon -----
    server::Client client;
    std::string err;
    camo_assert(client.connect(socket, &err),
                "daemon unreachable after soak: ", err);

    // Deterministic shed: queue capacity 0 must reject a novel spec
    // explicitly, and restoring the limit must accept it again.
    bool shedExercised = false;
    {
        auto reload = [&](std::uint64_t queue) {
            obs::json::Value req = obs::json::Value::makeObject();
            req["op"] = "reload";
            obs::json::Value limits = obs::json::Value::makeObject();
            limits["max_queue"] = queue;
            req["limits"] = limits;
            const auto resp = client.request(req);
            camo_assert(resp && resp->find("ok") &&
                            resp->find("ok")->asBool(),
                        "reload failed");
        };
        reload(0);
        server::JobSpec novel;
        novel.config = plainConfig(0);
        novel.cycles = opt.cycles;
        novel.warmup = opt.warmup;
        novel.seed = 31337001;
        std::string serr;
        const auto rejected = client.submit(novel, &serr);
        shedExercised = !rejected &&
                        serr.find("shed") != std::string::npos;
        if (!shedExercised)
            tally.fail("max_queue=0 did not shed: " + serr);
        reload(64);
        const auto accepted = client.submit(novel, &serr);
        if (!accepted) {
            tally.fail("post-reload submit rejected: " + serr);
        } else {
            const auto resp = client.waitResult(*accepted, 120000);
            if (!resp || !resp->find("state") ||
                resp->find("state")->asString() != "succeeded")
                tally.fail("post-reload job did not succeed");
            else {
                std::lock_guard<std::mutex> lk(tally.m);
                ++tally.accepted;
                ++tally.states["succeeded"];
            }
        }
    }

    // Byte-identity #1: a cached plain result equals a one-shot
    // camosim run of the same spec.
    bool byteIdentical = true;
    {
        if (tally.plainResult.empty()) {
            // No variant-0 job sampled its result (tiny --jobs runs);
            // fetch one explicitly.
            server::JobSpec spec;
            spec.config = plainConfig(0);
            spec.cycles = opt.cycles;
            spec.warmup = opt.warmup;
            std::string serr;
            const auto id = client.submit(spec, &serr);
            if (id) {
                const auto resp = client.waitResult(*id, 120000);
                if (resp && resp->find("result"))
                    tally.plainResult =
                        resp->find("result")->asString();
                std::lock_guard<std::mutex> lk(tally.m);
                ++tally.accepted;
                if (resp && resp->find("state"))
                    ++tally.states[resp->find("state")->asString()];
            }
        }
        const std::string oneshot = oneShotCamosim(
            camosim, dir, plainConfig(0), opt.cycles, opt.warmup, 7,
            "plain");
        if (tally.plainResult.empty() ||
            tally.plainResult != oneshot) {
            byteIdentical = false;
            tally.fail("plain result != one-shot camosim output (" +
                       std::to_string(tally.plainResult.size()) +
                       " vs " + std::to_string(oneshot.size()) +
                       " bytes)");
        }
    }

    // Byte-identity #2: a job that crashed twice and succeeded on
    // attempt 3 equals a one-shot run at the re-derived retry seed.
    {
        server::JobSpec spec;
        spec.config = plainConfig(1);
        spec.cycles = opt.cycles;
        spec.warmup = opt.warmup;
        spec.seed = 424242;
        spec.crashAttempts = 2;
        std::string serr;
        const auto id = client.submit(spec, &serr);
        if (!id) {
            tally.fail("retry-identity submit rejected: " + serr);
            byteIdentical = false;
        } else {
            const auto resp = client.waitResult(*id, 120000);
            std::string daemonResult;
            if (resp && resp->find("result"))
                daemonResult = resp->find("result")->asString();
            {
                std::lock_guard<std::mutex> lk(tally.m);
                ++tally.accepted;
                if (resp && resp->find("state"))
                    ++tally.states[resp->find("state")->asString()];
            }
            const std::uint64_t derived = sim::deriveSeed(
                424242, sim::kRetrySeedStream, 2);
            const std::string oneshot = oneShotCamosim(
                camosim, dir, plainConfig(1), opt.cycles, opt.warmup,
                derived, "retry");
            if (daemonResult.empty() || daemonResult != oneshot) {
                byteIdentical = false;
                tally.fail(
                    "retried result != one-shot at re-derived seed");
            }
            if (resp && resp->find("attempts") &&
                resp->find("attempts")->asNumber() != 3.0)
                tally.fail("retry-identity job did not take 3 "
                           "attempts");
        }
    }

    // Watchdog dump file from satellite 2: the structured error must
    // name a real per-instance dump file.
    if (opt.inject) {
        if (tally.watchdogDumpPath.empty()) {
            tally.fail("no watchdog job reported a dump_path");
        } else {
            struct stat st;
            if (::stat(tally.watchdogDumpPath.c_str(), &st) != 0)
                tally.fail("dump_path does not exist: " +
                           tally.watchdogDumpPath);
        }
    }

    // ----- final accounting: exactly one terminal state per job ----
    std::uint64_t submitted = 0, terminalSum = 0, reloads = 0;
    std::uint64_t retries = 0, cacheHits = 0, joined = 0, shed = 0;
    double p99 = 0.0, meanLat = 0.0;
    {
        const auto resp = client.stats();
        camo_assert(resp, "stats request failed after soak");
        const auto count = [&resp](const char *name) {
            const auto *v = statsField(*resp, name);
            return v ? obs::json::toUnsigned(*v).value_or(0) : 0;
        };
        submitted = count("submitted");
        reloads = count("reloads");
        retries = count("retries");
        cacheHits = count("cache_hits");
        joined = count("joined");
        shed = count("shed");
        if (const auto *v = statsField(*resp, "terminal")) {
            for (const auto &[name, n] : v->asObject())
                terminalSum += obs::json::toUnsigned(n).value_or(0);
        }
        if (const auto *v = statsField(*resp, "latency_ms")) {
            if (const auto *p = v->find("p99"))
                p99 = p->asNumber();
            if (const auto *p = v->find("mean"))
                meanLat = p->asNumber();
        }
        if (const auto *v = statsField(*resp, "queue_depth");
            v && v->asNumber() != 0.0)
            tally.fail("queue not empty after soak");
        if (const auto *v = statsField(*resp, "running");
            v && v->asNumber() != 0.0)
            tally.fail("jobs still running after soak");
    }
    std::uint64_t clientTerminal = 0;
    for (const auto &[name, n] : tally.states)
        clientTerminal += n;
    if (submitted != terminalSum) {
        tally.fail("accounting broken: submitted=" +
                   std::to_string(submitted) + " but terminal sum=" +
                   std::to_string(terminalSum));
    }
    if (tally.accepted != submitted) {
        tally.fail("client accepted " +
                   std::to_string(tally.accepted) +
                   " jobs but server counted " +
                   std::to_string(submitted));
    }
    if (clientTerminal != tally.accepted) {
        tally.fail("client saw " + std::to_string(clientTerminal) +
                   " terminal results for " +
                   std::to_string(tally.accepted) +
                   " accepted jobs");
    }
    if (tally.lost != 0)
        tally.fail(std::to_string(tally.lost) +
                   " jobs never accepted");
    if (reloads < 2)
        tally.fail("expected >=2 reloads (socket op + SIGHUP), saw " +
                   std::to_string(reloads));

    // ----- graceful drain: SIGTERM must exit 0 -------------------
    client.close();
    ::kill(daemon, SIGTERM);
    const int daemonExit = waitExit(daemon);
    const bool cleanExit = daemonExit == 0;
    if (!cleanExit)
        tally.fail("daemon exit code " + std::to_string(daemonExit) +
                   " after SIGTERM (want 0)");

    const double accountedRatio =
        submitted == 0
            ? 0.0
            : static_cast<double>(terminalSum) /
                  static_cast<double>(submitted);

    std::printf("soak: %llu accepted in %.2fs (%.0f jobs/s), "
                "p99 %.1f ms\n",
                static_cast<unsigned long long>(tally.accepted),
                soak_sec,
                static_cast<double>(tally.accepted) / soak_sec, p99);
    std::printf("soak: states:");
    for (const auto &[name, n] : tally.states)
        std::printf(" %s=%llu", name.c_str(),
                    static_cast<unsigned long long>(n));
    std::printf("\nsoak: retries=%llu cache_hits=%llu joined=%llu "
                "shed=%llu abuse_frames=%llu reloads=%llu\n",
                static_cast<unsigned long long>(retries),
                static_cast<unsigned long long>(cacheHits),
                static_cast<unsigned long long>(joined),
                static_cast<unsigned long long>(shed),
                static_cast<unsigned long long>(abuseFrames.load()),
                static_cast<unsigned long long>(reloads));

    // ----- BENCH_server.json -------------------------------------
    obs::json::Value root = obs::json::Value::makeObject();
    root["schema_version"] =
        obs::json::Value(obs::kBenchSchemaVersion);
    root["bench"] = obs::json::Value("server_soak");
    root["build"] = obs::buildInfoJson();
    obs::json::Value server = obs::json::Value::makeObject();
    server["jobs"] = tally.accepted;
    server["client_threads"] =
        static_cast<std::uint64_t>(opt.threads);
    server["workers"] = static_cast<std::uint64_t>(opt.workers);
    server["cycles_per_job"] = opt.cycles;
    server["inject"] = opt.inject;
    server["wall_clock_sec"] = soak_sec;
    server["jobs_per_sec"] =
        static_cast<double>(tally.accepted) / soak_sec;
    server["p99_latency_ms"] = p99;
    server["mean_latency_ms"] = meanLat;
    server["accounted_ratio"] = accountedRatio;
    server["byte_identical"] = byteIdentical ? 1.0 : 0.0;
    server["clean_exit"] = cleanExit ? 1.0 : 0.0;
    server["retries"] = retries;
    server["cache_hits"] = cacheHits;
    server["joined"] = joined;
    server["shed"] = shed;
    server["abuse_frames"] = abuseFrames.load();
    obs::json::Value states = obs::json::Value::makeObject();
    for (const auto &[name, n] : tally.states)
        states[name] = n;
    server["terminal"] = std::move(states);
    root["server"] = std::move(server);
    {
        std::ofstream os(opt.out);
        if (!os)
            camo_fatal("cannot open ", opt.out);
        os << root.dump(2) << "\n";
        std::printf("wrote %s\n", opt.out.c_str());
    }

    if (!tally.failures.empty()) {
        std::fprintf(stderr, "soak FAILED (%zu problems):\n",
                     tally.failures.size());
        for (const std::string &f : tally.failures)
            std::fprintf(stderr, "  - %s\n", f.c_str());
        std::fprintf(stderr, "daemon log:\n%s\n",
                     readFileOr(daemon_log, "(no log)").c_str());
        return 1;
    }
    std::printf("soak OK: daemon exit 0, %llu jobs all accounted, "
                "results byte-identical\n",
                static_cast<unsigned long long>(tally.accepted));
    return 0;
}
