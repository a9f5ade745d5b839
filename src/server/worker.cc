#include "src/server/worker.h"

#include <cerrno>
#include <chrono>
#include <csignal>
#include <memory>

#include <poll.h>
#include <sys/wait.h>
#include <unistd.h>

#include "src/hard/error.h"
#include "src/hard/fault_injection.h"
#include "src/server/protocol.h"
#include "src/sim/parallel.h"
#include "src/sim/plan.h"
#include "src/sim/runner.h"
#include "src/sim/topology.h"

namespace camo::server {

namespace {

obs::json::Value
errorPayload(int code, const char *kind, const std::string &msg,
             const std::string &dump_path = {})
{
    obs::json::Value v = obs::json::Value::makeObject();
    v["code"] = code;
    v["kind"] = kind;
    v["error"] = msg;
    if (!dump_path.empty())
        v["dump_path"] = dump_path;
    return v;
}

std::uint64_t
nowMs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

} // namespace

obs::json::Value
runJobPayload(const JobSpec &spec, std::uint64_t job_id,
              unsigned attempt, const std::string &diag_dir)
{
    try {
        const sim::TopologyConfig topo =
            sim::topologyFromJson(spec.config);
        sim::SystemConfig cfg = topo.system;
        cfg.numCores =
            static_cast<std::uint32_t>(topo.workloads.size());
        const std::uint64_t base = spec.seed ? spec.seed : cfg.seed;
        // Same re-derivation as runConfigsParallel: a retried attempt
        // must not replay the RNG sequence that just faulted, and the
        // result must equal a one-shot run at the re-derived seed.
        cfg.seed = attempt == 0
                       ? base
                       : sim::deriveSeed(base, sim::kRetrySeedStream,
                                         attempt);

        std::unique_ptr<hard::FaultInjector> injector;
        if (!spec.inject.empty()) {
            const hard::FaultPlan plan = hard::FaultPlan::parse(
                spec.inject,
                spec.injectSeed ? spec.injectSeed : cfg.seed);
            injector = std::make_unique<hard::FaultInjector>(plan);
            // Worker faults select by job id, like the in-process
            // engine selects by batch index.
            injector->maybeWorkerFault(job_id, attempt);
        }
        if (attempt < spec.crashAttempts) {
            // Chaos-soak hook: a genuine wild store, so the crash
            // path is exercised by a real SIGSEGV rather than a
            // simulated one.
            volatile int *wild = nullptr;
            *wild = 0xDEAD;
        }

        // Compiled-plan path: same construction the sweep engine
        // uses, so daemon results stay byte-identical to the CLI's
        // while skipping the eager tracer-ring allocation.
        const sim::SystemPlan plan(cfg, topo.workloads);
        const std::unique_ptr<sim::System> system_owner =
            plan.instantiate();
        sim::System &system = *system_owner;
        if (!diag_dir.empty())
            system.setDiagnosticDir(diag_dir);
        if (spec.checkers) {
            hard::CheckerConfig hc;
            system.enableCheckers(hc);
        }
        if (spec.watchdog > 0) {
            hard::WatchdogConfig wc;
            wc.window = spec.watchdog;
            system.enableWatchdog(wc);
        }
        if (injector)
            system.setFaultInjector(injector.get());

        sim::runAndMeasure(system, spec.cycles, spec.warmup);
        if (spec.checkers)
            system.checkForLeaks();

        obs::json::Value payload = obs::json::Value::makeObject();
        payload["code"] = hard::kExitOk;
        // Byte-for-byte what `camosim --stats-json` writes.
        payload["result"] =
            sim::summaryJson(system, topo.workloads, false).dump(2) +
            "\n";
        return payload;
    } catch (const hard::CamoError &e) {
        return errorPayload(hard::exitCode(e.kind()),
                            hard::errorKindName(e.kind()), e.what(),
                            e.dumpPath());
    } catch (const std::exception &e) {
        return errorPayload(hard::kExitRuntime, "runtime", e.what());
    }
}

namespace {

[[noreturn]] void
childMain(const JobSpec &spec, std::uint64_t job_id, unsigned attempt,
          const std::string &diag_dir, int write_fd)
{
    // Drop every inherited descriptor except std streams and our
    // pipe, so a dying child can't hold daemon sockets open.
    if (write_fd != 3) {
        ::dup2(write_fd, 3);
        write_fd = 3;
    }
#if defined(__linux__)
    ::close_range(4, ~0u, 0);
#endif
    const obs::json::Value payload =
        runJobPayload(spec, job_id, attempt, diag_dir);
    writeJson(write_fd, payload);
    const obs::json::Value *c = payload.find("code");
    const auto code = c ? obs::json::toUnsigned(*c, 255) : std::nullopt;
    // _exit, not exit: skip atexit hooks and (under ASan) leak
    // checking — the parent classifies by payload, not teardown.
    ::_exit(static_cast<int>(code.value_or(hard::kExitRuntime)));
}

} // namespace

WorkerResult
runJobForked(const JobSpec &spec, std::uint64_t job_id,
             unsigned attempt, std::uint64_t timeout_ms,
             const std::string &diag_dir,
             const std::atomic<bool> *cancel,
             std::atomic<pid_t> *child_pid)
{
    WorkerResult r;
    int fds[2];
    if (::pipe(fds) != 0) {
        r.outcome = WorkerOutcome::Crashed;
        r.crashDetail = "pipe() failed";
        return r;
    }
    const pid_t pid = ::fork();
    if (pid < 0) {
        ::close(fds[0]);
        ::close(fds[1]);
        r.outcome = WorkerOutcome::Crashed;
        r.crashDetail = "fork() failed";
        return r;
    }
    if (pid == 0) {
        ::close(fds[0]);
        childMain(spec, job_id, attempt, diag_dir, fds[1]);
    }
    ::close(fds[1]);
    if (child_pid)
        child_pid->store(pid, std::memory_order_relaxed);

    // Drain the pipe until EOF, watching the deadline and the cancel
    // flag. The child is tiny-output (one frame), so a blocking-ish
    // poll loop with 20 ms slices is plenty.
    const std::uint64_t start = nowMs();
    std::string raw;
    bool killed_deadline = false;
    bool killed_cancel = false;
    char buf[4096];
    for (;;) {
        if (!killed_deadline && !killed_cancel) {
            if (cancel && cancel->load(std::memory_order_relaxed)) {
                ::kill(pid, SIGKILL);
                killed_cancel = true;
            } else if (timeout_ms > 0 &&
                       nowMs() - start >= timeout_ms) {
                ::kill(pid, SIGKILL);
                killed_deadline = true;
            }
        }
        struct pollfd pfd = {fds[0], POLLIN, 0};
        const int pr = ::poll(&pfd, 1, 20);
        if (pr < 0) {
            if (errno == EINTR)
                continue;
            break;
        }
        if (pr == 0)
            continue;
        const ssize_t n = ::read(fds[0], buf, sizeof buf);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            break;
        }
        if (n == 0)
            break; // EOF: child exited (or was killed)
        raw.append(buf, static_cast<std::size_t>(n));
        if (raw.size() > kFrameHeaderBytes + kMaxFrameBytes)
            break; // runaway child; classify as crash below
    }
    ::close(fds[0]);

    int wstatus = 0;
    while (::waitpid(pid, &wstatus, 0) < 0 && errno == EINTR) {
    }
    if (child_pid)
        child_pid->store(-1, std::memory_order_relaxed);

    if (killed_cancel) {
        r.outcome = WorkerOutcome::Canceled;
        r.kind = "canceled";
        r.error = "canceled while running";
        return r;
    }
    if (killed_deadline) {
        r.outcome = WorkerOutcome::Deadline;
        r.kind = "deadline";
        r.error = "wall-clock deadline (" +
                  std::to_string(timeout_ms) + " ms) exceeded";
        return r;
    }

    // Classify strictly by the payload. No parseable payload — for
    // any reason — is a crash.
    std::optional<obs::json::Value> payload;
    if (raw.size() >= kFrameHeaderBytes) {
        const std::uint32_t len = decodeFrameLength(
            reinterpret_cast<const unsigned char *>(raw.data()));
        if (len <= kMaxFrameBytes &&
            raw.size() == kFrameHeaderBytes + len) {
            payload = obs::json::tryParse(
                raw.substr(kFrameHeaderBytes, len));
        }
    }
    const obs::json::Value *c =
        payload && payload->isObject() ? payload->find("code") : nullptr;
    const auto code = c ? obs::json::toUnsigned(*c, 255) : std::nullopt;
    if (!code) {
        r.outcome = WorkerOutcome::Crashed;
        r.code = hard::kExitRuntime;
        r.kind = "crash";
        if (WIFSIGNALED(wstatus)) {
            r.crashDetail =
                "signal " + std::to_string(WTERMSIG(wstatus));
        } else if (WIFEXITED(wstatus)) {
            r.crashDetail = "exit " +
                            std::to_string(WEXITSTATUS(wstatus)) +
                            " without payload";
        } else {
            r.crashDetail = "unknown child status";
        }
        r.error = "worker crashed (" + r.crashDetail + ")";
        return r;
    }

    const obs::json::Value &p = *payload;
    r.code = static_cast<int>(*code);
    if (const obs::json::Value *v = p.find("kind"))
        r.kind = v->asString();
    if (const obs::json::Value *v = p.find("error"))
        r.error = v->asString();
    if (const obs::json::Value *v = p.find("dump_path"))
        r.dumpPath = v->asString();
    if (const obs::json::Value *v = p.find("result"))
        r.result = v->asString();
    if (r.code == hard::kExitOk && !r.result.empty()) {
        r.outcome = WorkerOutcome::Success;
    } else if (r.kind == "transient") {
        r.outcome = WorkerOutcome::Transient;
    } else if (r.code == hard::kExitOk) {
        // Claimed success without a result document: treat as crash.
        r.outcome = WorkerOutcome::Crashed;
        r.code = hard::kExitRuntime;
        r.kind = "crash";
        r.crashDetail = "success payload without result";
        r.error = "worker crashed (" + r.crashDetail + ")";
    } else {
        r.outcome = WorkerOutcome::Failure;
    }
    return r;
}

} // namespace camo::server
