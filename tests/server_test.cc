/**
 * @file
 * In-process tests for the camosimd experiment service: the wire
 * protocol (framing + hostile inputs), the JobSpec model (strict
 * parsing, cache identity), the forked worker (crash isolation,
 * deadline, cancel, retry seed re-derivation), and the Service state
 * machine (cache, single-flight, shed, cancel, drain, reload,
 * exactly-one-terminal-state accounting).
 *
 * Everything socket-level and end-to-end lives in the chaos soak
 * (bench/server_soak.cc); these tests pin the layers underneath.
 */

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include <sys/socket.h>
#include <unistd.h>

#include "src/server/job.h"
#include "src/server/protocol.h"
#include "src/server/service.h"
#include "src/server/worker.h"
#include "src/sim/parallel.h"

using namespace camo;
using namespace camo::server;

namespace {

constexpr std::uint64_t kCycles = 20000;
constexpr std::uint64_t kWarmup = 1000;

obs::json::Value
smallConfig(const char *mitigation = "bdc")
{
    obs::json::Value cfg = obs::json::Value::makeObject();
    obs::json::Value w = obs::json::Value::makeArray();
    w.push(obs::json::Value("mcf"));
    w.push(obs::json::Value("astar"));
    cfg["workloads"] = std::move(w);
    cfg["mitigation"] = obs::json::Value(mitigation);
    return cfg;
}

JobSpec
smallSpec(std::uint64_t seed = 0)
{
    JobSpec spec;
    spec.config = smallConfig();
    spec.cycles = kCycles;
    spec.warmup = kWarmup;
    spec.seed = seed;
    return spec;
}

/** A spec whose forked attempt burns wall-clock until killed. */
JobSpec
longSpec(std::uint64_t seed)
{
    JobSpec spec = smallSpec(seed);
    spec.cycles = 2000000000ULL;
    return spec;
}

ServiceConfig
testServiceConfig(unsigned workers)
{
    ServiceConfig cfg;
    cfg.workers = workers;
    cfg.maxQueue = 64;
    cfg.defaultTimeoutMs = 60000;
    cfg.retry.baseDelayUs = 500;
    cfg.retry.maxDelayUs = 2000;
    return cfg;
}

JobStatus
waitDone(const Service &svc, std::uint64_t id)
{
    JobStatus s;
    EXPECT_TRUE(svc.waitTerminal(id, 120000, &s));
    EXPECT_TRUE(jobStateTerminal(s.state));
    return s;
}

} // namespace

// ------------------------------------------------------ protocol

TEST(Protocol, FrameRoundTripOverSocketpair)
{
    int fds[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    obs::json::Value doc = obs::json::Value::makeObject();
    doc["op"] = "stats";
    doc["n"] = std::uint64_t{42};
    ASSERT_TRUE(writeJson(fds[0], doc));
    const auto back = readJson(fds[1]);
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(back->dump(0), doc.dump(0));
    ::close(fds[0]);
    ::close(fds[1]);
}

TEST(Protocol, HeaderEncodingIsLittleEndianAndExact)
{
    std::string frame;
    encodeFrame("abc", &frame);
    ASSERT_EQ(frame.size(), kFrameHeaderBytes + 3);
    const auto *raw =
        reinterpret_cast<const unsigned char *>(frame.data());
    EXPECT_EQ(decodeFrameLength(raw), 3u);
    EXPECT_EQ(frame.substr(kFrameHeaderBytes), "abc");
}

TEST(Protocol, OversizeAndTruncatedFramesAreClassified)
{
    int fds[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    // Oversize header: refused before any allocation.
    const unsigned char huge[4] = {0xff, 0xff, 0xff, 0x7f};
    ASSERT_EQ(::send(fds[0], huge, sizeof huge, 0), 4);
    std::string payload;
    EXPECT_EQ(readFrame(fds[1], &payload), ReadStatus::Oversize);

    // Truncated body then EOF: an error, not a hang.
    const unsigned char hdr[4] = {100, 0, 0, 0};
    ASSERT_EQ(::send(fds[0], hdr, sizeof hdr, 0), 4);
    ASSERT_EQ(::send(fds[0], "abc", 3, 0), 3);
    ::close(fds[0]);
    EXPECT_EQ(readFrame(fds[1], &payload), ReadStatus::Error);
    ::close(fds[1]);
}

// ------------------------------------------------------- JobSpec

TEST(JobSpecModel, FromJsonIsStrict)
{
    obs::json::Value doc = obs::json::Value::makeObject();
    doc["config"] = smallConfig();
    doc["cycles"] = std::uint64_t{5000};
    JobSpec spec;
    std::string err;
    ASSERT_TRUE(JobSpec::fromJson(doc, &spec, &err)) << err;
    EXPECT_EQ(spec.cycles, 5000u);

    // Unknown keys are rejected: a typo must not silently run the
    // wrong experiment.
    doc["cylces"] = std::uint64_t{1};
    EXPECT_FALSE(JobSpec::fromJson(doc, &spec, &err));
    EXPECT_NE(err.find("cylces"), std::string::npos);

    // So is a knob no worker reads: setting it must fail loudly
    // instead of silently doing nothing.
    obs::json::Value dead = obs::json::Value::makeObject();
    dead["config"] = smallConfig();
    dead["shard_procs"] = std::uint64_t{2};
    EXPECT_FALSE(JobSpec::fromJson(dead, &spec, &err));
    EXPECT_EQ(err, "unknown job field 'shard_procs'");

    // Wrong types are rejected.
    obs::json::Value bad = obs::json::Value::makeObject();
    bad["config"] = smallConfig();
    bad["cycles"] = "many";
    EXPECT_FALSE(JobSpec::fromJson(bad, &spec, &err));

    // So are numbers that are not exact non-negative integers: a
    // fraction, and a seed 2^53 + 1 that would run as 2^53.
    bad["cycles"] = 1.5;
    EXPECT_FALSE(JobSpec::fromJson(bad, &spec, &err));
    bad["cycles"] = obs::json::parse("9007199254740993");
    EXPECT_FALSE(JobSpec::fromJson(bad, &spec, &err));

    // config is required.
    obs::json::Value empty = obs::json::Value::makeObject();
    EXPECT_FALSE(JobSpec::fromJson(empty, &spec, &err));
}

TEST(JobSpecModel, ToJsonRoundTrips)
{
    JobSpec spec = smallSpec(9);
    spec.watchdog = 12345;
    spec.checkers = true;
    spec.inject = "drop-resp:rate=0.001";
    spec.timeoutMs = 2500;
    JobSpec back;
    std::string err;
    ASSERT_TRUE(JobSpec::fromJson(spec.toJson(), &back, &err)) << err;
    EXPECT_EQ(back.cacheKey(), spec.cacheKey());
    EXPECT_EQ(back.timeoutMs, spec.timeoutMs);
    EXPECT_EQ(back.watchdog, spec.watchdog);
}

TEST(JobSpecModel, CacheKeyCoversExecutionAffectingFieldsOnly)
{
    const JobSpec a = smallSpec(1);
    JobSpec b = smallSpec(1);
    EXPECT_EQ(a.cacheKey(), b.cacheKey());

    // The deadline changes whether a result arrives, not its bytes.
    b.timeoutMs = 77;
    EXPECT_EQ(a.cacheKey(), b.cacheKey());

    // Everything execution-affecting must split the key.
    b = smallSpec(2);
    EXPECT_NE(a.cacheKey(), b.cacheKey());
    b = smallSpec(1);
    b.cycles = kCycles + 1;
    EXPECT_NE(a.cacheKey(), b.cacheKey());
    b = smallSpec(1);
    b.checkers = true;
    EXPECT_NE(a.cacheKey(), b.cacheKey());
    b = smallSpec(1);
    b.crashAttempts = 1; // changes which attempt succeeds => seed
    EXPECT_NE(a.cacheKey(), b.cacheKey());
}

// ------------------------------------------------------- worker

TEST(Worker, PayloadSuccessMatchesRetrySeedDerivation)
{
    const JobSpec spec = smallSpec(77);
    const obs::json::Value first = runJobPayload(spec, 1, 0, "");
    ASSERT_NE(first.find("result"), nullptr);
    EXPECT_EQ(first.find("code")->asNumber(), 0.0);

    // Attempt 2 must equal a fresh attempt-0 run whose seed is the
    // re-derived one — the contract the chaos soak checks end to end
    // against the camosim binary.
    const obs::json::Value retried = runJobPayload(spec, 1, 2, "");
    JobSpec reseeded = smallSpec(
        sim::deriveSeed(77, sim::kRetrySeedStream, 2));
    const obs::json::Value oneshot =
        runJobPayload(reseeded, 1, 0, "");
    EXPECT_EQ(retried.find("result")->asString(),
              oneshot.find("result")->asString());
    EXPECT_NE(retried.find("result")->asString(),
              first.find("result")->asString());
}

TEST(Worker, PayloadClassifiesTypedErrors)
{
    JobSpec bad = smallSpec();
    bad.config = obs::json::Value::makeObject();
    bad.config["no_such_key"] = std::uint64_t{1};
    const obs::json::Value cfg_err = runJobPayload(bad, 1, 0, "");
    EXPECT_EQ(cfg_err.find("code")->asNumber(), 3.0);
    EXPECT_EQ(cfg_err.find("kind")->asString(), "config");

    // A fault aimed at a core the machine lacks could never fire.
    JobSpec off_machine = smallSpec();
    off_machine.inject = "drop-resp:rate=0.1:core=7";
    const obs::json::Value core_err =
        runJobPayload(off_machine, 1, 0, "");
    EXPECT_EQ(core_err.find("code")->asNumber(), 3.0);
    EXPECT_EQ(core_err.find("kind")->asString(), "config");

    JobSpec invariant = smallSpec(3);
    invariant.checkers = true;
    invariant.inject = "corrupt-credits:at=1000";
    invariant.cycles = 40000;
    const obs::json::Value inv = runJobPayload(invariant, 1, 0, "");
    EXPECT_EQ(inv.find("code")->asNumber(), 4.0);

    JobSpec wedged = smallSpec(4);
    wedged.watchdog = 15000;
    wedged.inject = "wedge-req:at=1000";
    wedged.cycles = 60000;
    const obs::json::Value wd = runJobPayload(wedged, 1, 0, "");
    EXPECT_EQ(wd.find("code")->asNumber(), 5.0);
    EXPECT_EQ(wd.find("kind")->asString(), "watchdog");
}

TEST(Worker, ForkedCrashIsIsolatedAndClassified)
{
    JobSpec spec = smallSpec(5);
    spec.crashAttempts = 1; // attempt 0 takes a real SIGSEGV
    std::atomic<bool> cancel{false};
    const WorkerResult crashed =
        runJobForked(spec, 1, 0, 30000, "", &cancel, nullptr);
    EXPECT_EQ(crashed.outcome, WorkerOutcome::Crashed);
    // Plain builds die on the signal; sanitized builds intercept the
    // SEGV and _exit without a payload. Both classify as crashed.
    EXPECT_TRUE(crashed.crashDetail.find("signal") != std::string::npos ||
                crashed.crashDetail.find("without payload") !=
                    std::string::npos)
        << crashed.crashDetail;

    // The same spec on attempt 1 is past its crash budget: succeeds.
    const WorkerResult ok =
        runJobForked(spec, 1, 1, 30000, "", &cancel, nullptr);
    EXPECT_EQ(ok.outcome, WorkerOutcome::Success);
    EXPECT_FALSE(ok.result.empty());
}

TEST(Worker, ForkedDeadlineAndCancelKillTheChild)
{
    std::atomic<bool> cancel{false};
    const WorkerResult dl = runJobForked(longSpec(6), 2, 0, 200, "",
                                         &cancel, nullptr);
    EXPECT_EQ(dl.outcome, WorkerOutcome::Deadline);

    std::atomic<bool> cancelNow{false};
    std::thread flipper([&] {
        std::this_thread::sleep_for(std::chrono::milliseconds(100));
        cancelNow.store(true);
    });
    const WorkerResult cx = runJobForked(longSpec(7), 3, 0, 60000,
                                         "", &cancelNow, nullptr);
    flipper.join();
    EXPECT_EQ(cx.outcome, WorkerOutcome::Canceled);
}

TEST(Worker, TransientInjectionIsReportedAsTransient)
{
    JobSpec spec = smallSpec(8);
    spec.inject = "worker-kill:param=1";
    std::atomic<bool> cancel{false};
    const WorkerResult first =
        runJobForked(spec, 4, 0, 30000, "", &cancel, nullptr);
    EXPECT_EQ(first.outcome, WorkerOutcome::Transient);
    const WorkerResult second =
        runJobForked(spec, 4, 1, 30000, "", &cancel, nullptr);
    EXPECT_EQ(second.outcome, WorkerOutcome::Success);
}

// ------------------------------------------------------- service

TEST(ServiceStateMachine, SubmitRunsToSuccess)
{
    Service svc(testServiceConfig(2));
    const SubmitResult r = svc.submit(smallSpec(11));
    ASSERT_TRUE(r.accepted);
    const JobStatus s = waitDone(svc, r.id);
    EXPECT_EQ(s.state, JobState::Succeeded);
    EXPECT_EQ(s.code, 0);
    EXPECT_EQ(s.attempts, 1u);
    std::string text;
    ASSERT_TRUE(svc.result(r.id, &text));
    EXPECT_NE(text.find("\"mitigation\""), std::string::npos);
}

TEST(ServiceStateMachine, IdenticalResubmitIsServedFromCache)
{
    Service svc(testServiceConfig(2));
    const SubmitResult first = svc.submit(smallSpec(12));
    ASSERT_TRUE(first.accepted);
    waitDone(svc, first.id);
    std::string text1;
    ASSERT_TRUE(svc.result(first.id, &text1));

    const SubmitResult second = svc.submit(smallSpec(12));
    ASSERT_TRUE(second.accepted);
    const JobStatus s = waitDone(svc, second.id);
    EXPECT_EQ(s.state, JobState::Cached);
    EXPECT_TRUE(s.fromCache);
    std::string text2;
    ASSERT_TRUE(svc.result(second.id, &text2));
    EXPECT_EQ(text1, text2); // byte-identical, not just equivalent
}

TEST(ServiceStateMachine, DuplicateInFlightJoinsSingleFlight)
{
    // One worker, occupied by a deadline-bound blocker, so the
    // leader is still queued when its duplicate arrives.
    ServiceConfig cfg = testServiceConfig(1);
    Service svc(cfg);
    JobSpec blocker = longSpec(13);
    blocker.timeoutMs = 700;
    const SubmitResult b = svc.submit(blocker);
    ASSERT_TRUE(b.accepted);

    const SubmitResult leader = svc.submit(smallSpec(14));
    const SubmitResult joiner = svc.submit(smallSpec(14));
    ASSERT_TRUE(leader.accepted);
    ASSERT_TRUE(joiner.accepted);
    EXPECT_NE(leader.id, joiner.id);

    EXPECT_EQ(waitDone(svc, b.id).state, JobState::Deadline);
    EXPECT_EQ(waitDone(svc, leader.id).state, JobState::Succeeded);
    const JobStatus js = waitDone(svc, joiner.id);
    EXPECT_EQ(js.state, JobState::Cached);
    EXPECT_TRUE(js.fromCache);
    std::string lt, jt;
    ASSERT_TRUE(svc.result(leader.id, &lt));
    ASSERT_TRUE(svc.result(joiner.id, &jt));
    EXPECT_EQ(lt, jt);
}

TEST(ServiceStateMachine, FullQueueShedsExplicitly)
{
    ServiceConfig cfg = testServiceConfig(1);
    cfg.maxQueue = 1;
    Service svc(cfg);
    JobSpec blocker = longSpec(15);
    blocker.timeoutMs = 900;
    ASSERT_TRUE(svc.submit(blocker).accepted);
    // Give the worker a moment to pull the blocker off the queue.
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    ASSERT_TRUE(svc.submit(smallSpec(16)).accepted); // fills queue

    const SubmitResult shed = svc.submit(smallSpec(17));
    EXPECT_FALSE(shed.accepted);
    EXPECT_TRUE(shed.shed);
    EXPECT_NE(shed.error.find("shed"), std::string::npos);
    svc.drain();
}

TEST(ServiceStateMachine, QueuedJobsCancelImmediately)
{
    ServiceConfig cfg = testServiceConfig(1);
    Service svc(cfg);
    JobSpec blocker = longSpec(18);
    blocker.timeoutMs = 900;
    ASSERT_TRUE(svc.submit(blocker).accepted);
    const SubmitResult queued = svc.submit(smallSpec(19));
    ASSERT_TRUE(queued.accepted);
    EXPECT_TRUE(svc.cancel(queued.id));
    const JobStatus s = waitDone(svc, queued.id);
    EXPECT_EQ(s.state, JobState::Canceled);
    // A terminal job cannot be canceled again.
    EXPECT_FALSE(svc.cancel(queued.id));
    svc.drain();
}

TEST(ServiceStateMachine, CrashedJobsAreRetriedThenClassified)
{
    Service svc(testServiceConfig(2));
    JobSpec flaky = smallSpec(20);
    flaky.crashAttempts = 1;
    const SubmitResult fr = svc.submit(flaky);
    ASSERT_TRUE(fr.accepted);
    const JobStatus fs = waitDone(svc, fr.id);
    EXPECT_EQ(fs.state, JobState::Succeeded);
    EXPECT_EQ(fs.attempts, 2u);

    // The retried result is the one-shot result at the re-derived
    // seed, not the original seed's.
    std::string retried;
    ASSERT_TRUE(svc.result(fr.id, &retried));
    const obs::json::Value oneshot = runJobPayload(
        smallSpec(sim::deriveSeed(20, sim::kRetrySeedStream, 1)), 1,
        0, "");
    EXPECT_EQ(retried, oneshot.find("result")->asString());

    JobSpec doomed = smallSpec(21);
    doomed.crashAttempts = 99;
    const SubmitResult dr = svc.submit(doomed);
    ASSERT_TRUE(dr.accepted);
    const JobStatus ds = waitDone(svc, dr.id);
    EXPECT_EQ(ds.state, JobState::Crashed);
    EXPECT_EQ(ds.attempts, 3u);
    EXPECT_TRUE(ds.crashDetail.find("signal") != std::string::npos ||
                ds.crashDetail.find("without payload") !=
                    std::string::npos)
        << ds.crashDetail;
}

TEST(ServiceStateMachine, DrainStopsAdmissionAndCompletes)
{
    Service svc(testServiceConfig(2));
    const SubmitResult r = svc.submit(smallSpec(22));
    ASSERT_TRUE(r.accepted);
    svc.beginDrain();
    const SubmitResult rejected = svc.submit(smallSpec(23));
    EXPECT_FALSE(rejected.accepted);
    EXPECT_FALSE(rejected.shed); // drain is a reject, not a shed
    EXPECT_NE(rejected.error.find("drain"), std::string::npos);
    svc.drain();
    EXPECT_TRUE(svc.drained());
    EXPECT_TRUE(jobStateTerminal(waitDone(svc, r.id).state));
}

TEST(ServiceStateMachine, ReloadSwapsLimitsWithoutDroppingJobs)
{
    ServiceConfig cfg = testServiceConfig(2);
    Service svc(cfg);
    const SubmitResult r = svc.submit(smallSpec(24));
    ASSERT_TRUE(r.accepted);

    ServiceConfig next = cfg;
    next.maxQueue = 7;
    next.maxCacheEntries = 1;
    next.workers = 99; // documented as fixed: must be ignored
    svc.reload(next);
    EXPECT_EQ(svc.config().maxQueue, 7u);
    EXPECT_EQ(svc.config().maxCacheEntries, 1u);
    EXPECT_EQ(svc.config().workers, cfg.workers);

    const JobStatus s = waitDone(svc, r.id);
    EXPECT_EQ(s.state, JobState::Succeeded);
    const auto stats = svc.statsJson();
    EXPECT_EQ(stats.find("reloads")->asNumber(), 1.0);
}

TEST(ServiceStateMachine, TerminalRetentionEvictsOldestRecords)
{
    ServiceConfig cfg = testServiceConfig(2);
    cfg.maxTerminalJobs = 2;
    cfg.maxCacheEntries = 0; // every submit runs, no Cached dupes
    Service svc(cfg);
    std::vector<std::uint64_t> ids;
    for (int i = 0; i < 4; ++i) {
        const SubmitResult r = svc.submit(smallSpec(60 + i));
        ASSERT_TRUE(r.accepted);
        ids.push_back(r.id);
        waitDone(svc, r.id);
    }
    // Only the newest maxTerminalJobs records survive; evicted ids
    // report unknown, the survivors keep their results.
    JobStatus s;
    EXPECT_FALSE(svc.status(ids[0], &s));
    EXPECT_FALSE(svc.status(ids[1], &s));
    ASSERT_TRUE(svc.status(ids[3], &s));
    EXPECT_EQ(s.state, JobState::Succeeded);
    std::string text;
    EXPECT_TRUE(svc.result(ids[3], &text));
    EXPECT_FALSE(text.empty());
    // Cumulative accounting is not rewritten by eviction.
    const auto stats = svc.statsJson();
    double terminalSum = 0;
    for (const auto &[name, n] :
         stats.find("terminal")->asObject())
        terminalSum += n.asNumber();
    EXPECT_EQ(terminalSum, 4.0);
    EXPECT_EQ(stats.find("retained_jobs")->asNumber(), 2.0);
}

TEST(ServiceStateMachine, StatsAccountEveryJobExactlyOnce)
{
    Service svc(testServiceConfig(2));
    std::vector<std::uint64_t> ids;
    for (int i = 0; i < 6; ++i) {
        const SubmitResult r = svc.submit(smallSpec(30 + i % 3));
        ASSERT_TRUE(r.accepted);
        ids.push_back(r.id);
    }
    for (const std::uint64_t id : ids)
        waitDone(svc, id);
    const auto stats = svc.statsJson();
    double terminalSum = 0;
    for (const auto &[name, n] :
         stats.find("terminal")->asObject())
        terminalSum += n.asNumber();
    EXPECT_EQ(terminalSum, stats.find("submitted")->asNumber());
    EXPECT_EQ(stats.find("queue_depth")->asNumber(), 0.0);
    EXPECT_EQ(stats.find("running")->asNumber(), 0.0);
}
