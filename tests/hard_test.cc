/** @file Tests for the fail-secure hardening layer: fault injection,
 *  runtime invariant checkers, the deadlock watchdog, and structured
 *  recovery. The fault matrix at the bottom pins the layer's core
 *  guarantee: every injected fault is either detected (checker or
 *  watchdog, with a structured diagnostic) or survived via a
 *  documented recovery — never a silent wrong result, never a hang. */

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <fstream>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/camouflage/bin_config.h"
#include "src/common/rng.h"
#include "src/hard/checkers.h"
#include "src/hard/error.h"
#include "src/hard/fault_injection.h"
#include "src/hard/watchdog.h"
#include "src/security/mutual_information.h"
#include "src/sim/parallel.h"
#include "src/sim/plan.h"
#include "src/sim/presets.h"
#include "src/sim/runner.h"

namespace camo {
namespace {

using hard::CheckerConfig;
using hard::ConfigError;
using hard::FaultInjector;
using hard::FaultKind;
using hard::FaultPlan;
using hard::InvariantViolation;
using hard::WatchdogTimeout;

// ----------------------------------------------- BinConfig validation

TEST(Validation, RandomizedInvalidConfigsAllThrow)
{
    Rng rng(7);
    const auto base = shaper::BinConfig::desired();
    for (int trial = 0; trial < 200; ++trial) {
        shaper::BinConfig bad = base;
        switch (rng.below(5)) {
        case 0: { // non-monotone edges
            const std::size_t i = 1 + rng.below(bad.edges.size() - 1);
            bad.edges[i] = bad.edges[i - 1] - rng.below(2);
            break;
        }
        case 1: // first edge not zero
            bad.edges[0] = 1 + rng.below(100);
            break;
        case 2: // zero bins
            bad.edges.clear();
            bad.credits.clear();
            break;
        case 3: // credit register overflow
            bad.credits[rng.below(bad.credits.size())] =
                shaper::kMaxCreditsPerBin + 1 +
                static_cast<std::uint32_t>(rng.below(1000));
            break;
        default: // edge/credit count mismatch
            bad.credits.push_back(1);
            break;
        }
        EXPECT_THROW(bad.validate(), ConfigError) << bad.toString();
    }
}

TEST(Validation, DrainExceedingPeriodThrowsOnlyUnderDrainable)
{
    Rng rng(11);
    for (int trial = 0; trial < 50; ++trial) {
        // All credits in one far bin: draining costs credits * edge
        // cycles, made to overshoot the period.
        shaper::BinConfig cfg;
        cfg.edges = {0, 1000 + rng.below(1000)};
        cfg.credits = {0,
                       20 + static_cast<std::uint32_t>(rng.below(100))};
        cfg.replenishPeriod = 1 + rng.below(cfg.edges[1]);
        ASSERT_GT(cfg.minDrainCycles(), cfg.replenishPeriod);
        cfg.validate(shaper::ValidatePolicy::Basic); // structural: fine
        EXPECT_THROW(cfg.validate(shaper::ValidatePolicy::Drainable),
                     ConfigError);
    }
}

TEST(Validation, ErrorMessageNamesTheOffendingValue)
{
    shaper::BinConfig bad = shaper::BinConfig::desired();
    bad.credits[3] = 4242;
    try {
        bad.validate();
        FAIL() << "expected ConfigError";
    } catch (const ConfigError &e) {
        EXPECT_NE(std::string(e.what()).find("4242"),
                  std::string::npos)
            << e.what();
    }
}

// ----------------------------------------------- fail-secure schedule

TEST(FailSecure, MostConservativeScheduleSameShape)
{
    const auto from = shaper::BinConfig::desired();
    const auto fs = shaper::BinConfig::failSecure(from);
    // reconfigure() cannot change the hardware bin count.
    EXPECT_EQ(fs.edges, from.edges);
    EXPECT_EQ(fs.replenishPeriod, from.replenishPeriod);
    fs.validate(shaper::ValidatePolicy::Drainable);
    // All budget in the largest-gap bin; nothing anywhere else.
    for (std::size_t i = 0; i + 1 < fs.credits.size(); ++i)
        EXPECT_EQ(fs.credits[i], 0u);
    EXPECT_GE(fs.credits.back(), 1u);
    // Strictly stall-only: never a higher ceiling than the original.
    EXPECT_LE(fs.maxRate(), from.maxRate());
}

TEST(FailSecure, DrainableForAdversarialInputs)
{
    Rng rng(13);
    for (int trial = 0; trial < 100; ++trial) {
        std::vector<std::uint32_t> credits(10);
        for (auto &c : credits)
            c = static_cast<std::uint32_t>(rng.below(1024));
        if (credits == std::vector<std::uint32_t>(10, 0u))
            credits[0] = 1;
        const auto from = shaper::BinConfig::geometric(
            credits, 5 + rng.below(50), 1.2 + rng.uniform(),
            100 + rng.below(100000));
        const auto fs = shaper::BinConfig::failSecure(from);
        fs.validate();
        // Drainable whenever the bin set allows it at all; when the
        // largest edge exceeds the period even one credit cannot
        // drain, and the budget bottoms out at the minimum of 1.
        if (fs.edges.back() <= fs.replenishPeriod)
            EXPECT_LE(fs.minDrainCycles(), fs.replenishPeriod)
                << from.toString();
        else
            EXPECT_EQ(fs.totalCredits(), 1u) << from.toString();
    }
}

// ----------------------------------------------- fault plan parsing

TEST(FaultPlanParse, RoundTripAndValidation)
{
    const auto plan = FaultPlan::parse(
        "drop-resp:rate=0.001,corrupt-credits:at=80000:core=0,"
        "worker-kill:index=2:param=3",
        42);
    ASSERT_EQ(plan.faults.size(), 3u);
    EXPECT_EQ(plan.faults[0].kind, FaultKind::DropResponse);
    EXPECT_DOUBLE_EQ(plan.faults[0].rate, 0.001);
    EXPECT_EQ(plan.faults[1].kind, FaultKind::CorruptCredits);
    EXPECT_EQ(plan.faults[1].at, 80000u);
    EXPECT_EQ(plan.faults[1].core, 0u);
    EXPECT_EQ(plan.faults[2].index, 2u);
    EXPECT_EQ(plan.faults[2].param, 3u);

    EXPECT_THROW(FaultPlan::parse("no-such-kind:at=5", 1), ConfigError);
    EXPECT_THROW(FaultPlan::parse("drop-resp:bogus=1", 1), ConfigError);
    EXPECT_THROW(FaultPlan::parse("drop-resp:rate=x", 1), ConfigError);
    // Stochastic faults need a trigger; worker faults reject cycles.
    EXPECT_THROW(FaultPlan::parse("drop-resp", 1), ConfigError);
    EXPECT_THROW(FaultPlan::parse("worker-kill:at=100", 1),
                 ConfigError);
}

// ----------------------------------------------- protocol checker

dram::DramOrganization
smallOrg()
{
    dram::DramOrganization org;
    org.banksPerRank = 8;
    return org;
}

TEST(ProtocolChecker, AcceptsLegalSequence)
{
    const dram::DramTiming t;
    hard::DramProtocolChecker ck(smallOrg(), t);
    dram::DramAddress a;
    a.bank = 0;
    a.row = 7;
    std::uint64_t now = 100;
    ck.onCommand(dram::Cmd::ACT, a, now);
    ck.onCommand(dram::Cmd::RD, a, now + t.tRCD);
    ck.onCommand(dram::Cmd::PRE, a, now + t.tRAS);
    ck.onCommand(dram::Cmd::ACT, a, now + t.tRC);
    EXPECT_EQ(ck.commandsChecked(), 4u);
}

TEST(ProtocolChecker, CatchesIllegalCommands)
{
    const dram::DramTiming t;
    dram::DramAddress a;
    a.bank = 0;
    a.row = 7;

    { // RD on a closed bank
        hard::DramProtocolChecker ck(smallOrg(), t);
        EXPECT_THROW(ck.onCommand(dram::Cmd::RD, a, 10),
                     InvariantViolation);
    }
    { // RD before tRCD
        hard::DramProtocolChecker ck(smallOrg(), t);
        ck.onCommand(dram::Cmd::ACT, a, 100);
        EXPECT_THROW(ck.onCommand(dram::Cmd::RD, a, 100 + t.tRCD - 1),
                     InvariantViolation);
    }
    { // RD to the wrong row
        hard::DramProtocolChecker ck(smallOrg(), t);
        ck.onCommand(dram::Cmd::ACT, a, 100);
        dram::DramAddress other = a;
        other.row = 9;
        EXPECT_THROW(
            ck.onCommand(dram::Cmd::RD, other, 100 + t.tRCD),
            InvariantViolation);
    }
    { // ACT on an already-open bank
        hard::DramProtocolChecker ck(smallOrg(), t);
        ck.onCommand(dram::Cmd::ACT, a, 100);
        EXPECT_THROW(ck.onCommand(dram::Cmd::ACT, a, 200),
                     InvariantViolation);
    }
    { // PRE before tRAS
        hard::DramProtocolChecker ck(smallOrg(), t);
        ck.onCommand(dram::Cmd::ACT, a, 100);
        EXPECT_THROW(ck.onCommand(dram::Cmd::PRE, a, 100 + t.tRAS - 1),
                     InvariantViolation);
    }
    { // ACT-to-ACT on sibling banks inside tRRD
        hard::DramProtocolChecker ck(smallOrg(), t);
        ck.onCommand(dram::Cmd::ACT, a, 100);
        dram::DramAddress b = a;
        b.bank = 1;
        EXPECT_THROW(ck.onCommand(dram::Cmd::ACT, b, 100 + t.tRRD - 1),
                     InvariantViolation);
    }
    { // a fifth ACT inside the tFAW window
        hard::DramProtocolChecker ck(smallOrg(), t);
        dram::DramAddress b = a;
        std::uint64_t now = 100;
        for (std::uint32_t i = 0; i < 4; ++i) {
            b.bank = i;
            ck.onCommand(dram::Cmd::ACT, b, now + i * t.tRRD);
        }
        b.bank = 4;
        ASSERT_LT(3 * t.tRRD + t.tRRD, t.tFAW);
        EXPECT_THROW(
            ck.onCommand(dram::Cmd::ACT, b, now + 4 * t.tRRD),
            InvariantViolation);
    }
    { // REF with a bank still open
        hard::DramProtocolChecker ck(smallOrg(), t);
        ck.onCommand(dram::Cmd::ACT, a, 100);
        EXPECT_THROW(ck.onCommand(dram::Cmd::REF, a, 200),
                     InvariantViolation);
    }
}

// ----------------------------------------------- lifecycle tracker

TEST(Lifecycle, IssuedExactlyOnceRetired)
{
    hard::RequestLifecycleTracker lt;
    lt.onIssue(1, 0, 100);
    lt.onIssue(2, 0, 110);
    EXPECT_EQ(lt.inFlight(), 2u);
    lt.onRetire(1, 0, 300);
    EXPECT_EQ(lt.inFlight(), 1u);
    EXPECT_EQ(lt.issued(), 2u);
    EXPECT_EQ(lt.retired(), 1u);

    // Same id issued twice while in flight.
    EXPECT_THROW(lt.onIssue(2, 0, 120), InvariantViolation);
    // Retiring a request that was never issued.
    EXPECT_THROW(lt.onRetire(99, 0, 130), InvariantViolation);
    // A duplicate response: second retire of the same id.
    EXPECT_THROW(lt.onRetire(1, 0, 310), InvariantViolation);
}

TEST(Lifecycle, LeakedReportsOnlyOldRequests)
{
    hard::RequestLifecycleTracker lt;
    lt.onIssue(1, 0, 100);
    lt.onIssue(2, 1, 90000);
    const auto leaks = lt.leaked(100000, 50000);
    ASSERT_EQ(leaks.size(), 1u);
    EXPECT_EQ(leaks[0].id, 1u);
    EXPECT_EQ(leaks[0].core, 0u);
    EXPECT_EQ(leaks[0].issuedAt, 100u);
}

// ----------------------------------------------- conservation checker

hard::ShaperContract
contract100()
{
    hard::ShaperContract c;
    c.edges = {0, 100};
    c.credits = {0, 5};
    c.replenishPeriod = 10000;
    return c;
}

TEST(Conservation, ReleasedTrafficInCreditedBinPasses)
{
    hard::ShaperConservationChecker ck;
    ck.setContract(0, contract100());
    Cycle now = 1000;
    for (int i = 0; i < 5; ++i, now += 150) {
        ck.onShaperRelease(0, now);
        EXPECT_EQ(ck.onBusPush(0, now, false, true), "");
    }
    EXPECT_EQ(ck.releasesSeen(0), 5u);
}

TEST(Conservation, BypassAndFakeWhileDisabledAreViolations)
{
    hard::ShaperConservationChecker ck;
    ck.setContract(0, contract100());
    // Push without a matching release: shaper bypass.
    EXPECT_NE(ck.onBusPush(0, 1000, false, true), "");
    // The checker resyncs after reporting, so legal traffic after the
    // violation is clean again (one leak reports once).
    ck.onShaperRelease(0, 1200);
    EXPECT_EQ(ck.onBusPush(0, 1200, false, true), "");
    // A fake while fake generation is disabled.
    ck.onShaperRelease(0, 1400);
    EXPECT_NE(ck.onBusPush(0, 1400, true, false), "");
}

TEST(Conservation, GapOutsideEveryCreditedBinIsAViolation)
{
    hard::ShaperConservationChecker ck;
    ck.setContract(0, contract100()); // credits only at gap >= 100
    ck.onShaperRelease(0, 1000);
    EXPECT_EQ(ck.onBusPush(0, 1000, false, true), ""); // first push
    ck.onShaperRelease(0, 1050);
    // Gap of 50: no credited bin admits it.
    EXPECT_NE(ck.onBusPush(0, 1050, false, true), "");
}

TEST(Conservation, LiveCreditsAboveProgrammedAreAViolation)
{
    hard::ShaperConservationChecker ck;
    ck.setContract(0, contract100());
    EXPECT_EQ(ck.onCreditState(0, {0, 5}), "");
    EXPECT_EQ(ck.onCreditState(0, {0, 3}), "");
    EXPECT_NE(ck.onCreditState(0, {0, 6}), "");
    EXPECT_NE(ck.onCreditState(0, {1, 5}), "");
}

TEST(Conservation, PerPeriodBudgetIsEnforced)
{
    hard::ShaperConservationChecker ck;
    hard::ShaperContract c;
    c.edges = {0, 100};
    c.credits = {5, 0}; // 1-cycle gaps are credited; budget is 5
    c.replenishPeriod = 100000;
    ck.setContract(0, c);
    // The budget window tolerates 2 * total + 8 pushes (period
    // boundary phase is unknown to the checker); one more must trip.
    Cycle now = 1000;
    std::string msg;
    for (std::uint64_t i = 0; i <= 2 * c.totalCredits() + 8; ++i) {
        ck.onShaperRelease(0, now);
        msg = ck.onBusPush(0, now, false, true);
        if (!msg.empty())
            break;
        now += 1;
    }
    EXPECT_NE(msg, "");
}

// ----------------------------------------------- watchdog

TEST(Watchdog, QuietWhileProgressFlows)
{
    hard::WatchdogConfig cfg;
    cfg.window = 1000;
    cfg.pollPeriod = 100;
    hard::Watchdog wd(cfg);
    std::uint64_t work = 0;
    for (Cycle now = 0; now < 10000; now += 100) {
        const auto fired =
            wd.poll(now, {{++work, true}}, now + 10);
        EXPECT_FALSE(fired.has_value());
    }
}

TEST(Watchdog, FiresOnStalledPendingCore)
{
    hard::WatchdogConfig cfg;
    cfg.window = 1000;
    cfg.pollPeriod = 100;
    hard::Watchdog wd(cfg);
    bool fired = false;
    for (Cycle now = 0; now <= 5000 && !fired; now += 100)
        fired = wd.poll(now, {{42, true}}, now + 10).has_value();
    EXPECT_TRUE(fired);
}

TEST(Watchdog, IdleCoreWithNoPendingWorkNeverFires)
{
    hard::WatchdogConfig cfg;
    cfg.window = 1000;
    cfg.pollPeriod = 100;
    hard::Watchdog wd(cfg);
    for (Cycle now = 0; now <= 20000; now += 100)
        EXPECT_FALSE(
            wd.poll(now, {{42, false}}, now + 10).has_value());
}

TEST(Watchdog, NoEventWithPendingWorkIsAnImmediateDeadlock)
{
    hard::WatchdogConfig cfg;
    cfg.window = 1000000; // staleness alone would take a million cycles
    hard::Watchdog wd(cfg);
    const auto fired = wd.poll(10, {{0, true}}, kNoCycle);
    ASSERT_TRUE(fired.has_value());
    EXPECT_NE(fired->find("deadlock"), std::string::npos);
}

// ----------------------------------------------- parallel retry

TEST(ParallelRetry, TransientFaultsAreRetriedOthersPropagate)
{
    // Job 3 fails transiently twice; with 3 attempts it completes.
    std::atomic<int> calls{0};
    auto out = sim::parallelMapRetry(
        8, 2, 3, [&](std::size_t i, unsigned attempt) -> int {
            ++calls;
            if (i == 3 && attempt < 2)
                throw hard::TransientFault("flaky");
            return static_cast<int>(i * 10 + attempt);
        });
    EXPECT_EQ(out[3], 32); // succeeded on attempt 2
    EXPECT_EQ(out[4], 40);
    EXPECT_EQ(calls.load(), 8 + 2);

    // Attempts exhausted: the TransientFault becomes permanent.
    EXPECT_THROW(sim::parallelMapRetry(
                     4, 2, 2,
                     [&](std::size_t i, unsigned) -> int {
                         if (i == 1)
                             throw hard::TransientFault("always");
                         return 0;
                     }),
                 hard::TransientFault);

    // Non-transient errors are never retried.
    std::atomic<int> hard_calls{0};
    EXPECT_THROW(sim::parallelMapRetry(
                     1, 1, 5,
                     [&](std::size_t, unsigned) -> int {
                         ++hard_calls;
                         throw InvariantViolation("real bug");
                     }),
                 InvariantViolation);
    EXPECT_EQ(hard_calls.load(), 1);
}

// ----------------------------------------------- system integration

sim::SystemConfig
twoCoreBdc()
{
    sim::SystemConfig cfg = sim::paperConfig();
    cfg.numCores = 2;
    cfg.mitigation = sim::Mitigation::BDC;
    return cfg;
}

/** A system with checkers/watchdog armed and diagnostics silenced
 *  (the tests assert on the exceptions, not the stderr dump). */
std::unique_ptr<sim::System>
makeHardened(const sim::SystemConfig &cfg, FaultInjector *injector,
             bool checkers, Cycle watchdog_window)
{
    auto sys = std::make_unique<sim::System>(sim::SystemPlan(
        cfg, std::vector<std::string>{"mcf", "astar"}));
    sys->setDiagnosticStream(nullptr);
    if (checkers)
        sys->enableCheckers(CheckerConfig{});
    if (watchdog_window > 0) {
        hard::WatchdogConfig wc;
        wc.window = watchdog_window;
        sys->enableWatchdog(wc);
    }
    if (injector)
        sys->setFaultInjector(injector);
    return sys;
}

TEST(SystemHardening, CheckersAreBitExactOnCleanRuns)
{
    const Cycle cycles = 200000;
    sim::SystemConfig cfg = twoCoreBdc();

    sim::System plain(sim::SystemPlan(cfg, {"mcf", "astar"}));
    plain.run(cycles);

    auto hardened = makeHardened(cfg, nullptr, true, 1000000);
    hardened->run(cycles);
    EXPECT_NO_THROW(hardened->checkForLeaks());

    ASSERT_EQ(plain.now(), hardened->now());
    for (std::uint32_t c = 0; c < cfg.numCores; ++c) {
        EXPECT_EQ(plain.servedReads(c), hardened->servedReads(c));
        EXPECT_EQ(plain.coreAt(c).retired(), hardened->coreAt(c).retired());
        EXPECT_EQ(plain.busMonitor(c).count(),
                  hardened->busMonitor(c).count());
        EXPECT_EQ(plain.intrinsicMonitor(c).count(),
                  hardened->intrinsicMonitor(c).count());
    }
    // The checkers actually looked at the run.
    EXPECT_GT(hardened->checkers()->lifecycle().issued(), 0u);
}

TEST(SystemHardening, CreditAuditCatchesBetweenRunWriteOnBothLoops)
{
    // A live credit register corrupted between runs, with no fault
    // injector to wake anything: the end-of-cycle credit audit must
    // catch it on the next cycle under the event kernel exactly as
    // it does under the per-cycle oracle.
    auto audit = [](bool kernel) {
        sim::SystemConfig cfg = twoCoreBdc();
        cfg.fastForward = kernel;
        auto sys = makeHardened(cfg, nullptr, true, 0);
        sys->run(5000);
        sys->requestShaper(0)->binsMut().injectLiveCredits(
            2 * shaper::kMaxCreditsPerBin);
        try {
            sys->run(20000);
        } catch (const InvariantViolation &e) {
            return std::make_pair(sys->now(), std::string(e.what()));
        }
        return std::make_pair(sys->now(), std::string("no violation"));
    };
    const auto oracle = audit(false);
    EXPECT_EQ(oracle.first, 5001u);
    EXPECT_NE(oracle.second.find("live credit register"),
              std::string::npos)
        << oracle.second;
    EXPECT_EQ(audit(true), oracle);
}

TEST(SystemHardening, CreditAuditSleepsWithoutCreditWrites)
{
    // Fault-free and conservation-checked: after the first audit
    // passes, nothing writes a credit register (replenishments reload
    // the audited programmed credits, consumption only decrements), so
    // under the event kernel the audit station must not tick every
    // cycle the way a poll would.
    auto sys = makeHardened(twoCoreBdc(), nullptr, true, 0);
    obs::Profiler prof;
    sys->setProfiler(&prof);
    const Cycle cycles = 200000;
    sys->run(cycles);
    const obs::Profiler::NodeId node = prof.child(
        prof.child(prof.root(), "tick"), "station.creditcheck");
    const std::uint64_t audits = prof.node(node).calls;
    EXPECT_GE(audits, 1u); // the construction-time registers
    EXPECT_LT(audits * 1000, cycles) << audits << " audits";
    EXPECT_EQ(sys->stats().counter("hard.shaper_violations"), 0u);
}

TEST(SystemHardening, DiagnosticJsonIsStructured)
{
    auto sys = makeHardened(twoCoreBdc(), nullptr, true, 0);
    sys->run(50000);
    const std::string dump = sys->diagnosticJson("unit-test").dump(2);
    EXPECT_NE(dump.find("\"reason\""), std::string::npos);
    EXPECT_NE(dump.find("unit-test"), std::string::npos);
    EXPECT_NE(dump.find("\"queues\""), std::string::npos);
    EXPECT_NE(dump.find("\"stats\""), std::string::npos);
    EXPECT_NE(dump.find("\"cycle\""), std::string::npos);
}

// --------------------------- the fault matrix (>= 10 fault kinds) ---

TEST(FaultMatrix, DroppedResponseIsReportedAsALeak)
{
    FaultInjector inj(FaultPlan::parse("drop-resp:rate=0.01", 9));
    auto sys = makeHardened(twoCoreBdc(), &inj, true, 0);
    sys->run(350000);
    ASSERT_GT(inj.count(FaultKind::DropResponse), 0u);
    EXPECT_THROW(sys->checkForLeaks(), InvariantViolation);
}

TEST(FaultMatrix, DelayedResponsesAreSurvived)
{
    FaultInjector inj(
        FaultPlan::parse("delay-resp:rate=0.01:param=40", 9));
    auto sys = makeHardened(twoCoreBdc(), &inj, true, 500000);
    sys->run(350000);
    ASSERT_GT(inj.count(FaultKind::DelayResponse), 0u);
    // Held responses are eventually delivered: no leak, no deadlock.
    EXPECT_NO_THROW(sys->checkForLeaks());
    EXPECT_GT(sys->servedReads(0), 0u);
}

TEST(FaultMatrix, DuplicateResponseIsCaughtAtDelivery)
{
    FaultInjector inj(FaultPlan::parse("dup-resp:rate=0.01", 9));
    auto sys = makeHardened(twoCoreBdc(), &inj, true, 0);
    EXPECT_THROW(sys->run(350000), InvariantViolation);
    EXPECT_GT(inj.count(FaultKind::DuplicateResponse), 0u);
}

TEST(FaultMatrix, CorruptedCreditsTripTheConservationChecker)
{
    FaultInjector inj(
        FaultPlan::parse("corrupt-credits:at=60000:core=0", 9));
    auto sys = makeHardened(twoCoreBdc(), &inj, true, 0);
    EXPECT_THROW(sys->run(200000), InvariantViolation);
}

TEST(FaultMatrix, CorruptedCreditsDegradeUnderRecoverPolicy)
{
    FaultInjector inj(
        FaultPlan::parse("corrupt-credits:at=60000:core=0", 9));
    sim::System sys(sim::SystemPlan(twoCoreBdc(), {"mcf", "astar"}));
    sys.setDiagnosticStream(nullptr);
    CheckerConfig cc;
    cc.recoverShaper = true;
    sys.enableCheckers(cc);
    sys.setFaultInjector(&inj);
    sys.run(300000); // survives
    EXPECT_TRUE(sys.shaperDegraded(0));
    EXPECT_FALSE(sys.shaperDegraded(1));
    EXPECT_EQ(sys.stats().counter("hard.shaper_degraded"), 1u);
    // Degraded is stall-only: the core still makes forward progress.
    EXPECT_GT(sys.servedReads(0), 0u);
    EXPECT_NO_THROW(sys.checkForLeaks());
}

TEST(FaultMatrix, StarvedCreditsAreAnImmediateDeadlock)
{
    // Starvation kills the shaper's next-event bound; without the
    // watchdog the fast-forward loop would skip silently to the end
    // of the run — the watchdog turns that into a diagnosed failure.
    FaultInjector inj(
        FaultPlan::parse("starve-credits:at=60000:core=0", 9));
    auto sys = makeHardened(twoCoreBdc(), &inj, false, 100000);
    EXPECT_THROW(sys->run(500000), WatchdogTimeout);
}

TEST(FaultMatrix, WatchdogFiresAtTheSameCycleOnBothLoops)
{
    // The kernel schedules the watchdog's next poll as an event and
    // both loops pass the graph's bound fold, so a wedged shaper and
    // starved credits are diagnosed at the same cycle with the same
    // dump under the event kernel and the per-cycle oracle.
    struct Fired
    {
        Cycle at = 0;
        std::string what;
        std::string dump;
        bool operator==(const Fired &) const = default;
    };
    auto fire = [](const char *spec, bool kernel) {
        sim::SystemConfig cfg = twoCoreBdc();
        cfg.fastForward = kernel;
        FaultInjector inj(FaultPlan::parse(spec, 9));
        auto sys = makeHardened(cfg, &inj, false, 100000);
        try {
            sys->run(500000);
        } catch (const WatchdogTimeout &e) {
            return Fired{sys->now(), e.what(), e.diagnostic()};
        }
        return Fired{sys->now(), "no timeout", ""};
    };
    for (const char *spec : {"wedge-req:at=60000:core=0",
                             "starve-credits:at=60000:core=0"}) {
        SCOPED_TRACE(spec);
        const Fired oracle = fire(spec, false);
        EXPECT_LT(oracle.at, 500000u);
        EXPECT_FALSE(oracle.dump.empty());
        const Fired kernel = fire(spec, true);
        EXPECT_EQ(kernel.at, oracle.at);
        EXPECT_EQ(kernel.what, oracle.what);
        EXPECT_EQ(kernel.dump, oracle.dump);
    }
}

TEST(FaultMatrix, MalformedConfigImageIsRejectedAndSurvived)
{
    FaultInjector inj(
        FaultPlan::parse("malformed-config:at=60000:core=0", 9));
    auto sys = makeHardened(twoCoreBdc(), &inj, true, 500000);
    sys->run(250000);
    EXPECT_EQ(inj.count(FaultKind::MalformedConfig), 1u);
    // decodeConfig validated the corrupted image and threw instead of
    // programming garbage; the run continued on the old schedule.
    EXPECT_GE(sys->stats().counter("hard.config_rejected"), 1u);
    EXPECT_EQ(sys->stats().counter("hard.config_accepted_malformed"),
              0u);
    EXPECT_NO_THROW(sys->checkForLeaks());
}

TEST(FaultMatrix, WedgedRequestShaperTripsTheWatchdog)
{
    FaultInjector inj(FaultPlan::parse("wedge-req:at=60000:core=0", 9));
    auto sys = makeHardened(twoCoreBdc(), &inj, false, 100000);
    EXPECT_THROW(sys->run(500000), WatchdogTimeout);
}

TEST(FaultMatrix, WedgedResponseShaperTripsTheWatchdog)
{
    FaultInjector inj(
        FaultPlan::parse("wedge-resp:at=60000:core=0", 9));
    auto sys = makeHardened(twoCoreBdc(), &inj, false, 100000);
    EXPECT_THROW(sys->run(500000), WatchdogTimeout);
}

TEST(FaultMatrix, ShaperBypassTripsTheConservationChecker)
{
    FaultInjector inj(FaultPlan::parse("leak-req:at=60000:core=0", 9));
    auto sys = makeHardened(twoCoreBdc(), &inj, true, 0);
    EXPECT_THROW(sys->run(300000), InvariantViolation);
    EXPECT_EQ(inj.count(FaultKind::LeakRequest), 1u);
}

TEST(FaultMatrix, OffScheduleFakeTripsTheConservationChecker)
{
    sim::SystemConfig cfg = twoCoreBdc();
    cfg.fakeTraffic = false; // any fake on the bus is now illegal
    FaultInjector inj(
        FaultPlan::parse("force-fake:at=60000:core=0", 9));
    auto sys = std::make_unique<sim::System>(sim::SystemPlan(
        cfg, std::vector<std::string>{"mcf", "astar"}));
    sys->setDiagnosticStream(nullptr);
    sys->enableCheckers(CheckerConfig{});
    sys->setFaultInjector(&inj);
    EXPECT_THROW(sys->run(300000), InvariantViolation);
    EXPECT_EQ(inj.count(FaultKind::ForceFake), 1u);
}

TEST(FaultMatrix, TransientWorkerDeathIsRetried)
{
    sim::SystemConfig cfg = twoCoreBdc();
    cfg.numCores = 2;
    std::vector<sim::SimJob> batch;
    for (int k = 0; k < 4; ++k) {
        sim::SystemConfig c = cfg;
        c.seed = 100 + k;
        batch.push_back({c, {"mcf", "astar"}, 60000, 5000});
    }
    FaultInjector inj(
        FaultPlan::parse("worker-kill:index=1:param=1", 9));
    const auto runs = sim::runConfigsParallel(batch, 2, &inj);
    ASSERT_EQ(runs.size(), 4u);
    EXPECT_EQ(inj.count(FaultKind::WorkerKill), 1u);
    for (const auto &r : runs)
        EXPECT_GT(r.throughput(), 0.0);

    // Attempts exhausted: the failure surfaces instead of hanging.
    FaultInjector fatal(
        FaultPlan::parse("worker-kill:index=1:param=10", 9));
    EXPECT_THROW(sim::runConfigsParallel(batch, 2, &fatal),
                 hard::TransientFault);
}

TEST(FaultMatrix, StalledWorkerFinishesWithIdenticalResults)
{
    sim::SystemConfig cfg = twoCoreBdc();
    std::vector<sim::SimJob> batch;
    for (int k = 0; k < 3; ++k) {
        sim::SystemConfig c = cfg;
        c.seed = 200 + k;
        batch.push_back({c, {"mcf", "astar"}, 60000, 5000});
    }
    const auto baseline = sim::runConfigsParallel(batch, 2);
    FaultInjector inj(
        FaultPlan::parse("worker-stall:index=0:param=5", 9));
    const auto stalled = sim::runConfigsParallel(batch, 2, &inj);
    EXPECT_EQ(inj.count(FaultKind::WorkerStall), 1u);
    // A stall is pure latency: attempt 0 completes, so the results
    // are byte-identical to the unfaulted batch.
    ASSERT_EQ(stalled.size(), baseline.size());
    for (std::size_t i = 0; i < baseline.size(); ++i)
        EXPECT_DOUBLE_EQ(stalled[i].throughput(),
                         baseline[i].throughput());
}

// ------------------------------- degradation leaks no more ----------

TEST(FailSecure, DegradedScheduleLeaksNoMoreThanDesired)
{
    const auto mix = sim::adversaryMix("mcf", "bzip");
    const auto quantizer = security::makeMiQuantizer(16, 8, 1.7);

    sim::SystemConfig base = sim::paperConfig();
    base.recordTraffic = true;
    sim::System unshaped(sim::SystemPlan(base, mix));
    unshaped.run(300000);

    auto shapedMi = [&](const shaper::BinConfig &bins) {
        sim::SystemConfig cfg = sim::paperConfig();
        cfg.mitigation = sim::Mitigation::ReqC;
        cfg.recordTraffic = true;
        cfg.shapeCore = {false, true, true, true};
        cfg.reqBins = bins;
        sim::System shaped(sim::SystemPlan(cfg, mix));
        shaped.run(600000);
        return security::computeShapingMi(
            unshaped.intrinsicMonitor(1).events(),
            shaped.requestShaper(1)->postMonitor().events(),
            quantizer);
    };

    const auto desired = shapedMi(shaper::BinConfig::desired());
    const auto degraded = shapedMi(
        shaper::BinConfig::failSecure(shaper::BinConfig::desired()));
    // The fail-secure guarantee: degradation never widens the timing
    // channel relative to the schedule it replaces.
    EXPECT_LE(degraded.miBits, desired.miBits + 0.02)
        << "desired=" << desired.miBits
        << " degraded=" << degraded.miBits;
}

// ------------------------------- parse diagnostics ------------------

TEST(FaultPlanParse, ErrorsCarryTokenAndByteOffset)
{
    // A bad --inject in a long spec must say which token broke and
    // where, so the user fixes the spec instead of bisecting it.
    auto messageOf = [](const std::string &spec) -> std::string {
        try {
            FaultPlan::parse(spec, 1);
        } catch (const ConfigError &e) {
            return e.what();
        }
        return "";
    };

    const std::string unknownKind =
        messageOf("drop-resp:rate=0.001,no-such:at=5");
    EXPECT_NE(unknownKind.find("'no-such'"), std::string::npos)
        << unknownKind;
    EXPECT_NE(unknownKind.find("at byte 21"), std::string::npos)
        << unknownKind;

    const std::string badValue = messageOf("drop-resp:rate=x");
    EXPECT_NE(badValue.find("'rate=x'"), std::string::npos)
        << badValue;
    EXPECT_NE(badValue.find("at byte 10"), std::string::npos)
        << badValue;

    const std::string emptyEntry =
        messageOf("worker-kill:param=1,,drop-resp:rate=0.1");
    EXPECT_NE(emptyEntry.find("at byte 20"), std::string::npos)
        << emptyEntry;
}

// ------------------------------- retry policy -----------------------

TEST(RetryPolicy, ScheduleIsPureBoundedAndJittered)
{
    hard::RetryPolicy p;
    p.baseDelayUs = 1000;
    p.maxDelayUs = 8000;
    p.jitter = 0.5;

    // Attempt 0 is the initial run: never delayed.
    EXPECT_EQ(p.delayUsFor(7, 0), 0u);

    // Pure function: same inputs, same delay, every time.
    for (unsigned a = 1; a < 6; ++a)
        EXPECT_EQ(p.delayUsFor(7, a), p.delayUsFor(7, a));

    // Jittered exponential within [1-j, 1+j] of the nominal step,
    // capped at maxDelayUs.
    EXPECT_GE(p.delayUsFor(7, 1), 500u);
    EXPECT_LE(p.delayUsFor(7, 1), 1500u);
    EXPECT_GE(p.delayUsFor(7, 10), 4000u);
    EXPECT_LE(p.delayUsFor(7, 10), 12000u);

    // Jitter de-synchronizes a retry storm: not every job waits the
    // same time before attempt 1.
    bool diverged = false;
    for (std::uint64_t job = 1; job < 32 && !diverged; ++job)
        diverged = p.delayUsFor(job, 1) != p.delayUsFor(0, 1);
    EXPECT_TRUE(diverged);

    // jitter=0 is the exact doubling schedule.
    p.jitter = 0.0;
    EXPECT_EQ(p.delayUsFor(3, 1), 1000u);
    EXPECT_EQ(p.delayUsFor(3, 2), 2000u);
    EXPECT_EQ(p.delayUsFor(3, 3), 4000u);
    EXPECT_EQ(p.delayUsFor(3, 4), 8000u);
    EXPECT_EQ(p.delayUsFor(3, 5), 8000u); // capped

    // baseDelayUs=0 restores the no-wait behaviour.
    p.baseDelayUs = 0;
    EXPECT_EQ(p.delayUsFor(3, 4), 0u);
}

TEST(ParallelRetry, BackoffScheduleIsDeterministicAcrossJobCounts)
{
    // The backoff must not break the engine's core contract: results
    // (and the set of attempts made) are identical at jobs=1 and
    // jobs=N, because delays are pure functions of (job, attempt).
    hard::RetryPolicy policy;
    policy.attempts = 3;
    policy.baseDelayUs = 100;
    policy.maxDelayUs = 400;
    policy.jitter = 0.5;

    auto runWith = [&](unsigned jobs,
                       std::vector<std::pair<std::size_t, unsigned>>
                           *calls) {
        std::mutex m;
        auto out = sim::parallelMapRetry(
            12, jobs, policy,
            [&](std::size_t i, unsigned attempt) -> int {
                {
                    std::lock_guard<std::mutex> lk(m);
                    calls->push_back({i, attempt});
                }
                if (attempt < i % 3)
                    throw hard::TransientFault("flaky");
                return static_cast<int>(i * 100 + attempt);
            });
        return out;
    };

    std::vector<std::pair<std::size_t, unsigned>> serialCalls;
    std::vector<std::pair<std::size_t, unsigned>> parallelCalls;
    const auto serial = runWith(1, &serialCalls);
    const auto parallel = runWith(4, &parallelCalls);
    EXPECT_EQ(serial, parallel);
    // Same attempts executed, merely in a different interleaving.
    std::sort(serialCalls.begin(), serialCalls.end());
    std::sort(parallelCalls.begin(), parallelCalls.end());
    EXPECT_EQ(serialCalls, parallelCalls);
}

// ------------------------------- diagnostic dump files --------------

TEST(DiagnosticDumps, WatchdogWritesPerInstanceJsonFiles)
{
    // With a dump directory configured, a watchdog failure must
    // leave a structured JSON post-mortem on disk and name it in
    // the exception, instead of scrolling it past on stderr.
    const std::string dir = ::testing::TempDir();
    auto provoke = [&]() -> std::string {
        FaultInjector inj(
            FaultPlan::parse("wedge-req:at=60000:core=0", 9));
        auto sys = makeHardened(twoCoreBdc(), &inj, false, 100000);
        sys->setDiagnosticDir(dir);
        try {
            sys->run(500000);
        } catch (const WatchdogTimeout &e) {
            return e.dumpPath();
        }
        return "";
    };

    const std::string first = provoke();
    ASSERT_FALSE(first.empty());
    EXPECT_EQ(first.rfind(dir, 0), 0u) << first;
    EXPECT_NE(first.find("watchdog"), std::string::npos) << first;

    std::ifstream is(first);
    ASSERT_TRUE(is.good()) << "dump file missing: " << first;
    std::ostringstream text;
    text << is.rdbuf();
    const auto doc = obs::json::tryParse(text.str());
    ASSERT_TRUE(doc.has_value()) << "dump is not valid JSON";
    EXPECT_NE(doc->find("reason"), nullptr);

    // A second System instance must never reuse the first one's
    // file names (per-instance counter in the name).
    const std::string second = provoke();
    ASSERT_FALSE(second.empty());
    EXPECT_NE(first, second);
}

} // namespace
} // namespace camo
