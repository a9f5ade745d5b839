/**
 * @file
 * Event-scheduler edge cases (ISSUE 7 satellite): calendar-queue
 * unit semantics -- same-cycle FIFO determinism, min-merge with lazy
 * stale entries, far-future wakeups wrapping the calendar --
 * plus system-level properties of pure event execution: wakeups that
 * cross interval-stats/leakage-monitor boundaries, fault-injection
 * events landing inside a clock jump, and watchdog staleness when the
 * kernel jumps over long idle windows.
 */

#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/rng.h"
#include "src/hard/error.h"
#include "src/hard/fault_injection.h"
#include "src/hard/watchdog.h"
#include "src/obs/leakmon.h"
#include "src/obs/registry.h"
#include "src/sim/event_scheduler.h"
#include "src/sim/presets.h"
#include "src/sim/plan.h"
#include "src/sim/system.h"

namespace camo::sim {
namespace {

// ------------------------------------------- calendar-queue units

TEST(EventScheduler, SameCycleFifoByScheduleOrder)
{
    EventScheduler sched(16);
    sched.scheduleAt(5, 10);
    sched.scheduleAt(2, 10);
    sched.scheduleAt(9, 10);
    // A redundant min-merge must not reorder id 2 behind id 9.
    sched.scheduleAt(2, 10);
    EXPECT_EQ(sched.nextDueCycle(), 10u);

    std::vector<std::uint32_t> due;
    sched.popDue(10, due);
    EXPECT_EQ(due, (std::vector<std::uint32_t>{5, 2, 9}));
    EXPECT_TRUE(sched.empty());
    EXPECT_EQ(sched.nextDueCycle(), kNoCycle);
}

TEST(EventScheduler, MinMergeOnlyMovesEarlier)
{
    EventScheduler sched(4);
    sched.scheduleAt(1, 100);
    sched.scheduleAt(1, 200); // later: no-op
    EXPECT_EQ(sched.wakeOf(1), 100u);
    sched.scheduleAt(1, 50); // earlier: wins
    EXPECT_EQ(sched.wakeOf(1), 50u);
    EXPECT_EQ(sched.nextDueCycle(), 50u);
    // kNoCycle bounds feed through as no-ops.
    sched.scheduleAt(1, kNoCycle);
    EXPECT_EQ(sched.wakeOf(1), 50u);

    // The superseded cycle-90 entry goes stale: once id 0 pops at 30,
    // popping 90 must not surface it again.
    sched.scheduleAt(0, 90);
    sched.scheduleAt(0, 30);
    std::vector<std::uint32_t> due;
    sched.popDue(30, due);
    EXPECT_EQ(due, (std::vector<std::uint32_t>{0}));
    sched.popDue(90, due);
    EXPECT_TRUE(due.empty());
    EXPECT_EQ(sched.scheduled(), 1u);
    EXPECT_EQ(sched.nextDueCycle(), 50u);
}

TEST(EventScheduler, FarFutureWakeupsWrapTheCalendar)
{
    EventScheduler sched(8);
    // Same bucket (congruent mod kBuckets), different calendar year:
    // popping the near cycle must leave the far entry pending.
    const Cycle near = 7;
    const Cycle far = 7 + 1000 * EventScheduler::kBuckets;
    sched.scheduleAt(3, far);
    sched.scheduleAt(4, near);
    EXPECT_EQ(sched.nextDueCycle(), near);

    std::vector<std::uint32_t> due;
    sched.popDue(near, due);
    EXPECT_EQ(due, (std::vector<std::uint32_t>{4}));
    EXPECT_EQ(sched.scheduled(), 1u);
    EXPECT_EQ(sched.nextDueCycle(), far);
    sched.popDue(far, due);
    EXPECT_EQ(due, (std::vector<std::uint32_t>{3}));
    EXPECT_TRUE(sched.empty());
}

TEST(EventScheduler, WakeBelowLowWaterSurfaces)
{
    constexpr Cycle kYear = EventScheduler::kBuckets;
    EventScheduler sched(8);
    std::vector<std::uint32_t> due;
    sched.scheduleAt(0, 100);
    sched.scheduleAt(1, 100 + 3 * kYear);
    ASSERT_EQ(sched.nextDueCycle(), 100u);
    sched.popDue(100, due); // the low-water mark moves past 100

    // A wake below the mark must lower it, not hide behind it.
    sched.scheduleAt(2, 90);
    EXPECT_EQ(sched.nextDueCycle(), 90u);
    sched.popDue(90, due);
    EXPECT_EQ(due, (std::vector<std::uint32_t>{2}));

    // Nothing within a year of the mark: the one-pass scan falls back
    // to the least live entry it saw.
    EXPECT_EQ(sched.nextDueCycle(), 100 + 3 * kYear);
    // Below that exact minimum, in the same bucket one year earlier.
    sched.scheduleAt(3, 100 + 2 * kYear);
    EXPECT_EQ(sched.nextDueCycle(), 100 + 2 * kYear);
    sched.popDue(100 + 2 * kYear, due);
    EXPECT_EQ(due, (std::vector<std::uint32_t>{3}));
    EXPECT_EQ(sched.nextDueCycle(), 100 + 3 * kYear);
    sched.popDue(100 + 3 * kYear, due);
    EXPECT_EQ(due, (std::vector<std::uint32_t>{1}));
    EXPECT_EQ(sched.nextDueCycle(), kNoCycle);
}

/**
 * Brute-force calendar: live wakes in a multimap keyed by cycle.
 * emplace() inserts at the end of an equal range, so equal keys sit in
 * scheduling order -- the FIFO contract EventScheduler promises.
 */
class ReferenceCalendar
{
  public:
    explicit ReferenceCalendar(std::size_t ids) : at_(ids, live_.end()) {}

    Cycle
    wakeOf(std::uint32_t id) const
    {
        return at_[id] == live_.end() ? kNoCycle : at_[id]->first;
    }

    void
    scheduleAt(std::uint32_t id, Cycle at)
    {
        if (at >= wakeOf(id))
            return;
        if (at_[id] != live_.end())
            live_.erase(at_[id]);
        at_[id] = live_.emplace(at, id);
    }

    Cycle
    nextDueCycle() const
    {
        return live_.empty() ? kNoCycle : live_.begin()->first;
    }

    std::vector<std::uint32_t>
    popDue(Cycle cycle)
    {
        std::vector<std::uint32_t> out;
        auto [lo, hi] = live_.equal_range(cycle);
        for (auto it = lo; it != hi; ++it) {
            out.push_back(it->second);
            at_[it->second] = live_.end();
        }
        live_.erase(lo, hi);
        return out;
    }

    std::size_t size() const { return live_.size(); }

  private:
    std::multimap<Cycle, std::uint32_t> live_;
    std::vector<std::multimap<Cycle, std::uint32_t>::iterator> at_;
};

TEST(EventScheduler, MatchesBruteForceReference)
{
    constexpr Cycle kYear = EventScheduler::kBuckets;
    constexpr std::size_t kIds = 40;
    const Cycle spans[] = {1,         3,         64,       kYear - 1,
                           kYear,     kYear + 1, 3 * kYear, 10 * kYear};
    for (const Cycle span : spans) {
        SCOPED_TRACE("span " + std::to_string(span));
        EventScheduler sched(kIds);
        ReferenceCalendar ref(kIds);
        Rng rng(0x5EED + span);
        std::vector<std::uint32_t> due;
        Cycle now = 0;
        auto pop_next = [&] {
            const Cycle next = sched.nextDueCycle();
            ASSERT_EQ(next, ref.nextDueCycle());
            if (next == kNoCycle)
                return;
            sched.popDue(next, due);
            ASSERT_EQ(due, ref.popDue(next)) << "at cycle " << next;
            now = next;
        };
        for (int step = 0; step < 5000; ++step) {
            const auto id = static_cast<std::uint32_t>(rng.below(kIds));
            // May land on `now`, i.e. below the mark a pop just raised.
            const Cycle at = now + rng.below(span + 1);
            switch (rng.below(8)) {
              case 0:
              case 1:
              case 2:
              case 3:
              case 4:
                sched.scheduleAt(id, at);
                ref.scheduleAt(id, at);
                break;
              case 5: // a pop off the minimum
                sched.popDue(at, due);
                ASSERT_EQ(due, ref.popDue(at)) << "at cycle " << at;
                break;
              default:
                ASSERT_NO_FATAL_FAILURE(pop_next());
                break;
            }
            ASSERT_EQ(sched.scheduled(), ref.size()) << "step " << step;
            ASSERT_EQ(sched.wakeOf(id), ref.wakeOf(id)) << "step " << step;
        }
        for (std::size_t left = ref.size(); !sched.empty(); --left) {
            ASSERT_GT(left, 0u) << "more pops than live wakes";
            ASSERT_NO_FATAL_FAILURE(pop_next());
        }
        EXPECT_EQ(ref.size(), 0u);
        EXPECT_EQ(sched.nextDueCycle(), kNoCycle);
    }
}

// --------------------------------------- system-level event model

constexpr Cycle kCycles = 300000;

/** A sparse-receiver machine: probes every 2000 cycles, so kernel
 *  wakeups routinely jump across interval/leakmon check boundaries
 *  and most of the run is one long clock jump. */
SystemConfig
sparseConfig()
{
    SystemConfig cfg = paperConfig();
    cfg.numCores = 2;
    cfg.mitigation = Mitigation::None;
    return cfg;
}

std::vector<std::string>
sparseMix()
{
    return {"probe:2000", "probe:2000"};
}

/** Full observable surface of a run (metrics, stats tree, interval
 *  CSV, leakmon evaluations) for plain-loop vs event-kernel diffs. */
std::string
surface(SystemConfig cfg, bool fast_forward,
        hard::FaultInjector *injector = nullptr,
        const std::vector<std::string> &mix = sparseMix())
{
    cfg.fastForward = fast_forward;
    System system(SystemPlan(cfg, mix));
    system.setDiagnosticStream(nullptr);
    obs::LeakMonitorConfig lm;
    lm.windowCycles = 10000;
    lm.checkPeriod = 1000;
    system.enableLeakMonitor(lm); // before intervals: MI column armed
    system.enableIntervalStats(500);
    if (injector)
        system.setFaultInjector(injector);
    system.run(kCycles);

    obs::StatRegistry reg;
    system.registerStats(reg);
    std::ostringstream all;
    all << "now=" << system.now() << "\n";
    for (std::uint32_t c = 0; c < cfg.numCores; ++c) {
        all << "core" << c << " served=" << system.servedReads(c)
            << " lat=" << system.avgReadLatency(c) << "\n";
    }
    all << reg.toJson().dump(2) << "\n";
    all << system.intervalStats()->toCsv();
    return all.str();
}

TEST(EventKernel, FarFutureWakeupsCrossIntervalAndLeakmonBoundaries)
{
    // Probe wakeups (every 2000 cycles) straddle many 500-cycle
    // interval snapshots and 1000-cycle leakmon checks; both cadenced
    // observers must see exactly what the per-cycle loop shows them.
    const std::string plain = surface(sparseConfig(), false);
    const std::string fast = surface(sparseConfig(), true);
    EXPECT_EQ(plain, fast);
}

TEST(EventKernel, FaultInsideClockJumpFiresBitExactly)
{
    // The credit-corruption fault lands at one exact cycle that no
    // component scheduled a wakeup for -- deep inside an idle jump.
    // The kernel must split the jump and apply it on time.
    SystemConfig cfg = sparseConfig();
    cfg.mitigation = Mitigation::BDC; // shapers give credits to corrupt
    const auto plan =
        hard::FaultPlan::parse("corrupt-credits:at=123457:core=0", 7);

    hard::FaultInjector inj_plain(plan);
    const std::string plain = surface(cfg, false, &inj_plain);
    hard::FaultInjector inj_fast(plan);
    const std::string fast = surface(cfg, true, &inj_fast);
    EXPECT_EQ(plain, fast);
    EXPECT_EQ(inj_fast.totalFired(), 1u);
}

TEST(EventKernel, WriteDrainHysteresisFlipsBitExactly)
{
    // The MC's write-drain flag has memory: the per-cycle loop
    // evaluates the flip predicate at every DRAM tick, so a flip
    // lands on the first tick its condition holds even when no
    // command can issue there. An enqueue inside a skipped span must
    // not move the flip. Regression: the 4-core no-shaping adversary
    // run diverged once enough writebacks accumulated (~250k cycles)
    // -- a write landing mid-skip with the drain flag armed at the
    // low watermark kept the event kernel draining writes while the
    // per-cycle loop had already flipped back to reads.
    SystemConfig cfg = paperConfig();
    cfg.mitigation = Mitigation::None;
    const std::vector<std::string> mix = adversaryMix("mcf", "astar");
    const std::string plain = surface(cfg, false, nullptr, mix);
    const std::string fast = surface(cfg, true, nullptr, mix);
    EXPECT_EQ(plain, fast);
}

TEST(EventKernel, WatchdogQuietWhenWindowCoversIdleJumps)
{
    // Pure event execution jumps ~2000 cycles between probe wakeups.
    // With the window above the gap the watchdog's periodic poll must
    // keep observing forward progress (not a stale mid-jump snapshot)
    // and stay quiet to the end of the run.
    SystemConfig cfg = sparseConfig();
    cfg.fastForward = true;
    System system(SystemPlan(cfg, sparseMix()));
    system.setDiagnosticStream(nullptr);
    hard::WatchdogConfig wc;
    wc.window = 10000; // > the 2000-cycle probe gap
    system.enableWatchdog(wc);
    EXPECT_NO_THROW(system.run(kCycles));
    EXPECT_EQ(system.now(), kCycles);
    EXPECT_GT(system.servedReads(0), 0u);
}

TEST(EventKernel, WatchdogStillFiresOnStallUnderEventExecution)
{
    // A window smaller than the probe gap treats the wait between
    // probes as a genuine stall (the per-cycle loop fires on this
    // config too). Event execution must not sleep through the
    // deadline: the kernel's watchdog poll has to detect the stale
    // progress counter and raise WatchdogTimeout mid-run.
    SystemConfig cfg = sparseConfig();
    cfg.fastForward = true;
    System system(SystemPlan(cfg, sparseMix()));
    system.setDiagnosticStream(nullptr);
    hard::WatchdogConfig wc;
    wc.window = 500; // << the 2000-cycle probe gap
    system.enableWatchdog(wc);
    EXPECT_THROW(system.run(kCycles), hard::WatchdogTimeout);
    EXPECT_LT(system.now(), kCycles);
}

} // namespace
} // namespace camo::sim
