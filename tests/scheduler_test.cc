/**
 * @file
 * Event-kernel edge cases: system-level properties of pure event
 * execution -- wakeups that cross interval-stats/leakage-monitor
 * boundaries, fault-injection events landing inside a clock jump, and
 * watchdog staleness when the kernel jumps over long idle windows.
 * The kernel's wake rule itself is pinned in kernel_test.cc.
 */

#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/hard/error.h"
#include "src/hard/fault_injection.h"
#include "src/hard/watchdog.h"
#include "src/obs/leakmon.h"
#include "src/obs/registry.h"
#include "src/sim/presets.h"
#include "src/sim/plan.h"
#include "src/sim/system.h"

namespace camo::sim {
namespace {

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
