/**
 * @file
 * Component micro-benchmarks (google-benchmark): the cost of the
 * shaper decision logic, the DRAM timing checker, MI computation, and
 * whole-system simulation rate. These back the paper's "hardware
 * overhead is minimal" claim at the model level and document the
 * simulator's own speed.
 */

#include <vector>

#include <benchmark/benchmark.h>

#include "src/camouflage/bin_shaper.h"
#include "src/dram/device.h"
#include "src/security/mutual_information.h"
#include "src/sim/event_scheduler.h"
#include "src/sim/plan.h"
#include "src/sim/presets.h"

using namespace camo;

namespace {

void
BM_BinShaperTickAndIssue(benchmark::State &state)
{
    shaper::BinShaper bins(shaper::BinConfig::desired());
    Cycle now = 0;
    for (auto _ : state) {
        ++now;
        bins.tick(now);
        int consumed = bins.consumeReal(now);
        benchmark::DoNotOptimize(consumed);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_BinShaperTickAndIssue);

void
BM_DramDeviceCanIssue(benchmark::State &state)
{
    dram::DramOrganization org;
    dram::DramTiming timing;
    dram::DramDevice dev(org, timing);
    dram::DramAddress da{0, 0, 3, 100, 5};
    std::uint64_t now = 0;
    for (auto _ : state) {
        ++now;
        bool ok = dev.canIssue(dram::Cmd::ACT, da, now);
        benchmark::DoNotOptimize(ok);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_DramDeviceCanIssue);

void
BM_DramReadStream(benchmark::State &state)
{
    dram::DramOrganization org;
    dram::DramTiming timing;
    for (auto _ : state) {
        dram::DramDevice dev(org, timing);
        std::uint64_t now = 0;
        std::uint64_t served = 0;
        // Stream 64 row-hit reads through one bank.
        dram::DramAddress da{0, 0, 0, 7, 0};
        while (served < 64) {
            ++now;
            if (!dev.isRowOpen(da) &&
                dev.canIssue(dram::Cmd::ACT, da, now)) {
                dev.issue(dram::Cmd::ACT, da, now);
            } else if (dev.isRowHit(da) &&
                       dev.canIssue(dram::Cmd::RD, da, now)) {
                da.column = static_cast<std::uint32_t>(served % 128);
                dev.issue(dram::Cmd::RD, da, now);
                ++served;
            }
        }
        benchmark::DoNotOptimize(now);
    }
    state.SetItemsProcessed(64 *
                            static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_DramReadStream);

void
BM_SystemSimulationRate(benchmark::State &state)
{
    sim::SystemConfig cfg = sim::paperConfig();
    cfg.mitigation = sim::Mitigation::BDC;
    sim::System system(
        sim::SystemPlan(cfg, sim::adversaryMix("mcf", "astar")));
    for (auto _ : state)
        system.tick();
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
    state.SetLabel("simulated CPU cycles/s");
}
BENCHMARK(BM_SystemSimulationRate);

/**
 * Calendar-queue hot loop: one schedule + one popDue per simulated
 * cycle across a realistic component population (the System graph is
 * ~35 components). Catches event-wheel regressions without the noise
 * of a full-system run.
 */
void
BM_EventSchedulerScheduleAndPop(benchmark::State &state)
{
    const std::size_t ids =
        static_cast<std::size_t>(state.range(0));
    sim::EventScheduler sched(ids);
    std::vector<std::uint32_t> due;
    Cycle now = 0;
    std::uint64_t v = 99;
    for (auto _ : state) {
        ++now;
        // A component re-arms at a pseudo-random horizon each cycle;
        // the mix of near and far wakeups exercises bucket wrap.
        v = v * 6364136223846793005ULL + 1442695040888963407ULL;
        const std::uint32_t id =
            static_cast<std::uint32_t>((v >> 33) % ids);
        sched.scheduleAt(id, now + 1 + ((v >> 17) & 1023));
        sched.popDue(now, due);
        benchmark::DoNotOptimize(due.data());
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_EventSchedulerScheduleAndPop)->Arg(35)->Arg(256);

/**
 * Same-cycle FIFO ordering cost: N ids land on one cycle, and the
 * pop must sort them back into scheduling order. This is the
 * worst-case drain the System sees when a busy cycle wakes the whole
 * graph.
 */
void
BM_EventSchedulerSameCycleFifo(benchmark::State &state)
{
    const std::size_t ids =
        static_cast<std::size_t>(state.range(0));
    sim::EventScheduler sched(ids);
    std::vector<std::uint32_t> due;
    Cycle now = 0;
    for (auto _ : state) {
        ++now;
        for (std::size_t i = 0; i < ids; ++i)
            sched.scheduleAt(static_cast<std::uint32_t>(i), now);
        sched.popDue(now, due);
        benchmark::DoNotOptimize(due.data());
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(
        state.iterations() * static_cast<std::int64_t>(ids)));
    state.SetLabel("wakeups/s");
}
BENCHMARK(BM_EventSchedulerSameCycleFifo)->Arg(35)->Arg(256);

void
BM_MutualInformation(benchmark::State &state)
{
    security::JointDistribution joint(33, 32);
    std::uint64_t v = 12345;
    for (std::size_t i = 0; i < 20000; ++i) {
        v = v * 6364136223846793005ULL + 1442695040888963407ULL;
        joint.add((v >> 16) % 33, (v >> 40) % 32);
    }
    for (auto _ : state) {
        double mi = joint.mutualInformationBitsCorrected();
        benchmark::DoNotOptimize(mi);
    }
}
BENCHMARK(BM_MutualInformation);

} // namespace

BENCHMARK_MAIN();
