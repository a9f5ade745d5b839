/**
 * @file
 * Host-time profiler + Chrome-trace exporter tests: node-tree
 * accounting, the export formats, and the two properties the System
 * integration promises — a profiled run is bit-exact with an
 * unprofiled one, and the profiled phases cover (nearly) all of the
 * run's wall time.
 */

#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>

#include "src/obs/chrome_trace.h"
#include "src/obs/json.h"
#include "src/obs/prof.h"
#include "src/obs/registry.h"
#include "src/sim/component.h"
#include "src/sim/plan.h"
#include "src/sim/presets.h"
#include "src/sim/runner.h"
#include "src/sim/system.h"

using namespace camo;

namespace {

constexpr Cycle kCycles = 60000;

/** Stats JSON + core summary of a run, with an optional profiler. */
std::string
runSurface(bool profiled, obs::Profiler *prof = nullptr)
{
    sim::SystemConfig cfg = sim::paperConfig();
    cfg.mitigation = sim::Mitigation::BDC;
    sim::System system(
        sim::SystemPlan(cfg, sim::adversaryMix("mcf", "astar")));
    obs::Profiler local;
    if (profiled)
        system.setProfiler(prof ? prof : &local);
    system.run(kCycles);

    obs::StatRegistry reg;
    system.registerStats(reg);
    std::ostringstream all;
    all << "now=" << system.now() << "\n";
    for (std::uint32_t i = 0; i < system.numCores(); ++i) {
        all << "core" << i << " ipc=" << system.coreAt(i).ipc()
            << " served=" << system.servedReads(i) << "\n";
    }
    all << reg.toJson().dump(2);
    return all.str();
}

} // namespace

TEST(Profiler, TreeAccumulatesAndDerivesSelfTime)
{
    obs::Profiler prof;
    const auto root = prof.root();
    const auto tick = prof.child(root, "tick");
    const auto core0 = prof.child(tick, "core0");
    const auto core1 = prof.child(tick, "core1");
    EXPECT_EQ(prof.child(tick, "core0"), core0)
        << "child() must be stable find-or-create";

    prof.add(root, 1000);
    prof.add(tick, 700);
    prof.add(core0, 300, 5);
    prof.add(core1, 200);

    EXPECT_EQ(prof.totalNs(), 1000u);
    EXPECT_EQ(prof.selfNs(root), 300u);
    EXPECT_EQ(prof.selfNs(tick), 200u);
    EXPECT_EQ(prof.selfNs(core0), 300u);
    EXPECT_EQ(prof.node(core0).calls, 5u);

    // A child timing past its parent (clock jitter) clamps to 0.
    prof.add(core0, 600);
    EXPECT_EQ(prof.selfNs(tick), 0u);

    prof.clear();
    EXPECT_EQ(prof.totalNs(), 0u);
    EXPECT_EQ(prof.child(tick, "core0"), core0)
        << "clear() keeps the tree and ids";
}

TEST(Profiler, ExportsJsonAndFoldedStacks)
{
    obs::Profiler prof;
    const auto tick = prof.child(prof.root(), "tick");
    const auto core0 = prof.child(tick, "core0");
    prof.add(prof.root(), 1000);
    prof.add(tick, 700);
    prof.add(core0, 300);

    const obs::json::Value j = prof.toJson();
    ASSERT_NE(j.find("schema"), nullptr);
    EXPECT_EQ(j.find("schema")->asString(), "camo-prof-1");
    ASSERT_NE(j.find("total_ns"), nullptr);
    EXPECT_EQ(j.find("total_ns")->asNumber(), 1000.0);

    const std::string folded = prof.toFolded();
    EXPECT_NE(folded.find("run 300\n"), std::string::npos);
    EXPECT_NE(folded.find("run;tick 400\n"), std::string::npos);
    EXPECT_NE(folded.find("run;tick;core0 300\n"), std::string::npos);
}

TEST(Profiler, ProfiledRunIsBitExactWithUnprofiledRun)
{
    EXPECT_EQ(runSurface(false), runSurface(true));
}

TEST(Profiler, PhasesCoverWallTimeOfRun)
{
    sim::SystemConfig cfg = sim::paperConfig();
    cfg.mitigation = sim::Mitigation::BDC;
    sim::System system(
        sim::SystemPlan(cfg, sim::adversaryMix("mcf", "astar")));
    obs::Profiler prof;
    system.setProfiler(&prof);

    const obs::Profiler::Timer wall;
    system.run(kCycles);
    const std::uint64_t wall_ns = wall.elapsedNs();

    // The run scope wraps the whole loop, so >= 95% of the wall time
    // around run() must be attributed to the profiler tree.
    EXPECT_GE(prof.totalNs() * 100, wall_ns * 95)
        << "profiled run covers too little of the wall time";
    EXPECT_LE(prof.totalNs(), wall_ns)
        << "profiled time cannot exceed the enclosing wall time";

    // Self times partition the total: sum over all nodes == root.
    std::uint64_t self_sum = 0;
    for (obs::Profiler::NodeId id = 0;
         id < static_cast<obs::Profiler::NodeId>(prof.nodes().size());
         ++id) {
        self_sum += prof.selfNs(id);
    }
    EXPECT_LE(self_sum, prof.totalNs());
    EXPECT_GE(self_sum * 100, prof.totalNs() * 95)
        << "derived self times lose more than 5% of the total";
}

TEST(Profiler, NestedCatchUpCountsOnlyUnderSkip)
{
    // `slow` never ticks; its one catch-up spins ~2 ms and is made
    // from inside `caller`'s tick at cycle 100, the run's last cycle.
    struct Slow final : sim::Component
    {
        Slow() : Component("slow") {}
        Cycle nextEventCycle(Cycle) const override { return kNoCycle; }
        void
        skipIdleCycles(Cycle) override
        {
            const obs::Profiler::Timer spin;
            while (spin.elapsedNs() < 2'000'000) {
            }
        }
    };
    struct Caller final : sim::Component
    {
        explicit Caller(sim::Component &peer)
            : Component("caller"), peer_(peer)
        {
        }
        Cycle
        nextEventCycle(Cycle from) const override
        {
            return from <= 100 ? 100 : kNoCycle;
        }
        void tick(Cycle now) override { peer_.catchUp(now); }
        sim::Component &peer_;
    };

    sim::SystemConfig cfg = sim::paperConfig();
    cfg.numCores = 1;
    sim::System system(sim::SystemPlan(cfg, {"probe:2000"}));
    sim::Component &slow = system.addComponent(std::make_unique<Slow>());
    system.addComponent(std::make_unique<Caller>(slow));
    obs::Profiler prof;
    system.setProfiler(&prof);
    system.run(100);

    const auto node = [&prof](const char *phase, const char *name) {
        return prof.node(prof.child(prof.child(prof.root(), phase), name));
    };
    ASSERT_EQ(node("skip", "slow").calls, 1u);
    ASSERT_EQ(node("tick", "caller").calls, 1u);
    EXPECT_GE(node("skip", "slow").ns, 2'000'000u);
    EXPECT_LT(node("tick", "caller").ns * 4, node("skip", "slow").ns)
        << "the nested catch-up is counted under tick/caller too";
}

TEST(ChromeTrace, ProducesValidJsonWithBalancedAsyncSpans)
{
    sim::SystemConfig cfg = sim::paperConfig();
    cfg.mitigation = sim::Mitigation::BDC;
    sim::System system(
        sim::SystemPlan(cfg, sim::adversaryMix("mcf", "astar")));

    std::ostringstream os;
    obs::ChromeTraceWriter writer(os);
    system.tracer().setSink(std::make_unique<obs::ChromeTraceSink>(
        writer, system.numCores()));
    system.tracer().setEnabled(true);

    obs::Profiler prof;
    system.setProfiler(&prof);
    system.run(kCycles);
    system.tracer().flush();
    obs::writeProfile(writer, prof);
    writer.finish();

    const auto parsed = obs::json::tryParse(os.str());
    ASSERT_TRUE(parsed.has_value())
        << "chrome trace must be valid JSON";
    ASSERT_TRUE(parsed->isArray());
    const auto &events = parsed->asArray();
    ASSERT_GT(events.size(), 10u);

    std::size_t begins = 0, ends = 0, durations = 0, meta = 0;
    for (const auto &e : events) {
        const obs::json::Value *ph = e.find("ph");
        ASSERT_NE(ph, nullptr);
        const std::string &kind = ph->asString();
        if (kind == "b")
            ++begins;
        else if (kind == "e")
            ++ends;
        else if (kind == "X")
            ++durations;
        else if (kind == "M")
            ++meta;
    }
    EXPECT_GE(meta, 4u) << "process/thread name records missing";
    EXPECT_GT(begins, 0u);
    EXPECT_GE(begins, ends)
        << "an async end without a begin corrupts the track";
    EXPECT_GT(durations, 0u) << "profile spans missing";
}
