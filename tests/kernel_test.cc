/**
 * @file
 * Simulation-kernel tests: the Component/ComponentGraph contract, the
 * typed Wire links, JSON topology loading, and the system-level
 * guarantees the kernel refactor pinned — synthetic components ride
 * every plumbing path with zero edits, nextEventCycle() stays a sound
 * fast-forward bound, and fixed-seed stats output is byte-identical
 * to the pre-kernel goldens.
 */

#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/rng.h"
#include "src/common/stats.h"
#include "src/hard/error.h"
#include "src/mem/memory_system.h"
#include "src/obs/registry.h"
#include "src/obs/tracer.h"
#include "src/sim/component.h"
#include "src/sim/wire.h"
#include "src/sim/presets.h"
#include "src/sim/runner.h"
#include "src/sim/plan.h"
#include "src/sim/system.h"
#include "src/sim/topology.h"

namespace camo::sim {
namespace {

// ------------------------------------------------------------- Wire

TEST(Wire, BoundedBackpressure)
{
    Wire<int> w(2);
    EXPECT_TRUE(w.canAccept());
    w.push(1);
    w.push(2);
    EXPECT_FALSE(w.canAccept());
    EXPECT_EQ(w.size(), 2u);
    EXPECT_EQ(w.pop(), 1);
    EXPECT_TRUE(w.canAccept());
    EXPECT_EQ(w.front(), 2);
    EXPECT_EQ(w.pop(), 2);
    EXPECT_TRUE(w.empty());
}

TEST(Wire, ZeroCapacityIsUnbounded)
{
    Wire<int> w;
    for (int i = 0; i < 1000; ++i) {
        ASSERT_TRUE(w.canAccept());
        w.push(i);
    }
    EXPECT_EQ(w.size(), 1000u);
}

// --------------------------------------------------- ComponentGraph

/** Minimal component counting every kernel fan-out that reaches it. */
class Probe final : public Component
{
  public:
    explicit Probe(std::string name = "test.probe")
        : Component(std::move(name))
    {
    }

    void tick(Cycle) override { ++ticks; }
    Cycle nextEventCycle(Cycle) const override { return kNoCycle; }
    void skipIdleCycles(Cycle n) override { skipped += n; }
    void reset() override { ++resets; }
    void attachTracer(obs::Tracer *t) override { tracer = t; }
    void
    registerStats(obs::StatRegistry &reg) const override
    {
        reg.add(name(), &stats);
    }

    std::uint64_t ticks = 0;
    Cycle skipped = 0;
    int resets = 0;
    obs::Tracer *tracer = nullptr;
    StatGroup stats;
};

TEST(ComponentGraph, TicksInInsertionOrder)
{
    // The per-cycle oracle ticks the graph in insertion order.
    SystemConfig cfg = paperConfig();
    cfg.fastForward = false;
    System sys(SystemPlan(cfg, adversaryMix("astar", "astar")));
    std::vector<int> order;
    struct Rec final : Component
    {
        Rec(int id, std::vector<int> &log)
            : Component("rec" + std::to_string(id)), id_(id), log_(&log)
        {
        }
        void tick(Cycle) override { log_->push_back(id_); }
        int id_;
        std::vector<int> *log_;
    };
    const std::size_t before = sys.graph().size();
    for (const int id : {2, 1, 3})
        sys.addComponent(std::make_unique<Rec>(id, order));
    sys.run(1);
    EXPECT_EQ(order, (std::vector<int>{2, 1, 3}));
    EXPECT_EQ(sys.graph().size(), before + 3);
    EXPECT_EQ(sys.graph().order()[before + 1]->name(), "rec1");
}

TEST(ComponentGraph, Figure5TickOrderIsPinned)
{
    // Perfbench attributes host time to stations by these names, and
    // the kernel is bit-exact with the oracle only in this order.
    SystemConfig cfg = paperConfig();
    cfg.numCores = 2;
    cfg.mitigation = Mitigation::BDC;
    System sys(SystemPlan(cfg, {"mcf", "astar"}));
    auto names = [&sys] {
        std::vector<std::string> out;
        for (const Component *c : sys.graph().order())
            out.push_back(c->name());
        return out;
    };
    std::vector<std::string> expected{
        "station.faults",        "core0",
        "station.reqpipe.core0", "core1",
        "station.reqpipe.core1", "noc.req",
        "station.reqlink",       "mem",
        "station.memroute",      "station.resppipe.core0",
        "station.resppipe.core1", "noc.resp",
        "station.resplink",      "station.creditcheck",
        "station.interval"};
    EXPECT_EQ(names(), expected);

    sys.enableLeakMonitor(obs::LeakMonitorConfig{});
    expected.push_back("station.leakmon");
    EXPECT_EQ(names(), expected);
}

TEST(ComponentGraph, NextEventCycleIsMinFold)
{
    struct Fixed final : Component
    {
        Fixed(std::string n, Cycle at) : Component(std::move(n)), at_(at)
        {
        }
        Cycle
        nextEventCycle(Cycle from) const override
        {
            return std::max(from, at_);
        }
        Cycle at_;
    };
    ComponentGraph g;
    g.emplace<Fixed>("a", 500);
    g.emplace<Fixed>("b", 120);
    g.emplace<Fixed>("c", 900);
    EXPECT_EQ(g.nextEventCycle(100), 120u);
    // A component already due clamps the fold to `from`.
    EXPECT_EQ(g.nextEventCycle(200), 200u);
    ComponentGraph empty;
    EXPECT_EQ(empty.nextEventCycle(1), kNoCycle);
}

TEST(ComponentGraph, StickyAttachmentsReplayOnLateAdd)
{
    ComponentGraph g;
    obs::Tracer tracer;
    g.attachTracer(&tracer);
    Probe *late = g.emplace<Probe>();
    // Added after the attach, yet wired without any extra call.
    EXPECT_EQ(late->tracer, &tracer);
}

TEST(ComponentGraph, DefaultBoundIsTriviallySound)
{
    // A component that overrides nothing must not enable skipping
    // past itself: the base nextEventCycle returns `from`.
    struct Inert final : Component
    {
        Inert() : Component("inert") {}
    };
    ComponentGraph g;
    g.emplace<Inert>();
    EXPECT_EQ(g.nextEventCycle(42), 42u);
}

// ------------------------------------------- synthetic components

/**
 * The kernel's headline guarantee: a component registered through
 * System::addComponent() participates in ticking, fast-forward,
 * idle-cycle batching, epoch reset, stats, and the tracer fan-out with
 * ZERO edits to System plumbing.
 */
TEST(SyntheticComponent, RidesEveryPlumbingPath)
{
    SystemConfig cfg = paperConfig();
    cfg.mitigation = Mitigation::BDC;
    System sys(SystemPlan(cfg, adversaryMix("mcf", "astar")));

    auto owned = std::make_unique<Probe>();
    Probe *probe = static_cast<Probe *>(&sys.addComponent(std::move(owned)));

    // Visible in the topology; tracer attach replayed immediately.
    EXPECT_EQ(sys.graph().order().back(), probe);
    EXPECT_EQ(probe->tracer, &sys.tracer());

    // Every simulated cycle reaches it: ticked or batch-skipped. The
    // probe's bound is kNoCycle (provably idle forever), so the event
    // kernel never schedules a tick and batches every cycle into
    // skipIdleCycles — zero ticks is the contract, not a miss.
    const Cycle kCycles = 20000;
    sys.run(kCycles);
    EXPECT_EQ(probe->ticks, 0u);
    EXPECT_EQ(probe->ticks + probe->skipped, kCycles);

    // Stat registration fans out to it.
    obs::StatRegistry reg;
    sys.registerStats(reg);
    EXPECT_EQ(reg.find("test.probe"), &probe->stats);

    // Epoch reset fans out to it.
    sys.clearEpochCounters();
    EXPECT_EQ(probe->resets, 1);
}

TEST(SyntheticComponent, TickedEveryCycleWithoutFastForward)
{
    SystemConfig cfg = paperConfig();
    cfg.fastForward = false;
    System sys(SystemPlan(cfg, adversaryMix("astar", "astar")));
    auto owned = std::make_unique<Probe>();
    Probe *probe = static_cast<Probe *>(&sys.addComponent(std::move(owned)));
    sys.run(5000);
    EXPECT_EQ(probe->ticks, 5000u);
    EXPECT_EQ(probe->skipped, 0u);
}

/**
 * The kernel's wake rule, pinned through two synthetic components
 * appended after the machine (so `early` ticks before `late` within
 * a cycle). Each reports a scripted bound and, at scripted cycles,
 * wakes itself or its peer.
 */
TEST(EventKernel, WakeRuleTickCycles)
{
    struct Scripted final : Component
    {
        struct Wake
        {
            Cycle during; ///< the tick that issues it
            Component *target;
            Cycle at;
        };
        Scripted(std::string n, std::vector<Cycle> bounds)
            : Component(std::move(n)), bounds_(std::move(bounds))
        {
        }
        void
        tick(Cycle now) override
        {
            ticks.push_back(now);
            for (const Wake &w : wakes) {
                if (w.during == now)
                    w.target->scheduleAt(w.at);
            }
        }
        Cycle
        nextEventCycle(Cycle from) const override
        {
            for (const Cycle b : bounds_) {
                if (b >= from)
                    return b;
            }
            return kNoCycle;
        }
        std::vector<Wake> wakes;
        std::vector<Cycle> ticks;
        std::vector<Cycle> bounds_;
    };

    SystemConfig cfg = paperConfig();
    cfg.numCores = 1;
    System sys(SystemPlan(cfg, {"probe:2000"}));
    auto *early = static_cast<Scripted *>(&sys.addComponent(
        std::make_unique<Scripted>(
            "early", std::vector<Cycle>{100, 150, 300, 310, 400, 700,
                                        1000, 1100, 1200})));
    auto *late = static_cast<Scripted *>(&sys.addComponent(
        std::make_unique<Scripted>("late", std::vector<Cycle>{200})));
    early->wakes = {
        // Same-cycle wake of a later id, at and before the cycle:
        // runs this cycle.
        {100, late, 100},
        {150, late, 120},
        // Self-wakes at or before the cycle are ignored (the bound
        // re-arms at 310); a future self-wake survives the re-arm.
        {300, early, 300},
        {300, early, 250},
        {310, early, 320},
        // Min-merge: a later wake never displaces an earlier one,
        // whichever order they arrive in.
        {400, late, 500},
        {400, late, 600},
        {700, late, 900},
        {700, late, 800},
        // kNoCycle is a no-op.
        {1000, late, kNoCycle},
        // A same-cycle wake supersedes a pending later one: no tick
        // is left at 1300.
        {1100, late, 1300},
        {1200, late, 1200},
    };
    late->wakes = {
        // Same-cycle wake of an earlier id: runs next cycle.
        {200, early, 200},
    };
    sys.run(2000);

    EXPECT_EQ(early->ticks, (std::vector<Cycle>{100, 150, 201, 300, 310,
                                                320, 400, 700, 1000, 1100,
                                                1200}));
    EXPECT_EQ(late->ticks,
              (std::vector<Cycle>{100, 150, 200, 500, 800, 1200}));
}

// -------------------------------------- fast-forward bound soundness

/**
 * Property: every component's nextEventCycle() is a sound lower
 * bound. If any bound were optimistic, the fast-forward path would
 * skip a cycle with observable work and the full stats tree would
 * diverge from the per-cycle loop. Randomized seeds x mitigations.
 */
TEST(FastForwardSoundness, StatsTreeIdenticalUnderRandomSeeds)
{
    const Mitigation mits[] = {Mitigation::None, Mitigation::CS,
                               Mitigation::ReqC, Mitigation::RespC,
                               Mitigation::BDC};
    Rng rng(20260806);
    for (int trial = 0; trial < 8; ++trial) {
        SystemConfig cfg = paperConfig();
        cfg.mitigation = mits[trial % 5];
        cfg.seed = rng.next() % 1000000 + 1;
        const auto mix = adversaryMix(trial % 2 ? "mcf" : "bzip", "astar");

        cfg.fastForward = true;
        System fast(SystemPlan(cfg, mix));
        fast.run(25000);

        cfg.fastForward = false;
        System slow(SystemPlan(cfg, mix));
        slow.run(25000);

        ASSERT_EQ(summaryJson(fast, mix).dump(2),
                  summaryJson(slow, mix).dump(2))
            << "mitigation=" << mitigationName(cfg.mitigation)
            << " seed=" << cfg.seed;
    }
}

// ------------------------------------------------- JSON topologies

TEST(Topology, ParsesFullDocument)
{
    const TopologyConfig topo = parseTopology(R"({
        "cores": 2,
        "channels": 3,
        "mitigation": "reqc",
        "seed": 42,
        "workloads": ["mcf", "astar"],
        "shape_cores": [0],
        "cs_interval": 120,
        "fake_traffic": false,
        "randomize_timing": true,
        "fast_forward": false,
        "noc": {"latency": 8, "ingress_cap": 4, "egress_cap": 12}
    })");
    EXPECT_EQ(topo.system.numCores, 2u);
    EXPECT_EQ(topo.system.mc.org.channels, 3u);
    EXPECT_EQ(topo.system.mitigation, Mitigation::ReqC);
    EXPECT_EQ(topo.system.seed, 42u);
    EXPECT_EQ(topo.workloads,
              (std::vector<std::string>{"mcf", "astar"}));
    EXPECT_EQ(topo.system.shapeCore,
              (std::vector<bool>{true, false}));
    EXPECT_EQ(topo.system.csInterval, 120u);
    EXPECT_FALSE(topo.system.fakeTraffic);
    EXPECT_TRUE(topo.system.randomizeTiming);
    EXPECT_FALSE(topo.system.fastForward);
    EXPECT_EQ(topo.system.noc.latency, 8u);
    EXPECT_EQ(topo.system.noc.ingressCap, 4u);
    EXPECT_EQ(topo.system.noc.egressCap, 12u);
}

TEST(Topology, ReplicatedWorkloadFillsAllCores)
{
    const TopologyConfig topo =
        parseTopology(R"({"cores": 6, "workload": "astar"})");
    EXPECT_EQ(topo.workloads.size(), 6u);
    EXPECT_EQ(topo.system.numCores, 6u);
}

TEST(Topology, RejectsBadDocuments)
{
    using hard::ConfigError;
    EXPECT_THROW(parseTopology("{nope"), ConfigError);
    EXPECT_THROW(parseTopology(R"({"workload": "astar", "bogus": 1})"),
                 ConfigError);
    EXPECT_THROW(parseTopology(R"({"workload": "astar",
                                   "mitigation": "rot13"})"),
                 ConfigError);
    EXPECT_THROW(parseTopology(R"({"cores": 3,
                                   "workloads": ["mcf", "astar"]})"),
                 ConfigError);
    EXPECT_THROW(parseTopology(R"({"cores": 2})"), ConfigError);
    EXPECT_THROW(parseTopology(R"({"workloads": ["not-a-workload"]})"),
                 ConfigError);
    EXPECT_THROW(parseTopology(R"({"workload": "astar",
                                   "shape_cores": [9]})"),
                 ConfigError);
    EXPECT_THROW(loadTopology("/nonexistent/topo.json"), ConfigError);
    // Counts that do not fit their 32-bit fields, and integers a
    // uint64_t cannot hold, are rejected rather than narrowed.
    EXPECT_THROW(parseTopology(R"({"workload": "astar",
                                   "channels": 4294967296})"),
                 ConfigError);
    EXPECT_THROW(parseTopology(R"({"workload": "astar",
                                   "cores": 4294967298})"),
                 ConfigError);
    EXPECT_THROW(parseTopology(R"({"workload": "astar", "seed": 1e20})"),
                 ConfigError);
    // A JSON number is a double: 2^53 + 1 would run as seed 2^53.
    EXPECT_THROW(parseTopology(R"({"workload": "astar",
                                   "seed": 9007199254740993})"),
                 ConfigError);
    EXPECT_THROW(parseTopology(R"({"workload": "astar",
                                   "noc": {"latency": 4294967296}})"),
                 ConfigError);
}

TEST(Topology, EightCoresFourChannelsRunEndToEnd)
{
    const TopologyConfig topo = parseTopology(R"({
        "cores": 8,
        "channels": 4,
        "mitigation": "bdc",
        "seed": 3,
        "workload": "astar"
    })");
    System sys(SystemPlan(topo.system, topo.workloads));
    EXPECT_EQ(sys.numCores(), 8u);
    EXPECT_EQ(sys.memory().numChannels(), 4u);
    sys.run(30000);
    for (std::uint32_t i = 0; i < 8; ++i) {
        EXPECT_GT(sys.servedReads(i), 0u) << "core " << i;
        EXPECT_NE(sys.requestShaper(i), nullptr) << "core " << i;
        EXPECT_NE(sys.responseShaper(i), nullptr) << "core " << i;
    }
}

// ------------------------------------------------- golden invariance

/**
 * Fixed-seed stats-json output must stay byte-identical to the
 * goldens captured from the pre-kernel simulator (tests/golden/),
 * for every mitigation. Any accidental behavior change in the
 * component-graph machinery shows up here as a byte diff.
 */
TEST(GoldenStats, ByteIdenticalForAllMitigations)
{
    const std::pair<Mitigation, const char *> cases[] = {
        {Mitigation::None, "none"}, {Mitigation::CS, "cs"},
        {Mitigation::ReqC, "reqc"}, {Mitigation::RespC, "respc"},
        {Mitigation::BDC, "bdc"},
    };
    const std::vector<std::string> mix = {"mcf", "astar", "astar",
                                          "astar"};
    for (const auto &[m, name] : cases) {
        SystemConfig cfg = paperConfig();
        cfg.mitigation = m;
        cfg.seed = 1;
        System sys(SystemPlan(cfg, mix));
        runAndMeasure(sys, 60000, 5000);
        const std::string got = summaryJson(sys, mix).dump(2) + "\n";

        const std::string path = std::string(CAMO_GOLDEN_DIR) +
                                 "/stats_" + name + ".json";
        std::ifstream is(path);
        ASSERT_TRUE(is) << "missing golden: " << path;
        std::ostringstream want;
        want << is.rdbuf();
        ASSERT_EQ(got, want.str()) << "mitigation " << name;
    }
}

} // namespace
} // namespace camo::sim
