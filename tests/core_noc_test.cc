/** @file Tests for the trace-driven core model and the shared channel. */

#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "src/cache/hierarchy.h"
#include "src/core/core.h"
#include "src/noc/channel.h"
#include "src/trace/trace.h"

namespace camo {
namespace {

using core::Core;
using core::CoreConfig;

/** A scriptable trace for testing. */
class ScriptedTrace : public trace::TraceSource
{
  public:
    explicit ScriptedTrace(std::vector<trace::TraceItem> items)
        : items_(std::move(items))
    {
    }
    const std::string &name() const override { return name_; }
    trace::TraceItem
    next(Cycle now) override
    {
        (void)now;
        if (idx_ < items_.size())
            return items_[idx_++];
        trace::TraceItem filler;
        filler.gapInstrs = 100; // endless non-memory tail
        return filler;
    }
    std::size_t consumed() const { return idx_; }

  private:
    std::vector<trace::TraceItem> items_;
    std::size_t idx_ = 0;
    std::string name_ = "scripted";
};

cache::HierarchyConfig
cacheCfg()
{
    cache::HierarchyConfig cfg;
    cfg.l1 = {1024, 2, 64, 4};
    cfg.l2 = {4096, 4, 64, 12};
    cfg.mshrs = 2;
    return cfg;
}

// ---------------------------------------------------------------- Core

TEST(Core, NonMemoryIpcApproachesWidth)
{
    ScriptedTrace trace({});
    cache::CacheHierarchy cache(0, cacheCfg());
    Core core(0, {4, 128}, trace, cache);
    for (Cycle t = 1; t <= 1000; ++t)
        core.tick(t);
    // Pure instruction stream: IPC should approach the 4-wide limit.
    EXPECT_GT(core.ipc(), 3.5);
    EXPECT_EQ(core.memStallCycles(), 0u);
}

TEST(Core, LoadMissStallsUntilFill)
{
    std::vector<trace::TraceItem> items(1);
    items[0].addr = 0x100000;
    ScriptedTrace trace(items);
    cache::CacheHierarchy cache(0, cacheCfg());
    Core core(0, {4, 8}, trace, cache);

    // Run without delivering the fill: the window fills and stalls.
    for (Cycle t = 1; t <= 50; ++t)
        core.tick(t);
    EXPECT_GT(core.memStallCycles(), 10u);
    const auto retired_before = core.retired();

    // Deliver the fill: the core drains.
    const Cycle usable = cache.onFill(0x100000, 60);
    core.onFill(0x100000, usable);
    for (Cycle t = 61; t <= 100; ++t)
        core.tick(t);
    EXPECT_GT(core.retired(), retired_before + 8);
}

TEST(Core, StoresRetireWithoutWaiting)
{
    std::vector<trace::TraceItem> items(1);
    items[0].addr = 0x100000;
    items[0].isWrite = true;
    ScriptedTrace trace(items);
    cache::CacheHierarchy cache(0, cacheCfg());
    Core core(0, {4, 8}, trace, cache);
    for (Cycle t = 1; t <= 100; ++t)
        core.tick(t);
    // The store miss never blocks retirement (posted via store buffer).
    EXPECT_GT(core.ipc(), 3.0);
}

TEST(Core, MshrPressureBlocksDispatch)
{
    // Three distinct-line loads but only 2 MSHRs: the third load's
    // dispatch must wait.
    std::vector<trace::TraceItem> items(3);
    for (int i = 0; i < 3; ++i)
        items[i].addr = 0x100000 + static_cast<Addr>(i) * 64;
    ScriptedTrace trace(items);
    cache::CacheHierarchy cache(0, cacheCfg());
    Core core(0, {4, 64}, trace, cache);
    for (Cycle t = 1; t <= 30; ++t)
        core.tick(t);
    EXPECT_EQ(cache.mshrsInUse(), 2u);
    EXPECT_GT(core.stats().counter("dispatch.blocked"), 0u);
}

TEST(Core, WaitCyclesPausesDispatch)
{
    std::vector<trace::TraceItem> items(2);
    items[0].waitCycles = 500;
    items[1].addr = 0x100000;
    ScriptedTrace trace(items);
    cache::CacheHierarchy cache(0, cacheCfg());
    Core core(0, {4, 128}, trace, cache);
    for (Cycle t = 1; t <= 400; ++t)
        core.tick(t);
    EXPECT_TRUE(cache.outgoing().empty())
        << "no memory traffic during the busy-wait";
    for (Cycle t = 401; t <= 600; ++t)
        core.tick(t);
    EXPECT_EQ(cache.outgoing().size(), 1u);
}

TEST(Core, EpochCountersClear)
{
    ScriptedTrace trace({});
    cache::CacheHierarchy cache(0, cacheCfg());
    Core core(0, {4, 128}, trace, cache);
    for (Cycle t = 1; t <= 100; ++t)
        core.tick(t);
    EXPECT_GT(core.retired(), 0u);
    core.reset();
    EXPECT_EQ(core.retired(), 0u);
    EXPECT_EQ(core.cycles(), 0u);
}

// -------------------------------------------------------- SharedChannel

MemRequest
flit(ReqId id, CoreId core)
{
    MemRequest r;
    r.id = id;
    r.core = core;
    r.addr = 0x1000;
    return r;
}

TEST(Channel, LatencyIsRespected)
{
    noc::ChannelConfig cfg;
    cfg.latency = 6;
    noc::SharedChannel ch(2, cfg);
    ch.push(0, flit(1, 0));
    Cycle t = 0;
    Cycle arrived_at = 0;
    for (; t < 20; ++t) {
        ch.tick(t);
        if (ch.hasEgress(t)) {
            arrived_at = t;
            break;
        }
    }
    EXPECT_GE(arrived_at, cfg.latency);
    EXPECT_EQ(ch.popEgress().id, 1u);
}

TEST(Channel, OneGrantPerCycle)
{
    noc::ChannelConfig cfg;
    cfg.latency = 1;
    noc::SharedChannel ch(4, cfg);
    for (CoreId c = 0; c < 4; ++c)
        ch.push(c, flit(c, c));
    // After one tick only one flit should be in flight.
    ch.tick(1);
    EXPECT_EQ(ch.stats().counter("granted"), 1u);
    ch.tick(2);
    ch.tick(3);
    ch.tick(4);
    EXPECT_EQ(ch.stats().counter("granted"), 4u);
}

TEST(Channel, RoundRobinFairness)
{
    noc::ChannelConfig cfg;
    cfg.latency = 1;
    cfg.ingressCap = 64;
    noc::SharedChannel ch(2, cfg);
    for (int i = 0; i < 20; ++i) {
        ch.push(0, flit(static_cast<ReqId>(100 + i), 0));
        ch.push(1, flit(static_cast<ReqId>(200 + i), 1));
    }
    std::vector<CoreId> order;
    for (Cycle t = 1; order.size() < 40; ++t) {
        ch.tick(t);
        while (ch.hasEgress(t))
            order.push_back(ch.popEgress().core);
        ASSERT_LT(t, 200u);
    }
    // Strict alternation under saturation.
    for (std::size_t i = 1; i < order.size(); ++i)
        EXPECT_NE(order[i], order[i - 1]) << "at " << i;
}

TEST(Channel, BackpressureViaCanAccept)
{
    noc::ChannelConfig cfg;
    cfg.ingressCap = 2;
    noc::SharedChannel ch(1, cfg);
    EXPECT_TRUE(ch.canAccept(0));
    ch.push(0, flit(1, 0));
    ch.push(0, flit(2, 0));
    EXPECT_FALSE(ch.canAccept(0));
    EXPECT_DEATH(ch.push(0, flit(3, 0)), "full ingress");
}

TEST(Channel, FifoPerPort)
{
    noc::ChannelConfig cfg;
    cfg.latency = 3;
    noc::SharedChannel ch(1, cfg);
    for (ReqId i = 1; i <= 5; ++i)
        ch.push(0, flit(i, 0));
    std::vector<ReqId> order;
    for (Cycle t = 1; order.size() < 5; ++t) {
        ch.tick(t);
        while (ch.hasEgress(t))
            order.push_back(ch.popEgress().id);
        ASSERT_LT(t, 100u);
    }
    for (ReqId i = 1; i <= 5; ++i)
        EXPECT_EQ(order[i - 1], i);
}

} // namespace
} // namespace camo
