/** @file Tests for the memory controller and its scheduling policies. */

#include <cstdint>
#include <optional>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/rng.h"
#include "src/mem/controller.h"
#include "src/mem/schedulers.h"

namespace camo::mem {
namespace {

using dram::Cmd;
using dram::DramDevice;
using dram::DramOrganization;
using dram::DramTiming;

ControllerConfig
baseConfig()
{
    ControllerConfig cfg;
    cfg.org.banksPerRank = 8;
    cfg.org.rowBufferBytes = 8192;
    return cfg;
}

MemRequest
makeReq(ReqId id, CoreId core, Addr addr, bool write = false)
{
    MemRequest req;
    req.id = id;
    req.core = core;
    req.addr = addr;
    req.isWrite = write;
    req.created = 0;
    return req;
}

/** Run the controller until `n` responses arrive (or a cycle cap). */
std::vector<MemRequest>
collectResponses(MemoryController &mc, std::size_t n, Cycle &now,
                 Cycle cap = 200000)
{
    std::vector<MemRequest> got;
    while (got.size() < n && now < cap) {
        ++now;
        mc.tick(now);
        mc.drainResponses(now, got);
    }
    return got;
}

// ----------------------------------------------------------- plumbing

TEST(Controller, ReadProducesResponse)
{
    MemoryController mc(baseConfig());
    Cycle now = 0;
    mc.enqueue(makeReq(1, 0, 0x1000), now);
    const auto got = collectResponses(mc, 1, now);
    ASSERT_EQ(got.size(), 1u);
    EXPECT_EQ(got[0].id, 1u);
    EXPECT_GT(got[0].mcDone, 0u);
    // Latency must at least cover ACT + CAS + burst in CPU cycles.
    const auto &t = mc.config().timing;
    const Cycle min_dram = t.tRCD + t.tCL + t.dataCycles();
    EXPECT_GE(got[0].mcDone, min_dram * 18 / 5 / 2);
}

TEST(Controller, WritesArePostedNoResponse)
{
    MemoryController mc(baseConfig());
    Cycle now = 0;
    mc.enqueue(makeReq(1, 0, 0x1000, true), now);
    const auto got = collectResponses(mc, 1, now, 20000);
    EXPECT_TRUE(got.empty());
    EXPECT_EQ(mc.stats().counter("writes.served"), 1u);
}

TEST(Controller, QueueCapacityRespected)
{
    ControllerConfig cfg = baseConfig();
    cfg.readQueueDepth = 4;
    MemoryController mc(cfg);
    for (ReqId i = 0; i < 4; ++i) {
        ASSERT_TRUE(mc.canAccept(false));
        mc.enqueue(makeReq(i, 0, 0x1000 + 64 * i), 0);
    }
    EXPECT_FALSE(mc.canAccept(false));
    EXPECT_TRUE(mc.canAccept(true)) << "write queue is separate";
}

TEST(Controller, ResponsesComeBackForAllReads)
{
    MemoryController mc(baseConfig());
    Cycle now = 0;
    Rng rng(21);
    std::set<ReqId> outstanding;
    ReqId next_id = 1;
    std::size_t delivered = 0;
    std::vector<MemRequest> done;
    for (int step = 0; step < 60000 && delivered < 200; ++step) {
        ++now;
        if (outstanding.size() < 16 && rng.chance(0.05) &&
            mc.canAccept(false)) {
            const ReqId id = next_id++;
            mc.enqueue(makeReq(id, static_cast<CoreId>(rng.below(4)),
                               rng.next() & 0xFFFFFFC0),
                       now);
            outstanding.insert(id);
        }
        mc.tick(now);
        done.clear();
        mc.drainResponses(now, done);
        for (const auto &resp : done) {
            ASSERT_TRUE(outstanding.count(resp.id))
                << "unexpected response " << resp.id;
            outstanding.erase(resp.id);
            ++delivered;
        }
    }
    EXPECT_GE(delivered, 200u);
}

TEST(Controller, RowHitFasterThanRowMiss)
{
    // Two reads to the same row: the second should be served at CAS
    // speed; a read to another row in the same bank pays ACT+PRE.
    MemoryController mc(baseConfig());
    Cycle now = 0;
    mc.enqueue(makeReq(1, 0, 0), now);
    auto first = collectResponses(mc, 1, now);
    ASSERT_EQ(first.size(), 1u);

    const Cycle t_hit_start = now;
    mc.enqueue(makeReq(2, 0, 64 * 8), now); // same row (RowColRankBank)
    auto hit = collectResponses(mc, 1, now);
    ASSERT_EQ(hit.size(), 1u);
    const Cycle hit_latency = hit[0].mcDone - t_hit_start;

    const Cycle t_miss_start = now;
    mc.enqueue(makeReq(3, 0, 1ULL << 30), now); // far row, same-ish bank
    auto miss = collectResponses(mc, 1, now);
    ASSERT_EQ(miss.size(), 1u);
    const Cycle miss_latency = miss[0].mcDone - t_miss_start;

    EXPECT_LT(hit_latency, miss_latency);
}

TEST(Controller, WriteDrainHysteresis)
{
    ControllerConfig cfg = baseConfig();
    cfg.writeDrainHigh = 8;
    cfg.writeDrainLow = 2;
    MemoryController mc(cfg);
    Cycle now = 0;
    for (ReqId i = 0; i < 10; ++i)
        mc.enqueue(makeReq(i, 0, 0x100000 + 64 * i, true), now);
    ASSERT_EQ(mc.writeQueueSize(), 10u);
    for (int i = 0; i < 20000 && mc.writeQueueSize() > 0; ++i) {
        ++now;
        mc.tick(now);
    }
    EXPECT_EQ(mc.writeQueueSize(), 0u);
    EXPECT_EQ(mc.stats().counter("writes.served"), 10u);
}

TEST(Controller, RefreshHappens)
{
    MemoryController mc(baseConfig());
    Cycle now = 0;
    // Run long enough to cover several tREFI (5200 DRAM cycles each,
    // x 3.6 CPU cycles).
    for (int i = 0; i < 80000; ++i) {
        ++now;
        mc.tick(now);
    }
    EXPECT_GE(mc.stats().counter("refresh.issued"), 3u);
    // Debt never runs away.
    EXPECT_LE(mc.device().refreshDebt(0, mc.dramCycle()), 1u);
}

TEST(Controller, PriorityBoostReordersService)
{
    // Saturate with core-0 traffic, then enqueue one boosted core-1
    // read behind it: the boosted read should overtake most of the
    // backlog.
    MemoryController mc(baseConfig());
    Cycle now = 0;
    for (ReqId i = 0; i < 20; ++i)
        mc.enqueue(makeReq(i, 0, (1ULL << 20) * i), now);
    mc.boostPriority(1, 4);
    mc.enqueue(makeReq(100, 1, 0x123400), now);

    std::vector<MemRequest> order = collectResponses(mc, 21, now);
    ASSERT_EQ(order.size(), 21u);
    std::size_t pos = 0;
    for (; pos < order.size(); ++pos) {
        if (order[pos].id == 100)
            break;
    }
    EXPECT_LT(pos, 5u) << "boosted request served near the front";
    // Tokens are consumed by service.
    EXPECT_EQ(mc.priorityTokens(1), 3u);
}

TEST(Controller, HighestPriorityModePreempts)
{
    MemoryController mc(baseConfig());
    Cycle now = 0;
    for (ReqId i = 0; i < 20; ++i)
        mc.enqueue(makeReq(i, 0, (1ULL << 20) * i), now);
    mc.setHighestPriorityCore(1);
    mc.enqueue(makeReq(100, 1, 0x5000), now);
    auto order = collectResponses(mc, 21, now);
    std::size_t pos = 0;
    for (; pos < order.size(); ++pos) {
        if (order[pos].id == 100)
            break;
    }
    EXPECT_LT(pos, 3u);
}

// The controller caches each queue's scheduling pool between changes
// to its inputs. These tests change a priority input with no enqueue
// or erase after it, after the pool has already been built, so a
// missed invalidation would schedule from the stale order.

/** Physical address of (bank, row), column 0, under `cfg`'s mapping. */
Addr
addrAt(const ControllerConfig &cfg, std::uint32_t bank, std::uint32_t row)
{
    dram::DramAddress da;
    da.bank = bank;
    da.row = row;
    return dram::AddressMapper(cfg.org, cfg.mapping).encode(da);
}

/** Records the address of every column write the device issues. */
struct WriteLog final : dram::CommandObserver
{
    void
    onCommand(Cmd cmd, const dram::DramAddress &da, std::uint64_t) override
    {
        if (cmd == Cmd::WR)
            writes.push_back(da);
    }
    std::vector<dram::DramAddress> writes;
};

TEST(Controller, BoostOfAlreadyQueuedCoreReorders)
{
    MemoryController mc(baseConfig());
    Cycle now = 0;
    for (ReqId i = 0; i < 20; ++i)
        mc.enqueue(makeReq(i, 0, (1ULL << 20) * i), now);
    mc.enqueue(makeReq(100, 1, 0x123400), now);
    // Build the pools (the bound derivation reads them), then boost
    // the core whose request is already queued.
    mc.nextEventCycle(now + 1);
    mc.boostPriority(1, 4);

    const std::vector<MemRequest> order = collectResponses(mc, 21, now);
    ASSERT_EQ(order.size(), 21u);
    EXPECT_EQ(order.front().id, 100u)
        << "the boosted request is the first to activate and read";
    EXPECT_EQ(mc.priorityTokens(1), 3u);
}

TEST(Controller, LastTokenRestoresAgeOrder)
{
    // In-order FCFS makes "age order" exact. Core 1 holds one token,
    // spent by its read; its write sits behind an older core-0 write.
    // While the token lasts, the boosted core-1 write heads the write
    // pool but cannot issue (it needs a PRE on the bank the read just
    // activated, held by tRAS). Once the read's CAS spends the last
    // token, the write pool must fall back to age order.
    ControllerConfig cfg = baseConfig();
    cfg.scheduler = SchedulerKind::Fcfs;
    MemoryController mc(cfg);
    WriteLog log;
    mc.setCommandObserver(&log);
    Cycle now = 0;
    mc.enqueue(makeReq(1, 0, addrAt(cfg, 3, 7), true), now);
    mc.enqueue(makeReq(2, 1, addrAt(cfg, 0, 9), true), now);
    mc.enqueue(makeReq(3, 1, addrAt(cfg, 0, 5)), now);
    mc.boostPriority(1, 1);

    const auto reads = collectResponses(mc, 1, now);
    ASSERT_EQ(reads.size(), 1u);
    EXPECT_EQ(mc.priorityTokens(1), 0u);
    while (mc.writeQueueSize() > 0 && now < 20000)
        mc.tick(++now);
    ASSERT_EQ(log.writes.size(), 2u);
    EXPECT_EQ(log.writes[0].bank, 3u) << "older core-0 write first";
    EXPECT_EQ(log.writes[1].bank, 0u);
}

TEST(Controller, ClearingHighestPriorityRestoresAgeOrder)
{
    MemoryController mc(baseConfig());
    Cycle now = 0;
    mc.enqueue(makeReq(1, 0, (1ULL << 20) * 1), now);
    mc.enqueue(makeReq(2, 1, (1ULL << 20) * 2), now);
    mc.setHighestPriorityCore(1);
    mc.nextEventCycle(now + 1); // builds the pool, core 1 first
    mc.setHighestPriorityCore(std::nullopt);

    const auto order = collectResponses(mc, 2, now);
    ASSERT_EQ(order.size(), 2u);
    EXPECT_EQ(order[0].id, 1u) << "the older request is served first";
    EXPECT_EQ(order[1].id, 2u);
}

TEST(Controller, BankPartitioningConfinesCores)
{
    ControllerConfig cfg = baseConfig();
    cfg.bankPartitioning = true;
    cfg.numCores = 4;
    MemoryController mc(cfg);
    Rng rng(33);
    for (CoreId core = 0; core < 4; ++core) {
        std::set<std::uint32_t> banks;
        for (int i = 0; i < 500; ++i)
            banks.insert(
                mc.decode(rng.next() & ~Addr{63}, core).bank);
        EXPECT_LE(banks.size(), 2u) << "core " << core;
        for (const auto b : banks)
            EXPECT_EQ(b / 2, core) << "core " << core << " bank " << b;
    }
}

TEST(Controller, NoPartitioningUsesAllBanks)
{
    MemoryController mc(baseConfig());
    Rng rng(35);
    std::set<std::uint32_t> banks;
    for (int i = 0; i < 2000; ++i)
        banks.insert(mc.decode(rng.next() & ~Addr{63}, 0).bank);
    EXPECT_EQ(banks.size(), 8u);
}

// ----------------------------------------------------------- FR-FCFS

TEST(FrFcfs, PrefersRowHitOverOlderMiss)
{
    DramOrganization org;
    DramTiming timing;
    DramDevice dev(org, timing);
    // Open row 5 in bank 0.
    std::uint64_t t = 0;
    while (!dev.canIssue(Cmd::ACT, {0, 0, 0, 5, 0}, t))
        ++t;
    dev.issue(Cmd::ACT, {0, 0, 0, 5, 0}, t);
    t += timing.tRCD;

    Transaction miss; // older, to a different row
    miss.req = makeReq(1, 0, 0);
    miss.da = {0, 0, 0, 9, 0};
    Transaction hit; // younger, row hit
    hit.req = makeReq(2, 0, 0);
    hit.da = {0, 0, 0, 5, 3};

    SchedView view;
    view.now = t;
    view.device = &dev;
    view.pool = {&miss, &hit};

    FrFcfsScheduler sched;
    Decision d;
    ASSERT_TRUE(sched.pick(view, d));
    EXPECT_EQ(d.kind, Decision::Kind::Cas);
    EXPECT_EQ(d.txnIndex, 1u) << "row hit wins (first-ready)";
}

TEST(FrFcfs, OldestMissGetsActivate)
{
    DramOrganization org;
    DramTiming timing;
    DramDevice dev(org, timing);
    Transaction a, b;
    a.req = makeReq(1, 0, 0);
    a.da = {0, 0, 0, 1, 0};
    b.req = makeReq(2, 0, 0);
    b.da = {0, 0, 1, 1, 0};

    SchedView view;
    view.now = 10;
    view.device = &dev;
    view.pool = {&a, &b};

    FrFcfsScheduler sched;
    Decision d;
    ASSERT_TRUE(sched.pick(view, d));
    EXPECT_EQ(d.kind, Decision::Kind::Act);
    EXPECT_EQ(d.txnIndex, 0u) << "oldest transaction first";
}

TEST(FrFcfs, YoungerRequestCannotCloseClaimedRow)
{
    DramOrganization org;
    DramTiming timing;
    DramDevice dev(org, timing);
    // Open row 5; an older txn targets row 5 (hit, but CAS blocked by
    // tRCD), a younger one targets row 9 in the same bank.
    std::uint64_t t = 0;
    while (!dev.canIssue(Cmd::ACT, {0, 0, 0, 5, 0}, t))
        ++t;
    dev.issue(Cmd::ACT, {0, 0, 0, 5, 0}, t);

    Transaction hit, conflict;
    hit.req = makeReq(1, 0, 0);
    hit.da = {0, 0, 0, 5, 0};
    conflict.req = makeReq(2, 0, 0);
    conflict.da = {0, 0, 0, 9, 0};

    SchedView view;
    view.now = t + 1; // tRCD not yet satisfied: CAS cannot issue
    view.device = &dev;
    view.pool = {&hit, &conflict};

    FrFcfsScheduler sched;
    Decision d;
    // Nothing should issue: the hit waits for tRCD and the younger
    // conflicting transaction must not precharge the claimed bank.
    EXPECT_FALSE(sched.pick(view, d));
}

// ---------------------------------------------------------------- TP

TEST(TemporalPartition, DomainRotation)
{
    TpConfig cfg;
    cfg.turnLength = 100;
    cfg.deadTime = 20;
    cfg.numDomains = 4;
    TemporalPartitionScheduler tp(cfg);
    EXPECT_EQ(tp.domainAt(0), 0u);
    EXPECT_EQ(tp.domainAt(99), 0u);
    EXPECT_EQ(tp.domainAt(100), 1u);
    EXPECT_EQ(tp.domainAt(399), 3u);
    EXPECT_EQ(tp.domainAt(400), 0u);
}

TEST(TemporalPartition, DeadTimeBlocksIssue)
{
    TpConfig cfg;
    cfg.turnLength = 100;
    cfg.deadTime = 20;
    cfg.numDomains = 2;
    TemporalPartitionScheduler tp(cfg);
    EXPECT_EQ(tp.usableRemaining(0), 80u);
    EXPECT_EQ(tp.usableRemaining(79), 1u);
    EXPECT_EQ(tp.usableRemaining(80), 0u);
    EXPECT_EQ(tp.usableRemaining(99), 0u);

    DramOrganization org;
    DramTiming timing;
    DramDevice dev(org, timing);
    Transaction txn;
    txn.req = makeReq(1, 0, 0);
    txn.da = {0, 0, 0, 1, 0};
    SchedView view;
    view.now = 85; // dead time of domain 0's turn
    view.device = &dev;
    view.pool = {&txn};
    Decision d;
    EXPECT_FALSE(tp.pick(view, d));
}

TEST(TemporalPartition, OnlyOwningDomainServed)
{
    TpConfig cfg;
    cfg.turnLength = 100;
    cfg.deadTime = 20;
    cfg.numDomains = 2;
    TemporalPartitionScheduler tp(cfg);

    DramOrganization org;
    DramTiming timing;
    DramDevice dev(org, timing);
    Transaction c0, c1;
    c0.req = makeReq(1, 0, 0);
    c0.da = {0, 0, 0, 1, 0};
    c1.req = makeReq(2, 1, 0);
    c1.da = {0, 0, 1, 1, 0};

    SchedView view;
    view.device = &dev;
    view.pool = {&c0, &c1};

    view.now = 10; // domain 0's turn
    Decision d;
    ASSERT_TRUE(tp.pick(view, d));
    EXPECT_EQ(d.txnIndex, 0u);

    view.now = 110; // domain 1's turn
    ASSERT_TRUE(tp.pick(view, d));
    EXPECT_EQ(d.txnIndex, 1u);
}

// ---------------------------------------------------------------- FS

TEST(FixedService, ConstantPerCoreSpacing)
{
    FsConfig cfg;
    cfg.servicePeriod = 50;
    cfg.numCores = 2;
    FixedServiceScheduler fs(cfg);
    EXPECT_EQ(fs.nextSlot(0), 0u);
    fs.onCasIssued(0, 10);
    EXPECT_EQ(fs.nextSlot(0), 60u);
    fs.onCasIssued(0, 60);
    EXPECT_EQ(fs.nextSlot(0), 110u);
    // A late CAS still books the next slot one period after service.
    fs.onCasIssued(1, 500);
    EXPECT_EQ(fs.nextSlot(1), 550u);
}

TEST(FixedService, NotDueNotServed)
{
    FsConfig cfg;
    cfg.servicePeriod = 50;
    cfg.numCores = 1;
    FixedServiceScheduler fs(cfg);
    fs.onCasIssued(0, 0);

    DramOrganization org;
    DramTiming timing;
    DramDevice dev(org, timing);
    Transaction txn;
    txn.req = makeReq(1, 0, 0);
    txn.da = {0, 0, 0, 1, 0};
    SchedView view;
    view.device = &dev;
    view.pool = {&txn};
    Decision d;
    view.now = 20;
    EXPECT_FALSE(fs.pick(view, d)) << "core 0's slot is at 50";
    view.now = 50;
    EXPECT_TRUE(fs.pick(view, d));
}

/** Property: under FS the end-to-end CAS spacing per core is never
 *  below the service period. */
TEST(FixedService, EndToEndSpacingProperty)
{
    ControllerConfig cfg = baseConfig();
    cfg.scheduler = SchedulerKind::FixedService;
    cfg.fs.servicePeriod = 40;
    cfg.fs.numCores = 2;
    MemoryController mc(cfg);
    Cycle now = 0;
    Rng rng(41);
    ReqId id = 1;
    std::vector<std::uint64_t> served_at; // DRAM cycles of core-0 CAS
    std::uint64_t last_served = 0;
    std::uint64_t count = 0;
    std::vector<MemRequest> done;
    for (int i = 0; i < 120000; ++i) {
        ++now;
        if (mc.canAccept(false) && rng.chance(0.1))
            mc.enqueue(makeReq(id++, 0, rng.next() & ~Addr{63}), now);
        const auto before = mc.stats().counter("reads.served");
        mc.tick(now);
        if (mc.stats().counter("reads.served") > before) {
            const std::uint64_t t = mc.dramCycle();
            if (count > 0) {
                ASSERT_GE(t - last_served, cfg.fs.servicePeriod);
            }
            last_served = t;
            ++count;
        }
        done.clear();
        mc.drainResponses(now, done);
    }
    EXPECT_GT(count, 50u);
}

} // namespace
} // namespace camo::mem
