/** @file Tests for the cache array and two-level hierarchy. */

#include <cstdint>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "src/cache/cache.h"
#include "src/cache/hierarchy.h"
#include "src/common/rng.h"

namespace camo::cache {
namespace {

// ----------------------------------------------------------- CacheArray

TEST(CacheArray, MissThenHit)
{
    CacheArray c({1024, 2, 64, 1});
    EXPECT_FALSE(c.access(0x100, false));
    c.insert(0x100, false);
    EXPECT_TRUE(c.access(0x100, false));
    EXPECT_TRUE(c.access(0x13f, false)) << "same line, different byte";
    EXPECT_FALSE(c.access(0x140, false)) << "next line";
}

TEST(CacheArray, WriteSetsDirty)
{
    CacheArray c({1024, 2, 64, 1});
    c.insert(0x100, false);
    EXPECT_FALSE(c.isDirty(0x100));
    c.access(0x100, true);
    EXPECT_TRUE(c.isDirty(0x100));
}

TEST(CacheArray, LruEvictsLeastRecentlyUsed)
{
    // 2-way, 64B lines, 8 sets (1KB): lines 0x000, 0x200, 0x400 map
    // to set 0.
    CacheArray c({1024, 2, 64, 1});
    c.insert(0x000, false);
    c.insert(0x200, false);
    c.access(0x000, false); // touch: 0x200 becomes LRU
    const auto ev = c.insert(0x400, false);
    ASSERT_TRUE(ev.has_value());
    EXPECT_EQ(ev->lineAddr, 0x200u);
    EXPECT_TRUE(c.contains(0x000));
    EXPECT_FALSE(c.contains(0x200));
}

TEST(CacheArray, EvictionReportsDirtyBit)
{
    CacheArray c({1024, 2, 64, 1});
    c.insert(0x000, true);
    c.insert(0x200, false);
    const auto ev = c.insert(0x400, false);
    ASSERT_TRUE(ev.has_value());
    EXPECT_EQ(ev->lineAddr, 0x000u);
    EXPECT_TRUE(ev->dirty);
}

TEST(CacheArray, ReinsertMergesDirtyState)
{
    CacheArray c({1024, 2, 64, 1});
    c.insert(0x100, true);
    EXPECT_FALSE(c.insert(0x100, false).has_value());
    EXPECT_TRUE(c.isDirty(0x100)) << "dirty bit must not be lost";
}

TEST(CacheArray, InvalidateReturnsDirty)
{
    CacheArray c({1024, 2, 64, 1});
    c.insert(0x100, true);
    EXPECT_TRUE(c.invalidate(0x100));
    EXPECT_FALSE(c.contains(0x100));
    EXPECT_FALSE(c.invalidate(0x100)) << "already gone";
}

TEST(CacheArray, LineAddrAlignment)
{
    CacheArray c({1024, 2, 64, 1});
    EXPECT_EQ(c.lineAddrOf(0x1234), 0x1200u);
    EXPECT_EQ(c.lineAddrOf(0x1200), 0x1200u);
}

TEST(CacheArray, StatsCountHitsAndMisses)
{
    CacheArray c({1024, 2, 64, 1});
    c.access(0x100, false);
    c.insert(0x100, false);
    c.access(0x100, false);
    c.access(0x100, true);
    EXPECT_EQ(c.stats().counter("misses.read"), 1u);
    EXPECT_EQ(c.stats().counter("hits.read"), 1u);
    EXPECT_EQ(c.stats().counter("hits.write"), 1u);
}

/** Property: capacity is respected — no more lines than size/64. */
TEST(CacheArray, CapacityProperty)
{
    const CacheConfig cfg{4096, 4, 64, 1};
    CacheArray c(cfg);
    Rng rng(3);
    std::set<Addr> inserted;
    std::size_t resident = 0;
    for (int i = 0; i < 3000; ++i) {
        const Addr line = (rng.next() & 0xFFFFF) & ~Addr{63};
        if (!c.contains(line)) {
            const auto ev = c.insert(line, rng.chance(0.5));
            resident += 1;
            if (ev)
                resident -= 1;
        }
        ASSERT_LE(resident, 4096u / 64u);
    }
}

// ------------------------------------------------------ CacheHierarchy

HierarchyConfig
smallConfig()
{
    HierarchyConfig cfg;
    cfg.l1 = {1024, 2, 64, 4};
    cfg.l2 = {4096, 4, 64, 12};
    cfg.mshrs = 4;
    return cfg;
}

TEST(Hierarchy, MissGoesToMemory)
{
    CacheHierarchy h(0, smallConfig());
    const auto r = h.access(0x10000, false, 100);
    EXPECT_EQ(r.kind, AccessKind::Miss);
    EXPECT_EQ(r.lineAddr, 0x10000u);
    const auto &out = h.outgoing();
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0].addr, 0x10000u);
    EXPECT_FALSE(out[0].isWrite);
    EXPECT_EQ(out[0].core, 0u);
}

TEST(Hierarchy, FillMakesSubsequentAccessesHit)
{
    CacheHierarchy h(0, smallConfig());
    h.access(0x10000, false, 100);
    h.clearOutgoing();
    const Cycle done = h.onFill(0x10000, 200);
    EXPECT_GT(done, 200u);
    const auto r = h.access(0x10000, false, 300);
    EXPECT_EQ(r.kind, AccessKind::L1Hit);
    EXPECT_EQ(r.completesAt, 300u + smallConfig().l1.hitLatency);
}

TEST(Hierarchy, L2HitAfterL1Eviction)
{
    CacheHierarchy h(0, smallConfig());
    // Fill a line, then displace it from L1 (1KB, 2-way: lines 0x0,
    // 0x200, 0x400 share a set) while it stays in L2 (4KB, 4-way).
    for (const Addr a : {0x10000u, 0x10200u, 0x10400u}) {
        h.access(a, false, 1);
        h.clearOutgoing();
        h.onFill(a, 10);
    }
    const auto r = h.access(0x10000, false, 100);
    EXPECT_EQ(r.kind, AccessKind::L2Hit);
}

TEST(Hierarchy, CoalescingSecondMissToSameLine)
{
    CacheHierarchy h(0, smallConfig());
    EXPECT_EQ(h.access(0x20000, false, 1).kind, AccessKind::Miss);
    EXPECT_EQ(h.access(0x20020, false, 2).kind, AccessKind::Coalesced)
        << "same 64B line";
    EXPECT_EQ(h.outgoing().size(), 1u) << "one memory request only";
    EXPECT_EQ(h.mshrsInUse(), 1u);
}

TEST(Hierarchy, MshrExhaustionBlocks)
{
    CacheHierarchy h(0, smallConfig());
    for (Addr a = 0; a < 4; ++a)
        EXPECT_EQ(h.access(0x30000 + a * 64, false, 1).kind,
                  AccessKind::Miss);
    EXPECT_FALSE(h.mshrAvailable());
    EXPECT_EQ(h.access(0x40000, false, 2).kind, AccessKind::Blocked);
    // A fill frees the MSHR.
    h.onFill(0x30000, 10);
    EXPECT_TRUE(h.mshrAvailable());
    EXPECT_EQ(h.access(0x40000, false, 11).kind, AccessKind::Miss);
}

TEST(Hierarchy, StoreMissInstallsDirtyAndWritesBack)
{
    CacheHierarchy h(0, smallConfig());
    EXPECT_EQ(h.access(0x50000, true, 1).kind, AccessKind::Miss);
    h.clearOutgoing();
    h.onFill(0x50000, 10);
    EXPECT_TRUE(h.l1().isDirty(0x50000));

    // Push the dirty line all the way out of L2: fill enough lines
    // mapping to the same L2 set (4KB 4-way: stride 0x1000). L1
    // evictions merge into L2 and refresh the dirty line's LRU rank,
    // so it takes several rounds to age it out.
    for (int i = 1; i <= 10; ++i) {
        const Addr a = 0x50000 + static_cast<Addr>(i) * 0x1000;
        h.access(a, false, 100 + i);
        h.clearOutgoing();
        h.onFill(a, 200 + i);
    }
    bool saw_writeback = false;
    // The writeback was emitted during one of the fills above; it was
    // cleared from the outgoing queue already, so count stats instead.
    saw_writeback = h.stats().counter("writebacks") > 0;
    EXPECT_TRUE(saw_writeback);
}

TEST(Hierarchy, FillWithoutMshrPanics)
{
    CacheHierarchy h(0, smallConfig());
    EXPECT_DEATH(h.onFill(0xdead000, 1), "no outstanding MSHR");
}

TEST(Hierarchy, RequestIdsAreUniquePerCore)
{
    CacheHierarchy h(3, smallConfig());
    h.access(0x1000000, false, 1);
    h.access(0x2000000, false, 1);
    const auto &out = h.outgoing();
    ASSERT_EQ(out.size(), 2u);
    EXPECT_NE(out[0].id, out[1].id);
    EXPECT_EQ(out[0].core, 3u);
    EXPECT_EQ(out[0].id >> 48, 3u) << "core id encoded in request id";
}

/** Property: hit rate for a tiny working set approaches 1. */
TEST(Hierarchy, HotSetHitsProperty)
{
    CacheHierarchy h(0, smallConfig());
    Rng rng(9);
    // Working set: 8 lines (fits L1's 16 lines).
    std::uint64_t hits = 0, total = 0;
    for (int i = 0; i < 4000; ++i) {
        const Addr a = (rng.below(8)) * 64;
        const auto r = h.access(a, false, static_cast<Cycle>(i));
        if (r.kind == AccessKind::L1Hit) {
            ++hits;
        } else if (r.kind == AccessKind::Miss) {
            h.clearOutgoing();
            h.onFill(h.l1().lineAddrOf(a), static_cast<Cycle>(i));
        }
        ++total;
    }
    EXPECT_GT(static_cast<double>(hits) / total, 0.95);
}

} // namespace
} // namespace camo::cache
