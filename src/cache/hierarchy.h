/**
 * @file
 * Per-core two-level cache hierarchy with miss status handling
 * registers (Table II: 32KB 4-way L1, 128KB 8-way private L2/LLC,
 * 64B lines, 8 MSHRs).
 *
 * The hierarchy turns a core's load/store stream into the LLC-miss
 * transaction stream that Camouflage shapes: read fills for misses and
 * posted writes for dirty evictions.
 */

#ifndef CAMO_CACHE_HIERARCHY_H
#define CAMO_CACHE_HIERARCHY_H

#include <cstdint>
#include <map>
#include <set>
#include <vector>

#include "src/cache/cache.h"
#include "src/common/stats.h"
#include "src/common/types.h"
#include "src/mem/request.h"
#include "src/obs/tracer.h"
#include "src/sim/component.h"

namespace camo::cache {

/** Outcome classes of a core-side access. */
enum class AccessKind
{
    L1Hit,    ///< completes after L1 latency
    L2Hit,    ///< completes after L2 latency
    Miss,     ///< LLC miss issued to memory; completes on fill
    Coalesced,///< attached to an outstanding miss to the same line
    Blocked,  ///< no MSHR available; retry later
};

/** Result of CacheHierarchy::access(). */
struct AccessResult
{
    AccessKind kind = AccessKind::Blocked;
    /** Completion cycle for hits; kNoCycle for misses (fill decides). */
    Cycle completesAt = kNoCycle;
    /** For Miss/Coalesced: the line whose fill completes this access. */
    Addr lineAddr = kNoAddr;
};

/** Hierarchy configuration. */
struct HierarchyConfig
{
    CacheConfig l1{32 * 1024, 4, 64, 4};
    CacheConfig l2{128 * 1024, 8, 64, 12};
    std::uint32_t mshrs = 8; ///< outstanding distinct LLC-miss lines
    /**
     * Next-line prefetch on LLC miss: fetch line+1 alongside each
     * demand miss when an MSHR is free. Note for security studies:
     * prefetch traffic flows through the Camouflage shapers like all
     * other LLC-miss traffic, so it is shaped (and counted) too.
     */
    bool nextLinePrefetch = false;
};

/** One core's L1 + L2 and the memory-facing miss machinery.
 *
 * Passive: it acts only when its core calls access() or the response
 * path calls onFill(), so it has no clock of its own and is not a
 * sim::Component. The owning core forwards its tracer and stats
 * ("core{i}.cache"). Each request it appends to the outgoing queue
 * wakes the subscribed consumer (the core's request-pipe station) at
 * the cycle the request was minted. */
class CacheHierarchy final
{
  public:
    CacheHierarchy(CoreId core, const HierarchyConfig &cfg);

    /**
     * Perform a demand access.
     * Misses (and dirty-eviction writebacks) append MemRequests to the
     * outgoing queue read through outgoing().
     */
    AccessResult access(Addr addr, bool is_write, Cycle now);

    /**
     * Deliver a memory read response for `lineAddr`.
     * Fills L2 then L1, releases the MSHR, and may enqueue writeback
     * requests for displaced dirty lines.
     * @return completion cycle for the accesses waiting on this line.
     */
    Cycle onFill(Addr lineAddr, Cycle now);

    /** Memory-bound requests produced since the last clearOutgoing();
     *  read in place, then clear, to drain without reallocating per
     *  miss. */
    std::vector<MemRequest> &outgoing() { return outgoing_; }
    void clearOutgoing() { outgoing_.clear(); }

    /** Wake `consumer` whenever a request lands on the outgoing
     *  queue; nullptr unsubscribes. */
    void subscribe(sim::Component *consumer) { consumer_ = consumer; }

    /** Batch-account `n` cycles of an MSHR-blocked access being
     *  retried (idle-skip replay: each retry re-misses L1 and L2 and
     *  records a blocked access here). */
    void noteBlockedRetries(std::uint64_t n, bool is_write);

    std::uint32_t mshrsInUse() const
    {
        return static_cast<std::uint32_t>(mshr_.size());
    }
    bool mshrAvailable() const { return mshr_.size() < cfg_.mshrs; }
    bool hasOutstanding(Addr lineAddr) const
    {
        return mshr_.count(lineAddr) > 0;
    }

    const CacheArray &l1() const { return l1_; }
    const CacheArray &l2() const { return l2_; }
    const HierarchyConfig &config() const { return cfg_; }
    const StatGroup &stats() const { return stats_; }

    /** Observability hook (nullptr disables emission). */
    void setTracer(obs::Tracer *tracer) { tracer_ = tracer; }

    /** Register the stats under "core{i}.cache". */
    void registerStats(obs::StatRegistry &reg) const;

  private:
    void emitWriteback(Addr lineAddr, Cycle now);
    MemRequest makeRequest(Addr addr, bool is_write, Cycle now);
    /** Append `req` to the outgoing queue and wake the consumer. */
    void pushOutgoing(MemRequest req, Cycle now);

    CoreId core_;
    HierarchyConfig cfg_;
    CacheArray l1_;
    CacheArray l2_;
    /** Outstanding LLC misses: line address -> number of coalesced
     *  demand accesses waiting on the fill. */
    std::map<Addr, std::uint32_t> mshr_;
    /** Lines whose outstanding miss was caused by a store
     *  (write-allocate: the fill installs them dirty). */
    std::set<Addr> pendingStoreLines_;
    std::vector<MemRequest> outgoing_;
    ReqId nextId_ = 1;
    StatGroup stats_;
    obs::Tracer *tracer_ = nullptr;
    sim::Component *consumer_ = nullptr;
};

} // namespace camo::cache

#endif // CAMO_CACHE_HIERARCHY_H
