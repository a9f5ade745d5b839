/**
 * @file
 * A single set-associative cache array with LRU replacement.
 *
 * This is the tag/state array only: timing and miss handling live in
 * CacheHierarchy. Write-back, write-allocate.
 */

#ifndef CAMO_CACHE_CACHE_H
#define CAMO_CACHE_CACHE_H

#include <cstdint>
#include <optional>
#include <vector>

#include "src/common/stats.h"
#include "src/common/types.h"

namespace camo::cache {

/** Geometry of one cache level. */
struct CacheConfig
{
    std::uint32_t sizeBytes = 32 * 1024;
    std::uint32_t ways = 4;
    std::uint32_t lineBytes = 64;
    std::uint32_t hitLatency = 4; ///< CPU cycles

    std::uint32_t numSets() const { return sizeBytes / (ways * lineBytes); }
};

/** A line evicted by an insertion. */
struct Eviction
{
    Addr lineAddr = kNoAddr;
    bool dirty = false;
};

/** Set-associative tag array with true-LRU. */
class CacheArray
{
  public:
    explicit CacheArray(const CacheConfig &cfg);

    /** Align an address down to its line base. */
    Addr lineAddrOf(Addr addr) const;

    /** Is the line present? Does not update LRU. */
    bool contains(Addr addr) const;

    /** Is the line present and dirty? */
    bool isDirty(Addr addr) const;

    /**
     * Look up and, on hit, update LRU (and dirty bit if is_write).
     * @return true on hit.
     */
    bool access(Addr addr, bool is_write);

    /**
     * Insert a line (allocating in this set), evicting LRU if needed.
     * @return the evicted line, if a valid line was displaced.
     */
    std::optional<Eviction> insert(Addr addr, bool dirty);

    /** Remove a line if present; @return whether it was dirty. */
    bool invalidate(Addr addr);

    /** Batch-account `n` repeated missing lookups (idle-skip replay
     *  of an MSHR-blocked access retried every cycle). */
    void
    noteRetriedMisses(std::uint64_t n, bool is_write)
    {
        stats_.inc(is_write ? StatName("misses.write")
                            : StatName("misses.read"), n);
    }

    const CacheConfig &config() const { return cfg_; }
    const StatGroup &stats() const { return stats_; }

  private:
    struct Line
    {
        bool valid = false;
        bool dirty = false;
        std::uint64_t tag = 0;
        std::uint64_t lastUse = 0; ///< LRU timestamp
    };

    std::uint32_t setOf(Addr addr) const;
    std::uint64_t tagOf(Addr addr) const;
    Line *find(Addr addr);
    const Line *find(Addr addr) const;

    CacheConfig cfg_;
    std::uint32_t lineBits_;
    std::uint32_t setBits_;
    std::vector<Line> lines_; ///< sets * ways, row-major by set
    std::uint64_t useClock_ = 0;
    StatGroup stats_;
};

} // namespace camo::cache

#endif // CAMO_CACHE_CACHE_H
