#include "src/cache/cache.h"

#include <bit>

#include "src/common/logging.h"

namespace camo::cache {

CacheArray::CacheArray(const CacheConfig &cfg) : cfg_(cfg)
{
    camo_assert(cfg.lineBytes > 0 && std::has_single_bit(cfg.lineBytes),
                "line size must be a power of two");
    camo_assert(cfg.ways > 0, "cache needs at least one way");
    const std::uint32_t sets = cfg.numSets();
    camo_assert(sets > 0 && std::has_single_bit(sets),
                "set count must be a positive power of two (size=",
                cfg.sizeBytes, " ways=", cfg.ways, ")");
    lineBits_ = static_cast<std::uint32_t>(std::countr_zero(cfg.lineBytes));
    setBits_ = static_cast<std::uint32_t>(std::countr_zero(sets));
    lines_.resize(static_cast<std::size_t>(sets) * cfg.ways);
}

Addr
CacheArray::lineAddrOf(Addr addr) const
{
    return addr & ~((static_cast<Addr>(1) << lineBits_) - 1);
}

std::uint32_t
CacheArray::setOf(Addr addr) const
{
    return static_cast<std::uint32_t>((addr >> lineBits_) &
                                      ((1ULL << setBits_) - 1));
}

std::uint64_t
CacheArray::tagOf(Addr addr) const
{
    return addr >> (lineBits_ + setBits_);
}

CacheArray::Line *
CacheArray::find(Addr addr)
{
    const std::uint32_t set = setOf(addr);
    const std::uint64_t tag = tagOf(addr);
    Line *base = &lines_[static_cast<std::size_t>(set) * cfg_.ways];
    for (std::uint32_t w = 0; w < cfg_.ways; ++w) {
        if (base[w].valid && base[w].tag == tag)
            return &base[w];
    }
    return nullptr;
}

const CacheArray::Line *
CacheArray::find(Addr addr) const
{
    return const_cast<CacheArray *>(this)->find(addr);
}

bool
CacheArray::contains(Addr addr) const
{
    return find(addr) != nullptr;
}

bool
CacheArray::isDirty(Addr addr) const
{
    const Line *line = find(addr);
    return line != nullptr && line->dirty;
}

bool
CacheArray::access(Addr addr, bool is_write)
{
    Line *line = find(addr);
    if (line == nullptr) {
        stats_.inc(is_write ? StatName("misses.write")
                            : StatName("misses.read"));
        return false;
    }
    line->lastUse = ++useClock_;
    if (is_write)
        line->dirty = true;
    stats_.inc(is_write ? StatName("hits.write")
                        : StatName("hits.read"));
    return true;
}

std::optional<Eviction>
CacheArray::insert(Addr addr, bool dirty)
{
    // Refill of a line that is already present just merges state.
    if (Line *line = find(addr)) {
        line->lastUse = ++useClock_;
        line->dirty = line->dirty || dirty;
        return std::nullopt;
    }

    const std::uint32_t set = setOf(addr);
    Line *base = &lines_[static_cast<std::size_t>(set) * cfg_.ways];
    Line *victim = &base[0];
    for (std::uint32_t w = 0; w < cfg_.ways; ++w) {
        if (!base[w].valid) {
            victim = &base[w];
            break;
        }
        if (base[w].lastUse < victim->lastUse)
            victim = &base[w];
    }

    std::optional<Eviction> evicted;
    if (victim->valid) {
        const Addr victim_addr =
            (victim->tag << (lineBits_ + setBits_)) |
            (static_cast<Addr>(set) << lineBits_);
        evicted = Eviction{victim_addr, victim->dirty};
        stats_.inc(victim->dirty ? StatName("evictions.dirty")
                                 : StatName("evictions.clean"));
    }

    victim->valid = true;
    victim->dirty = dirty;
    victim->tag = tagOf(addr);
    victim->lastUse = ++useClock_;
    return evicted;
}

bool
CacheArray::invalidate(Addr addr)
{
    Line *line = find(addr);
    if (line == nullptr)
        return false;
    const bool dirty = line->dirty;
    line->valid = false;
    line->dirty = false;
    return dirty;
}

} // namespace camo::cache
