#include "src/cache/hierarchy.h"

#include "src/common/logging.h"
#include "src/obs/registry.h"

namespace camo::cache {

CacheHierarchy::CacheHierarchy(CoreId core, const HierarchyConfig &cfg)
    : core_(core), cfg_(cfg), l1_(cfg.l1), l2_(cfg.l2)
{
    camo_assert(cfg.l1.lineBytes == cfg.l2.lineBytes,
                "L1/L2 line sizes must match");
    camo_assert(cfg.mshrs >= 1, "need at least one MSHR");
}

void
CacheHierarchy::registerStats(obs::StatRegistry &reg) const
{
    reg.add("core" + std::to_string(core_) + ".cache", &stats_);
}

MemRequest
CacheHierarchy::makeRequest(Addr addr, bool is_write, Cycle now)
{
    MemRequest req;
    req.id = (static_cast<ReqId>(core_) << 48) | nextId_++;
    req.core = core_;
    req.addr = addr;
    req.isWrite = is_write;
    req.created = now;
    return req;
}

void
CacheHierarchy::pushOutgoing(MemRequest req, Cycle now)
{
    outgoing_.push_back(std::move(req));
    if (consumer_ != nullptr)
        consumer_->scheduleAt(now);
}

void
CacheHierarchy::emitWriteback(Addr lineAddr, Cycle now)
{
    pushOutgoing(makeRequest(lineAddr, true, now), now);
    stats_.inc("writebacks");
    CAMO_TRACE_EVENT(tracer_, .at = now,
                     .type = obs::EventType::CacheWriteback,
                     .core = core_, .id = outgoing_.back().id,
                     .addr = lineAddr);
}

AccessResult
CacheHierarchy::access(Addr addr, bool is_write, Cycle now)
{
    const Addr line = l1_.lineAddrOf(addr);
    stats_.inc(is_write ? StatName("accesses.write")
                        : StatName("accesses.read"));

    if (l1_.access(addr, is_write))
        return {AccessKind::L1Hit, now + cfg_.l1.hitLatency, line};

    if (l2_.access(addr, /*is_write=*/false)) {
        // Fill L1 from L2; a displaced dirty L1 line merges into L2.
        if (auto ev = l1_.insert(line, is_write)) {
            if (ev->dirty) {
                if (auto l2ev = l2_.insert(ev->lineAddr, true);
                    l2ev && l2ev->dirty) {
                    emitWriteback(l2ev->lineAddr, now);
                }
            }
        }
        return {AccessKind::L2Hit, now + cfg_.l2.hitLatency, line};
    }

    // LLC miss. Coalesce into an outstanding fill when possible.
    if (auto it = mshr_.find(line); it != mshr_.end()) {
        ++it->second;
        stats_.inc("mshr.coalesced");
        return {AccessKind::Coalesced, kNoCycle, line};
    }
    if (!mshrAvailable()) {
        stats_.inc("mshr.blocked");
        return {AccessKind::Blocked, kNoCycle, line};
    }

    mshr_.emplace(line, 1);
    MemRequest req = makeRequest(line, false, now);
    // A store miss fetches the line (write-allocate); the dirty bit is
    // set at fill time via the pendingStoreMiss marker below.
    if (is_write)
        pendingStoreLines_.insert(line);
    pushOutgoing(req, now);
    stats_.inc("llc.misses");
    CAMO_TRACE_EVENT(tracer_, .at = now,
                     .type = obs::EventType::LlcMiss, .core = core_,
                     .id = req.id, .addr = line, .arg = 0);

    // Optional next-line prefetch riding on the demand miss.
    if (cfg_.nextLinePrefetch) {
        const Addr next = line + cfg_.l2.lineBytes;
        if (mshrAvailable() && !mshr_.count(next) &&
            !l2_.contains(next)) {
            mshr_.emplace(next, 0); // no demand access waits on it
            pushOutgoing(makeRequest(next, false, now), now);
            stats_.inc("prefetches.issued");
            CAMO_TRACE_EVENT(tracer_, .at = now,
                             .type = obs::EventType::LlcMiss,
                             .core = core_,
                             .id = outgoing_.back().id, .addr = next,
                             .arg = 1);
        }
    }
    return {AccessKind::Miss, kNoCycle, line};
}

Cycle
CacheHierarchy::onFill(Addr lineAddr, Cycle now)
{
    auto it = mshr_.find(lineAddr);
    camo_assert(it != mshr_.end(),
                "fill for a line with no outstanding MSHR: ", lineAddr);
    mshr_.erase(it);

    const bool dirty = pendingStoreLines_.erase(lineAddr) > 0;

    // Fill L2 (dirty evictions go to memory), then L1.
    if (auto l2ev = l2_.insert(lineAddr, dirty); l2ev && l2ev->dirty)
        emitWriteback(l2ev->lineAddr, now);
    if (auto l1ev = l1_.insert(lineAddr, dirty)) {
        if (l1ev->dirty) {
            if (auto l2ev = l2_.insert(l1ev->lineAddr, true);
                l2ev && l2ev->dirty) {
                emitWriteback(l2ev->lineAddr, now);
            }
        }
    }
    stats_.inc("fills");
    return now + cfg_.l1.hitLatency; // fill-to-use forwarding latency
}

void
CacheHierarchy::noteBlockedRetries(std::uint64_t n, bool is_write)
{
    stats_.inc(is_write ? StatName("accesses.write")
                        : StatName("accesses.read"), n);
    stats_.inc("mshr.blocked", n);
    l1_.noteRetriedMisses(n, is_write);
    l2_.noteRetriedMisses(n, /*is_write=*/false); // L2 probes as reads
}

} // namespace camo::cache
