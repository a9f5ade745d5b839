#include "src/camouflage/request_shaper.h"

#include <algorithm>

#include "src/common/logging.h"
#include "src/obs/registry.h"

namespace camo::shaper {

RequestShaper::RequestShaper(CoreId core, const RequestShaperConfig &cfg,
                             std::uint64_t seed)
    : core_(core),
      cfg_(cfg),
      bins_(cfg.bins),
      rng_(seed),
      pre_(cfg.bins.edges),
      post_(cfg.bins.edges)
{
    camo_assert(cfg_.queueCap >= 1, "shaper queue needs capacity");
    camo_assert(cfg_.fakeAddrRange >= 64, "fake address range too small");
}

void
RequestShaper::push(MemRequest req, Cycle now)
{
    camo_assert(canAccept(), "push into a full shaper queue");
    pre_.record(now);
    CAMO_TRACE_EVENT(tracer_, .at = now,
                     .type = obs::EventType::ReqShaperEnqueue,
                     .core = core_, .id = req.id, .addr = req.addr,
                     .arg = queue_.size());
    queue_.push_back(std::move(req));
    stats_.inc("pushed");
}

MemRequest
RequestShaper::makeFake(Cycle now)
{
    MemRequest req;
    req.id = (static_cast<ReqId>(core_) << 48) | (1ULL << 47) |
             nextFakeId_++;
    req.core = core_;
    if (cfg_.fakeSequential) {
        // Extension: sequential walk mimics streaming traffic's
        // row-buffer behaviour.
        fakeCursor_ = (fakeCursor_ + 64) % cfg_.fakeAddrRange;
        req.addr = cfg_.fakeAddrBase + fakeCursor_;
    } else {
        // Non-cached fake read to a random address (paper §III-A2).
        req.addr = cfg_.fakeAddrBase +
                   (rng_.below(cfg_.fakeAddrRange) &
                    ~static_cast<Addr>(63));
    }
    req.isWrite = cfg_.fakeWriteFrac > 0.0 &&
                  rng_.chance(cfg_.fakeWriteFrac);
    req.isFake = true;
    req.created = now;
    req.shaperOut = now;
    return req;
}

std::optional<MemRequest>
RequestShaper::tick(Cycle now, bool downstream_ready)
{
    if (cfg_.strictSlotInterval > 0)
        return tickStrictSlot(now, downstream_ready);

    bins_.tick(now);
    if (!downstream_ready)
        return std::nullopt;

    // Real traffic has strict priority over fake traffic.
    if (!queue_.empty()) {
        if (bins_.canIssueReal(now)) {
            // SIV-B4 randomization: once eligible, hold the head for
            // a uniform slack within the matched bin's interval.
            if (cfg_.randomizeTiming) {
                if (randomHoldUntil_ == kNoCycle) {
                    const std::size_t bin =
                        cfg_.bins.binOf(bins_.gapAt(now));
                    const Cycle lo = cfg_.bins.edges[bin];
                    const Cycle hi = bin + 1 < cfg_.bins.numBins()
                                         ? cfg_.bins.edges[bin + 1]
                                         : lo + (lo > 0 ? lo : 16);
                    const Cycle width = hi > lo ? hi - lo : 1;
                    randomHoldUntil_ = now + rng_.below(width);
                    stats_.inc("randomized.holds");
                }
                if (now < randomHoldUntil_)
                    return std::nullopt;
            }
            if (bins_.consumeReal(now) >= 0) {
                randomHoldUntil_ = kNoCycle;
                inStall_ = false;
                MemRequest req = std::move(queue_.front());
                queue_.pop_front();
                req.shaperOut = now;
                post_.record(now, /*fake=*/false);
                stats_.inc("released.real");
                CAMO_TRACE_EVENT(tracer_, .at = now,
                                 .type =
                                     obs::EventType::ReqShaperRelease,
                                 .core = core_, .id = req.id,
                                 .addr = req.addr,
                                 .arg = now - req.created);
                return req;
            }
        }
        stats_.inc("stalled.cycles");
        if (!inStall_) {
            inStall_ = true;
            CAMO_TRACE_EVENT(tracer_, .at = now,
                             .type = obs::EventType::ReqShaperStall,
                             .core = core_, .id = queue_.front().id,
                             .addr = queue_.front().addr,
                             .arg = queue_.size());
        }
        return std::nullopt;
    }
    randomHoldUntil_ = kNoCycle;
    inStall_ = false;

    // Fake generation: only when no real request wants the slot.
    if (cfg_.generateFakes && bins_.consumeFake(now) >= 0) {
        post_.record(now, /*fake=*/true);
        stats_.inc("released.fake");
        MemRequest fake = makeFake(now);
        CAMO_TRACE_EVENT(tracer_, .at = now,
                         .type = obs::EventType::ReqShaperFake,
                         .core = core_, .id = fake.id,
                         .addr = fake.addr, .arg = fake.isWrite);
        return fake;
    }
    return std::nullopt;
}

Cycle
RequestShaper::nextEventCycle(Cycle from) const
{
    if (cfg_.strictSlotInterval > 0) {
        // Strict-slot mode acts only on slot boundaries (and never
        // ticks the bin engine).
        const Cycle i = cfg_.strictSlotInterval;
        return ((from + i - 1) / i) * i;
    }
    Cycle ev = bins_.nextReplenish();
    if (!queue_.empty()) {
        if (randomHoldUntil_ != kNoCycle) {
            // Holding an eligible head for random slack: nothing
            // happens (not even stall accounting) until it expires.
            ev = std::min(ev, std::max(from, randomHoldUntil_));
        } else if (!inStall_) {
            // Next tick either releases the head or emits the
            // one-shot stall event; it must execute.
            return from;
        } else {
            ev = std::min(ev, bins_.nextRealEligible(from));
        }
    } else if (cfg_.generateFakes) {
        ev = std::min(ev, bins_.nextFakeEligible(from));
    }
    return ev;
}

void
RequestShaper::skipIdleCycles(Cycle n)
{
    if (cfg_.strictSlotInterval > 0)
        return; // off-slot cycles are pure no-ops
    // A credit-starved head accrues stall accounting every cycle (the
    // one-shot stall event already fired: inStall_ is set).
    if (!queue_.empty() && inStall_ && randomHoldUntil_ == kNoCycle)
        stats_.inc("stalled.cycles", n);
}

std::optional<MemRequest>
RequestShaper::tickStrictSlot(Cycle now, bool downstream_ready)
{
    // Ascend semantics: traffic leaves at one single, strictly
    // periodic rate. A slot with no pending request is filled with a
    // dummy access (or wasted, without fake generation).
    if (now % cfg_.strictSlotInterval != 0 || !downstream_ready)
        return std::nullopt;
    if (!queue_.empty()) {
        MemRequest req = std::move(queue_.front());
        queue_.pop_front();
        req.shaperOut = now;
        post_.record(now, /*fake=*/false);
        stats_.inc("released.real");
        CAMO_TRACE_EVENT(tracer_, .at = now,
                         .type = obs::EventType::ReqShaperRelease,
                         .core = core_, .id = req.id, .addr = req.addr,
                         .arg = now - req.created);
        return req;
    }
    if (cfg_.generateFakes) {
        post_.record(now, /*fake=*/true);
        stats_.inc("released.fake");
        MemRequest fake = makeFake(now);
        CAMO_TRACE_EVENT(tracer_, .at = now,
                         .type = obs::EventType::ReqShaperFake,
                         .core = core_, .id = fake.id,
                         .addr = fake.addr, .arg = fake.isWrite);
        return fake;
    }
    stats_.inc("slots.wasted");
    return std::nullopt;
}


void
RequestShaper::registerStats(obs::StatRegistry &reg) const
{
    const std::string name = "shaper.req.core" + std::to_string(core_);
    reg.add(name, &stats_);
    reg.add(name + ".bins", &bins_.stats());
}

} // namespace camo::shaper
