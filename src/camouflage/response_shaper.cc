#include "src/camouflage/response_shaper.h"

#include <algorithm>

#include "src/common/logging.h"
#include "src/obs/registry.h"

namespace camo::shaper {

ResponseShaper::ResponseShaper(CoreId core, const ResponseShaperConfig &cfg)
    : core_(core),
      cfg_(cfg),
      bins_(cfg.bins),
      pre_(cfg.bins.edges),
      post_(cfg.bins.edges)
{
    camo_assert(cfg_.queueCap >= 1, "response queue needs capacity");
}

void
ResponseShaper::push(MemRequest resp, Cycle now)
{
    camo_assert(canAccept(), "push into a full response queue");
    pre_.record(now, resp.isFake);
    CAMO_TRACE_EVENT(tracer_, .at = now,
                     .type = obs::EventType::RespShaperEnqueue,
                     .core = core_, .id = resp.id, .addr = resp.addr,
                     .arg = queue_.size());
    queue_.push_back(std::move(resp));
    stats_.inc("pushed");
}

MemRequest
ResponseShaper::makeFakeResponse(Cycle now)
{
    MemRequest resp;
    resp.id = (static_cast<ReqId>(core_) << 48) | (1ULL << 46) |
              nextFakeId_++;
    resp.core = core_;
    resp.addr = kNoAddr;
    resp.isFake = true;
    resp.created = now;
    resp.mcDone = now;
    resp.respShaperOut = now;
    return resp;
}

std::optional<MemRequest>
ResponseShaper::tick(Cycle now, bool downstream_ready)
{
    bins_.tick(now);

    // At each replenishment, sum the unused credits and warn the
    // memory scheduler (paper: priority proportional to unused
    // credits). takePriorityWarning() hands the tokens to the MC.
    if (cfg_.sendPriorityWarnings &&
        bins_.replenishments() > lastReplenishSeen_) {
        lastReplenishSeen_ = bins_.replenishments();
        const std::uint32_t unused = bins_.unusedTotal();
        if (unused > 0) {
            pendingBoost_ += unused * cfg_.boostScale;
            stats_.inc("warnings.sent");
            stats_.inc("warnings.tokens", unused * cfg_.boostScale);
            CAMO_TRACE_EVENT(tracer_, .at = now,
                             .type = obs::EventType::PriorityBoost,
                             .core = core_,
                             .arg = unused * cfg_.boostScale);
        }
    }

    if (!downstream_ready)
        return std::nullopt;

    // Case 1 (Figure 6): pending responses are served first.
    if (!queue_.empty()) {
        if (bins_.consumeReal(now) >= 0) {
            inStall_ = false;
            MemRequest resp = std::move(queue_.front());
            queue_.pop_front();
            resp.respShaperOut = now;
            post_.record(now, resp.isFake);
            stats_.inc("released.real");
            CAMO_TRACE_EVENT(tracer_, .at = now,
                             .type =
                                 obs::EventType::RespShaperRelease,
                             .core = core_, .id = resp.id,
                             .addr = resp.addr,
                             .arg = now - resp.created);
            return resp;
        }
        stats_.inc("stalled.cycles");
        if (!inStall_) {
            inStall_ = true;
            CAMO_TRACE_EVENT(tracer_, .at = now,
                             .type = obs::EventType::RespShaperStall,
                             .core = core_, .id = queue_.front().id,
                             .addr = queue_.front().addr,
                             .arg = queue_.size());
        }
        return std::nullopt;
    }
    inStall_ = false;

    // Case 3: no pending or new responses, unused credits remain ->
    // fake response keeps the observed distribution fixed.
    if (cfg_.generateFakes && bins_.consumeFake(now) >= 0) {
        post_.record(now, /*fake=*/true);
        stats_.inc("released.fake");
        MemRequest fake = makeFakeResponse(now);
        CAMO_TRACE_EVENT(tracer_, .at = now,
                         .type = obs::EventType::RespShaperFake,
                         .core = core_, .id = fake.id);
        return fake;
    }
    return std::nullopt;
}

Cycle
ResponseShaper::nextEventCycle(Cycle from) const
{
    Cycle ev = bins_.nextReplenish();
    if (!queue_.empty()) {
        if (!inStall_)
            return from; // releases or emits the stall event
        ev = std::min(ev, bins_.nextRealEligible(from));
    } else if (cfg_.generateFakes) {
        ev = std::min(ev, bins_.nextFakeEligible(from));
    }
    return ev;
}

void
ResponseShaper::skipIdleCycles(Cycle n)
{
    if (!queue_.empty() && inStall_)
        stats_.inc("stalled.cycles", n);
}

std::uint32_t
ResponseShaper::takePriorityWarning()
{
    const std::uint32_t boost = pendingBoost_;
    pendingBoost_ = 0;
    return boost;
}


void
ResponseShaper::registerStats(obs::StatRegistry &reg) const
{
    const std::string name = "shaper.resp.core" + std::to_string(core_);
    reg.add(name, &stats_);
    reg.add(name + ".bins", &bins_.stats());
}

} // namespace camo::shaper
