#include "src/sim/stations.h"

#include <algorithm>
#include <array>

#include "src/camouflage/config_port.h"
#include "src/common/logging.h"
#include "src/hard/error.h"

namespace camo::sim {

namespace {

/** LLC misses and writebacks -> the core's miss buffer. */
void
drainCacheOutgoing(PerCore &pc, Cycle now)
{
    std::vector<MemRequest> &out = pc.cache->outgoing();
    if (out.empty())
        return;
    for (MemRequest &req : out) {
        pc.intrinsicMon.record(now);
        pc.missBuffer.push(std::move(req), now);
    }
    pc.cache->clearOutgoing();
}

/** Conservation accounting for one push onto a shared channel. */
void
checkBusPush(Pipeline &pipe, hard::ShaperConservationChecker &cons,
             std::uint32_t core, Cycle now, bool fake, bool fakes_on,
             bool shaper_release)
{
    if (shaper_release)
        cons.onShaperRelease(core, now);
    const std::string v = cons.onBusPush(core, now, fake, fakes_on);
    if (!v.empty())
        pipe.shaperViolation(core, v);
}

/** Audit one shaper's live credits if a write is pending. A failing
 *  shaper stays pending and is audited again next cycle, as the
 *  oracle's every-cycle audit would. */
void
auditCredits(Pipeline &pipe, hard::ShaperConservationChecker &cons,
             std::uint32_t core, shaper::BinShaper &bins)
{
    if (!bins.auditPending())
        return;
    const std::string v = cons.onCreditState(core, bins.credits());
    if (v.empty())
        bins.setAuditPending(false);
    else
        pipe.shaperViolation(core, v);
}

} // namespace

void
FaultApplyStation::tick(Cycle now)
{
    hard::FaultInjector *inj = pipe_.injector;
    if (!inj)
        return;
    for (std::uint32_t i = 0; i < pipe_.cores.size(); ++i) {
        shaper::RequestShaper *req = pipe_.cores[i]->reqPipe->shaper();
        shaper::ResponseShaper *resp = pipe_.cores[i]->respPipe->shaper();
        // Credit faults hit both of a shaped core's credit engines.
        const std::array<shaper::BinShaper *, 2> engines{
            req ? &req->binsMut() : nullptr,
            resp ? &resp->binsMut() : nullptr};
        if ((req || resp) && inj->corruptCreditsDue(i, now)) {
            for (shaper::BinShaper *b : engines)
                if (b)
                    b->injectLiveCredits(2 * shaper::kMaxCreditsPerBin);
        }
        if ((req || resp) && inj->starveCreditsDue(i, now)) {
            for (shaper::BinShaper *b : engines)
                if (b)
                    b->injectStarvation();
        }
        if (req && inj->malformedConfigDue(i, now)) {
            // Round-trip the live configuration through the hardware
            // ConfigPort with a zeroed register image: the decode-side
            // validation must reject it and the old schedule must
            // survive.
            shaper::RegisterFile regs =
                shaper::encodeConfig(req->bins().config());
            std::fill(regs.words.begin(), regs.words.end(), 0u);
            try {
                req->reconfigure(shaper::decodeConfig(regs));
                pipe_.stats.inc("hard.config_accepted_malformed");
            } catch (const hard::ConfigError &) {
                pipe_.stats.inc("hard.config_rejected");
            }
        }
    }
    // Injected state (corrupted credits, armed one-shots, wedges) is
    // observed by the pipe stations and the credit audit: wake them
    // so detection lands on the injection cycle itself.
    for (const auto &pc : pipe_.cores) {
        pc->reqPipe->scheduleAt(now);
        pc->respPipe->scheduleAt(now);
    }
    pipe_.creditCheck->scheduleAt(now);
}

void
CorePipeStation::tick(Cycle now)
{
    drainCacheOutgoing(pc_, now);
    noc::SharedChannel &ch = pipe_.reqChannel;
    hard::FaultInjector *inj = pipe_.injector;

    if (inj) {
        // Shaper-bypass fault: a real request jumps straight onto the
        // shared channel. Preconditions are checked before consulting
        // the injector so the one-shot only latches when it can fire.
        if (!pc_.missBuffer.empty() && ch.canAccept(core_) &&
            inj->leakRequestDue(core_, now)) {
            MemRequest req = pc_.missBuffer.pop();
            req.shaperOut = now;
            push(std::move(req), now, false);
        }
        // Forced fake: a fake issued outside the shaper's schedule.
        if (ch.canAccept(core_) && inj->forceFakeDue(core_, now)) {
            MemRequest fake;
            fake.id = (static_cast<ReqId>(core_) << 48) | (1ULL << 46) |
                      ++pipe_.forcedFakes;
            fake.core = core_;
            fake.isFake = true;
            fake.addr = (static_cast<Addr>(core_) << 40) | (1ULL << 38);
            fake.created = now;
            fake.shaperOut = now;
            push(std::move(fake), now, false);
        }
    }

    if (shaper_) {
        if (inj && inj->reqShaperWedged(core_, now))
            return; // the shaper's clock is gated off: nothing moves
        // Miss buffer -> shaper queue.
        while (!pc_.missBuffer.empty() && shaper_->canAccept())
            shaper_->push(pc_.missBuffer.pop(), now);
        // Shaper -> shared request channel.
        const bool ready = ch.canAccept(core_);
        if (auto released = shaper_->tick(now, ready))
            push(std::move(*released), now, true);
        return;
    }

    // Unshaped: straight to the channel (one per cycle per port).
    if (!pc_.missBuffer.empty() && ch.canAccept(core_)) {
        MemRequest req = pc_.missBuffer.pop();
        req.shaperOut = now;
        push(std::move(req), now, false);
    }
}

/** The one funnel onto the request channel: lifecycle and
 *  conservation accounting happen here so no push skips them.
 *  `shaper_release` marks the shaper's own scheduled releases. */
void
CorePipeStation::push(MemRequest req, Cycle now, bool shaper_release)
{
    const bool tracked = !req.isFake && !req.isWrite;
    if (hard::CheckerSet *chk = pipe_.checkers) {
        if (chk->config().conservation) {
            checkBusPush(pipe_, chk->reqConservation(), core_, now,
                         req.isFake, shaper_ && shaper_->generateFakes(),
                         shaper_release);
        }
        if (chk->config().lifecycle && tracked)
            chk->lifecycle().onIssue(req.id, core_, now);
    }
    if (tracked)
        ++pc_.inflightReads;
    pc_.busMon.record(now, req.isFake);
    pipe_.reqChannel.push(core_, std::move(req), now);
}

void
RespPipeStation::tick(Cycle now)
{
    noc::SharedChannel &ch = pipe_.respChannel;
    if (shaper_) {
        if (pipe_.injector && pipe_.injector->respShaperWedged(core_, now))
            return; // wedged: responses pile up behind it
        while (!pc_.respBuffer.empty() && shaper_->canAccept())
            shaper_->push(pc_.respBuffer.pop(), now);
        // Forward accumulated priority warnings to the scheduler.
        if (const std::uint32_t boost = shaper_->takePriorityWarning()) {
            pipe_.mem.boostPriority(core_, boost);
            // Boost tokens re-segment the controller's candidate pool,
            // which can advance its earliest-pick bound (the
            // FCFS-family head changes); re-derive it this cycle.
            pipe_.mem.scheduleAt(now);
        }
        const bool ready = ch.canAccept(core_);
        if (auto released = shaper_->tick(now, ready))
            push(std::move(*released), now, true);
        return;
    }

    if (!pc_.respBuffer.empty() && ch.canAccept(core_)) {
        MemRequest resp = pc_.respBuffer.pop();
        resp.respShaperOut = now;
        push(std::move(resp), now, false);
    }
}

/** The one funnel onto the response channel (conservation). */
void
RespPipeStation::push(MemRequest resp, Cycle now, bool shaper_release)
{
    hard::CheckerSet *chk = pipe_.checkers;
    if (chk && chk->config().conservation) {
        checkBusPush(pipe_, chk->respConservation(), core_, now,
                     resp.isFake, shaper_ && shaper_->generateFakes(),
                     shaper_release);
    }
    pipe_.respChannel.push(core_, std::move(resp), now);
}

void
RespLinkStation::tick(Cycle now)
{
    // One delivery per cycle: the return channel's bandwidth.
    if (!pipe_.respChannel.hasEgress(now))
        return;
    MemRequest resp = pipe_.respChannel.popEgress(now);
    const std::uint32_t c = resp.core;
    camo_assert(c < pipe_.cores.size(), "response for unknown core");
    PerCore &pc = *pipe_.cores[c];
    resp.delivered = now;
    pc.respMon.record(now, resp.isFake);

    if (resp.isFake) {
        pipe_.stats.inc("responses.fake.dropped");
        CAMO_TRACE_EVENT(&pipe_.tracer, .at = now,
                         .type = obs::EventType::FakeRespDropped,
                         .core = resp.core, .id = resp.id);
        return; // pure bus activity; no core state waits on it
    }

    // Lifecycle retire runs BEFORE the cache fill: a duplicate
    // response must be reported as such, not as the MSHR-bookkeeping
    // panic it would trigger downstream.
    hard::CheckerSet *chk = pipe_.checkers;
    if (chk && chk->config().lifecycle && !resp.isWrite)
        chk->lifecycle().onRetire(resp.id, resp.core, now);
    if (pc.inflightReads > 0)
        --pc.inflightReads;

    CAMO_TRACE_EVENT(&pipe_.tracer, .at = now,
                     .type = obs::EventType::RespDelivered,
                     .core = resp.core, .id = resp.id, .addr = resp.addr,
                     .arg = resp.totalLatency());
    ++pc.servedReads;
    pc.latencySum += resp.totalLatency();
    if (pipe_.recordLatencies)
        pc.latencies.push_back({now, resp.totalLatency()});
    // The fill mutates the core from a later graph position: settle
    // the core's batched idle accounting first (its pre-fill stall
    // state is what those cycles looked like), then apply the fill;
    // the wake lands next cycle — exactly when the oracle's core sees
    // it.
    pc.core->catchUp(now);
    const Cycle usable = pc.cache->onFill(resp.addr, now);
    pc.core->onFill(resp.addr, usable);
    pc.core->scheduleAt(now);
    // Fills can displace dirty lines: collect the writebacks.
    drainCacheOutgoing(pc, now);
}

void
CreditCheckStation::tick(Cycle)
{
    if (!armed())
        return;
    hard::CheckerSet &chk = *pipe_.checkers;
    for (std::uint32_t i = 0; i < pipe_.cores.size(); ++i) {
        const PerCore &pc = *pipe_.cores[i];
        if (shaper::RequestShaper *s = pc.reqPipe->shaper())
            auditCredits(pipe_, chk.reqConservation(), i, s->binsMut());
        if (shaper::ResponseShaper *s = pc.respPipe->shaper())
            auditCredits(pipe_, chk.respConservation(), i, s->binsMut());
    }
}

} // namespace camo::sim
