#include "src/core/core.h"

#include <algorithm>

#include "src/common/logging.h"
#include "src/obs/registry.h"

namespace camo::core {

Core::Core(CoreId id, const CoreConfig &cfg, trace::TraceSource &trace,
           cache::CacheHierarchy &cache)
    : sim::Component("core" + std::to_string(id)), id_(id), cfg_(cfg),
      trace_(trace), cache_(cache)
{
    camo_assert(cfg_.width >= 1 && cfg_.windowSize >= cfg_.width,
                "bad core config");
}

void
Core::registerStats(obs::StatRegistry &reg) const
{
    reg.add(name(), &stats_);
    cache_.registerStats(reg);
}

void
Core::reset()
{
    retired_ = 0;
    cycles_ = 0;
    memStallCycles_ = 0;
}

void
Core::retire(Cycle now)
{
    std::uint32_t n = 0;
    while (n < cfg_.width && !window_.empty()) {
        const Entry &head = window_.front();
        if (head.readyAt == kNoCycle || head.readyAt > now)
            break;
        window_.pop_front();
        ++retired_;
        ++n;
    }
    if (n == 0 && !window_.empty() && window_.front().isLoad) {
        ++memStallCycles_;
        stats_.inc("stall.memory");
    }
}

bool
Core::dispatchMemOp(Cycle now)
{
    const trace::TraceItem &op = *pendingMemOp_;
    const auto result = cache_.access(op.addr, op.isWrite, now);

    if (result.kind == cache::AccessKind::Blocked) {
        stats_.inc("dispatch.blocked");
        dispatchBlocked_ = true;
        return false; // retry next cycle; dispatch stalls
    }
    dispatchBlocked_ = false;

    Entry e;
    e.seq = nextSeq_++;
    if (op.isWrite) {
        // Stores drain through the store buffer: retire next cycle.
        e.isLoad = false;
        e.readyAt = now + 1;
    } else {
        e.isLoad = true;
        switch (result.kind) {
          case cache::AccessKind::L1Hit:
          case cache::AccessKind::L2Hit:
            e.readyAt = result.completesAt;
            break;
          case cache::AccessKind::Miss:
          case cache::AccessKind::Coalesced:
            e.readyAt = kNoCycle;
            waiting_[result.lineAddr].push_back(e.seq);
            CAMO_TRACE_EVENT(tracer_, .at = now,
                             .type = obs::EventType::CoreMemIssue,
                             .core = id_, .addr = result.lineAddr,
                             .arg = op.isWrite);
            break;
          case cache::AccessKind::Blocked:
            camo_panic("unreachable");
        }
    }
    window_.push_back(e);
    pendingMemOp_.reset();
    return true;
}

void
Core::dispatch(Cycle now)
{
    if (now < waitUntil_)
        return; // busy-waiting on wall-clock time (TraceItem::waitCycles)
    std::uint32_t n = 0;
    while (n < cfg_.width && window_.size() < cfg_.windowSize) {
        if (pendingGap_ > 0) {
            // A run of non-memory instructions: 1-cycle latency each.
            Entry e;
            e.seq = nextSeq_++;
            e.readyAt = now + 1;
            window_.push_back(e);
            --pendingGap_;
            ++n;
            continue;
        }
        if (pendingMemOp_) {
            if (!dispatchMemOp(now))
                return; // MSHR pressure: stall dispatch entirely
            ++n;
            continue;
        }
        const trace::TraceItem item = trace_.next(now);
        pendingGap_ = item.gapInstrs;
        if (item.hasMemOp())
            pendingMemOp_ = item;
        if (item.waitCycles > 0) {
            waitUntil_ = now + item.waitCycles;
            return; // the rest of the item dispatches after the wait
        }
        if (pendingGap_ == 0 && !pendingMemOp_) {
            // Instruction-only item with zero gap: nothing to do, but
            // avoid spinning forever on degenerate traces.
            pendingGap_ = 1;
        }
    }
}

void
Core::tick(Cycle now)
{
    ++cycles_;
    retire(now);
    dispatch(now);
}

Cycle
Core::nextEventCycle(Cycle from) const
{
    Cycle ev = kNoCycle;
    if (!window_.empty() && window_.front().readyAt != kNoCycle)
        ev = std::max(from, window_.front().readyAt); // head retires
    if (window_.size() < cfg_.windowSize) {
        // Dispatch makes progress once any busy-wait elapses — unless
        // it is stuck retrying an MSHR-blocked access, which only a
        // fill (an external event) can unblock.
        if (!(pendingMemOp_ && dispatchBlocked_))
            ev = std::min(ev, std::max(from, waitUntil_));
    }
    return ev;
}

void
Core::skipIdleCycles(Cycle n)
{
    cycles_ += n;
    // Retirement stalled on a memory-waiting head every skipped cycle.
    if (!window_.empty() && window_.front().isLoad) {
        memStallCycles_ += n;
        stats_.inc("stall.memory", n);
    }
    // An MSHR-blocked dispatch retries (and re-misses the caches)
    // every cycle; replay that accounting in batch.
    if (pendingMemOp_ && dispatchBlocked_ &&
        window_.size() < cfg_.windowSize) {
        stats_.inc("dispatch.blocked", n);
        cache_.noteBlockedRetries(n, pendingMemOp_->isWrite);
    }
}

void
Core::onFill(Addr line, Cycle completes_at)
{
    dispatchBlocked_ = false; // an MSHR freed; retries can succeed
    auto it = waiting_.find(line);
    if (it == waiting_.end())
        return; // store-miss fill: nothing blocked on it
    // Seq numbers map to window positions via the head's seq.
    for (const std::uint64_t seq : it->second) {
        if (window_.empty())
            break;
        const std::uint64_t head_seq = window_.front().seq;
        if (seq < head_seq)
            continue; // already retired (cannot happen for loads)
        const std::size_t idx = static_cast<std::size_t>(seq - head_seq);
        if (idx < window_.size() && window_[idx].seq == seq)
            window_[idx].readyAt = completes_at;
    }
    waiting_.erase(it);
    stats_.inc("fills.received");
}

} // namespace camo::core
