#include "src/camouflage/bin_shaper.h"

#include <algorithm>

#include "src/common/logging.h"

namespace camo::shaper {

BinShaper::BinShaper(const BinConfig &cfg) : cfg_(cfg)
{
    cfg_.validate();
    credits_ = cfg_.credits;
    unused_.assign(cfg_.numBins(), 0);
    nextReplenish_ = cfg_.replenishPeriod;
}

void
BinShaper::reconfigure(const BinConfig &cfg)
{
    cfg.validate();
    camo_assert(cfg.numBins() == cfg_.numBins(),
                "reconfigure cannot change the hardware bin count");
    cfg_ = cfg;
    credits_ = cfg_.credits;
    std::fill(unused_.begin(), unused_.end(), 0);
    auditPending_ = true;
    stats_.inc("reconfigurations");
}

void
BinShaper::tick(Cycle now)
{
    while (now >= nextReplenish_) {
        // Latch leftovers into the unused-credit registers, then
        // reload (paper §III-A2). Unconsumed fakes are discarded:
        // hardware registers are overwritten, not accumulated.
        for (std::size_t i = 0; i < credits_.size(); ++i) {
            unused_[i] = credits_[i];
            credits_[i] = cfg_.credits[i];
        }
        nextReplenish_ += cfg_.replenishPeriod;
        ++replenishments_;
        stats_.inc("replenishments");
        CAMO_TRACE_EVENT(tracer_, .at = now,
                         .type = obs::EventType::BinReplenish,
                         .core = traceCore_, .arg = unusedTotal());
    }
}

int
BinShaper::eligibleRealBin(Cycle now) const
{
    // Highest credited bin whose lower edge <= gap.
    const std::size_t gap_bin = cfg_.binOf(gapAt(now));
    for (std::size_t i = gap_bin + 1; i-- > 0;) {
        if (credits_[i] > 0)
            return static_cast<int>(i);
    }
    return -1;
}

bool
BinShaper::canIssueReal(Cycle now) const
{
    return eligibleRealBin(now) >= 0;
}

int
BinShaper::consumeReal(Cycle now)
{
    const int bin = eligibleRealBin(now);
    if (bin < 0)
        return -1;
    --credits_[static_cast<std::size_t>(bin)];
    lastIssue_ = now;
    ++realIssued_;
    stats_.inc("issued.real");
    return bin;
}

bool
BinShaper::canIssueFake(Cycle now) const
{
    const std::size_t gap_bin = cfg_.binOf(gapAt(now));
    return unused_[gap_bin] > 0;
}

int
BinShaper::consumeFake(Cycle now)
{
    const std::size_t gap_bin = cfg_.binOf(gapAt(now));
    if (unused_[gap_bin] == 0)
        return -1;
    --unused_[gap_bin];
    lastIssue_ = now;
    ++fakeIssued_;
    stats_.inc("issued.fake");
    return static_cast<int>(gap_bin);
}

Cycle
BinShaper::nextRealEligible(Cycle from) const
{
    // Credited bin i becomes eligible once the gap reaches its lower
    // edge, i.e. at cycle lastIssue_ + edges[i].
    Cycle best = kNoCycle;
    for (std::size_t i = 0; i < credits_.size(); ++i) {
        if (credits_[i] == 0)
            continue;
        const Cycle at = std::max(from, lastIssue_ + cfg_.edges[i]);
        best = std::min(best, at);
    }
    return best;
}

Cycle
BinShaper::nextFakeEligible(Cycle from) const
{
    // A fake charges exactly the bin matching the current gap, so bin
    // i is usable only while the gap lies in [edges[i], edges[i+1]).
    Cycle best = kNoCycle;
    for (std::size_t i = 0; i < unused_.size(); ++i) {
        if (unused_[i] == 0)
            continue;
        const Cycle at = std::max(from, lastIssue_ + cfg_.edges[i]);
        if (i + 1 < cfg_.edges.size() &&
            at >= lastIssue_ + cfg_.edges[i + 1]) {
            continue; // the gap already outgrew this bin
        }
        best = std::min(best, at);
    }
    return best;
}

std::uint32_t
BinShaper::creditsTotal() const
{
    std::uint32_t total = 0;
    for (const std::uint32_t c : credits_)
        total += c;
    return total;
}

void
BinShaper::injectLiveCredits(std::uint32_t value)
{
    std::fill(credits_.begin(), credits_.end(), value);
    auditPending_ = true;
}

void
BinShaper::injectStarvation()
{
    std::fill(credits_.begin(), credits_.end(), 0u);
    std::fill(unused_.begin(), unused_.end(), 0u);
    nextReplenish_ = kNoCycle;
    auditPending_ = true;
}

std::uint32_t
BinShaper::unusedTotal() const
{
    std::uint32_t total = 0;
    for (const std::uint32_t u : unused_)
        total += u;
    return total;
}

} // namespace camo::shaper
