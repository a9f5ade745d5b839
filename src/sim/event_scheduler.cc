#include "src/sim/event_scheduler.h"

#include <algorithm>
#include <bit>

#include "src/common/logging.h"

namespace camo::sim {

void
EventScheduler::reset(std::size_t ids)
{
    buckets_.assign(kBuckets, {});
    nonEmpty_.assign(kBuckets / 64, 0);
    wake_.assign(ids, kNoCycle);
    liveSeq_.assign(ids, kNoSeq);
    dueScratch_.clear();
    seq_ = 0;
    scheduled_ = 0;
    lowWater_ = 0;
    lowWaterExact_ = false;
}

void
EventScheduler::insert(std::uint32_t id, Cycle at)
{
    const std::size_t b = bucketOf(at);
    liveSeq_[id] = seq_;
    buckets_[b].push_back(Entry{at, seq_++, id});
    nonEmpty_[b >> 6] |= std::uint64_t{1} << (b & 63);
    // Every other live wake is >= the mark, so a wake at or below it
    // is the new minimum.
    if (at <= lowWater_) {
        lowWater_ = at;
        lowWaterExact_ = true;
    }
}

void
EventScheduler::markUnscheduled(std::uint32_t id)
{
    if (wake_[id] != kNoCycle) {
        wake_[id] = kNoCycle;
        liveSeq_[id] = kNoSeq;
        --scheduled_;
    }
}

void
EventScheduler::scheduleAt(std::uint32_t id, Cycle at)
{
    if (at == kNoCycle)
        return;
    camo_assert(id < wake_.size(), "scheduleAt: id out of range");
    const Cycle cur = wake_[id];
    if (cur <= at)
        return; // already due no later than `at`
    if (cur == kNoCycle)
        ++scheduled_;
    wake_[id] = at;
    insert(id, at); // a superseded later entry goes stale; dropped lazily
}

Cycle
EventScheduler::nextDueCycle() const
{
    if (scheduled_ == 0)
        return kNoCycle;
    if (lowWaterExact_)
        return lowWater_;
    // Walk the occupied buckets once, cyclically from the mark's
    // bucket; offset k stands for cycle lowWater_ + k. Prune stale
    // entries (superseded by an earlier wake, or popped) on the way.
    const std::size_t start = bucketOf(lowWater_);
    Cycle best = kNoCycle;
    for (std::size_t k = 0; k < kBuckets;) {
        const std::size_t b = (start + k) & (kBuckets - 1);
        const std::uint64_t bits = nonEmpty_[b >> 6] >> (b & 63);
        if (bits == 0) {
            k += 64 - (b & 63); // rest of this bitmap word is empty
            continue;
        }
        k += static_cast<std::size_t>(std::countr_zero(bits));
        if (k >= kBuckets)
            break;
        const std::size_t hit = (start + k) & (kBuckets - 1);
        const Cycle own = lowWater_ + k;
        auto &bucket = buckets_[hit];
        for (std::size_t i = 0; i < bucket.size();) {
            const Entry &e = bucket[i];
            if (!live(e)) {
                bucket[i] = bucket.back();
                bucket.pop_back();
                continue;
            }
            best = std::min(best, e.at);
            ++i;
        }
        if (bucket.empty())
            nonEmpty_[hit >> 6] &= ~(std::uint64_t{1} << (hit & 63));
        // Live wakes are >= the mark, so anything below `own` would
        // have sat in an earlier bucket of this pass for its own cycle.
        if (best == own)
            break;
        ++k;
    }
    lowWater_ = best;
    lowWaterExact_ = true;
    return best;
}

void
EventScheduler::popDue(Cycle cycle, std::vector<std::uint32_t> &out)
{
    out.clear();
    const std::size_t b = bucketOf(cycle);
    auto &bucket = buckets_[b];
    // Collect live entries due now; drop stale ones; keep the rest
    // (same bucket, different calendar year).
    static_assert(sizeof(Entry) <= 24, "Entry stays pop-cheap");
    std::vector<Entry> &due = dueScratch_;
    due.clear();
    for (std::size_t i = 0; i < bucket.size();) {
        const Entry &e = bucket[i];
        if (!live(e)) {
            bucket[i] = bucket.back();
            bucket.pop_back();
            continue;
        }
        if (e.at == cycle) {
            due.push_back(e);
            markUnscheduled(e.id);
            bucket[i] = bucket.back();
            bucket.pop_back();
            continue;
        }
        ++i;
    }
    if (bucket.empty())
        nonEmpty_[b >> 6] &= ~(std::uint64_t{1} << (b & 63));
    // Draining the known minimum leaves every live wake past it.
    if (cycle == lowWater_) {
        lowWater_ = cycle + 1;
        lowWaterExact_ = false;
    }
    if (due.size() > 1) {
        std::sort(due.begin(), due.end(),
                  [](const Entry &a, const Entry &b_) {
                      return a.seq < b_.seq;
                  });
    }
    out.reserve(due.size());
    for (const Entry &e : due)
        out.push_back(e.id);
}

} // namespace camo::sim
