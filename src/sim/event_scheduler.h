/**
 * @file
 * The discrete-event calendar queue at the heart of the kernel.
 *
 * An EventScheduler tracks, for a fixed set of integer ids (the
 * System uses the component-graph index), the earliest cycle at which
 * each id wants to run. Wakeups land in a calendar of power-of-two
 * buckets keyed by `cycle & (kBuckets - 1)`, so draining one cycle
 * touches one bucket instead of the whole pending set. Each id records
 * the sequence number of the one entry that is its live wakeup, so
 * entries superseded by an earlier wake are dropped lazily instead of
 * searched for -- even one whose cycle the id returns to after a pop.
 *
 * Ordering contract: popDue() returns the ids due at a cycle in the
 * order their wakeups were scheduled (FIFO within a cycle, by a
 * monotonic sequence number). The System kernel additionally sorts
 * the due set into topology order before ticking; generic users get
 * the FIFO guarantee directly.
 *
 * scheduleAt() is a min-merge and the only way in: it only ever moves
 * a wakeup earlier. That makes redundant wake notifications (a wire
 * delivery to a component that is already due sooner) free, and means
 * a stale later entry can never mask an earlier one. A wakeup leaves
 * the calendar only by being popped.
 */

#ifndef CAMO_SIM_EVENT_SCHEDULER_H
#define CAMO_SIM_EVENT_SCHEDULER_H

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/common/types.h"

namespace camo::sim {

class EventScheduler
{
  public:
    /** Calendar width; one bucket per cycle modulo this. */
    static constexpr std::size_t kBuckets = 256;

    explicit EventScheduler(std::size_t ids = 0) { reset(ids); }

    /** Drop every wakeup and resize to `ids` schedulable ids. */
    void reset(std::size_t ids);

    std::size_t ids() const { return wake_.size(); }

    /** Number of ids currently scheduled. */
    std::size_t scheduled() const { return scheduled_; }
    bool empty() const { return scheduled_ == 0; }

    /** The cycle `id` will next run, or kNoCycle if unscheduled. */
    Cycle wakeOf(std::uint32_t id) const { return wake_[id]; }

    /**
     * Wake `id` no later than `at` (min-merge; keeps an earlier
     * pending wakeup). `at == kNoCycle` is a no-op, so callers can
     * feed nextEventCycle() bounds through unconditionally.
     */
    void scheduleAt(std::uint32_t id, Cycle at);

    /**
     * Earliest scheduled cycle across all ids (kNoCycle if none). One
     * cyclic pass over the occupied buckets, starting at the low-water
     * mark's: the first bucket holding a live entry for its own cycle
     * (mark + offset) holds the minimum. If none does within a calendar
     * year, every live wake is a year or more out, and the answer is
     * the least live entry that same pass saw.
     */
    Cycle nextDueCycle() const;

    /**
     * Pop every id due exactly at `cycle` into `out` (cleared first),
     * FIFO by scheduling order. Popped ids become unscheduled.
     */
    void popDue(Cycle cycle, std::vector<std::uint32_t> &out);

  private:
    struct Entry {
        Cycle at;
        std::uint64_t seq;
        std::uint32_t id;
    };

    static std::size_t bucketOf(Cycle at)
    {
        return static_cast<std::size_t>(at) & (kBuckets - 1);
    }

    static constexpr std::uint64_t kNoSeq = ~std::uint64_t{0};

    void insert(std::uint32_t id, Cycle at);
    void markUnscheduled(std::uint32_t id);
    /** Is `e` its id's current wakeup (not superseded or popped)? */
    bool live(const Entry &e) const { return liveSeq_[e.id] == e.seq; }

    // nextDueCycle() prunes stale entries as it scans, hence mutable.
    mutable std::vector<std::vector<Entry>> buckets_;
    /** One bit per bucket: may hold entries (possibly all stale). */
    mutable std::vector<std::uint64_t> nonEmpty_;
    std::vector<Cycle> wake_;
    std::vector<std::uint64_t> liveSeq_; ///< seq of the live entry, per id
    std::vector<Entry> dueScratch_; // popDue working set, reused
    std::uint64_t seq_ = 0;
    std::size_t scheduled_ = 0;

    /**
     * Low-water mark: a lower bound on every live wake. An insert below
     * it lowers it; popDue raises it past a drained minimum; a scan sets
     * it to the minimum it found. `lowWaterExact_` says the mark is the
     * minimum itself (a live wake sits on it), so nextDueCycle() can
     * answer without scanning; popping the mark's cycle clears it.
     */
    mutable Cycle lowWater_ = 0;
    mutable bool lowWaterExact_ = false;
};

} // namespace camo::sim

#endif // CAMO_SIM_EVENT_SCHEDULER_H
