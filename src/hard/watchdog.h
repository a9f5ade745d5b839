/**
 * @file
 * Forward-progress watchdog for the System run loop.
 *
 * The System polls the watchdog with per-core progress counters
 * (instructions retired + responses served) and a pending-work flag,
 * plus the next cycle anything can happen at (the component graph's
 * nextEventCycle() fold, in both run loops). The watchdog fires when
 *
 *  - a core with pending work has made no progress for a full
 *    window of cycles (a wedged shaper, a starved credit engine), or
 *  - that next cycle is kNoCycle while work is pending — a hard
 *    deadlock the event kernel would otherwise silently skip over,
 *    turning a hang into a wrong result.
 *
 * On firing, the System emits a structured diagnostic dump (stats
 * tree + trace tail + queue occupancy) and throws WatchdogTimeout.
 */

#ifndef CAMO_HARD_WATCHDOG_H
#define CAMO_HARD_WATCHDOG_H

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "src/common/types.h"

namespace camo::hard {

struct WatchdogConfig
{
    /** No-progress window in CPU cycles before firing. */
    Cycle window = 1000000;
    /** Poll throttle (0 = window / 8). */
    Cycle pollPeriod = 0;
    /** Trace events included in the diagnostic dump. */
    std::size_t traceTail = 64;
};

/** One core's progress sample. */
struct CoreProgress
{
    /** Monotone work counter (retired instructions + served reads). */
    std::uint64_t progress = 0;
    /** The core has outstanding work (queued or in-flight). */
    bool pending = false;
};

class Watchdog
{
  public:
    explicit Watchdog(const WatchdogConfig &cfg);

    /** Cheap pre-check: is a full poll due at `now`? Both run loops
     *  ask after every cycle they process. */
    bool due(Cycle now) const { return now >= nextPoll_; }

    /** First cycle at which due() turns true. The event kernel
     *  schedules it like a component wake, so both loops poll at the
     *  same cycles. */
    Cycle nextPoll() const { return nextPoll_; }

    /**
     * Evaluate forward progress. `next_event` is the next cycle any
     * component can act at (kNoCycle = nothing can ever happen).
     * Returns the failure reason when the watchdog fires.
     */
    std::optional<std::string>
    poll(Cycle now, const std::vector<CoreProgress> &cores,
         Cycle next_event);

    const WatchdogConfig &config() const { return cfg_; }

  private:
    struct PerCore
    {
        std::uint64_t progress = 0;
        Cycle lastChange = 0;
        bool seen = false;
    };

    WatchdogConfig cfg_;
    Cycle pollPeriod_;
    Cycle nextPoll_ = 0;
    std::vector<PerCore> cores_;
};

} // namespace camo::hard

#endif // CAMO_HARD_WATCHDOG_H
