/**
 * @file
 * Trace-driven out-of-order core model (Table II: 2.4 GHz, 4-wide,
 * 128-entry instruction window).
 *
 * The model captures what Camouflage's evaluation needs from a core:
 * memory-level parallelism bounded by the window and the MSHRs, and
 * retirement stalls when the window head waits on memory. Instructions
 * enter the window up to `width` per cycle; non-memory instructions
 * complete next cycle; loads complete when their cache access (or LLC
 * fill) returns; stores retire through a store buffer immediately
 * after issuing their access.
 */

#ifndef CAMO_CORE_CORE_H
#define CAMO_CORE_CORE_H

#include <cstdint>
#include <deque>
#include <map>
#include <optional>
#include <vector>

#include "src/cache/hierarchy.h"
#include "src/common/stats.h"
#include "src/common/types.h"
#include "src/obs/tracer.h"
#include "src/sim/component.h"
#include "src/trace/trace.h"

namespace camo::core {

/** Core pipeline parameters. */
struct CoreConfig
{
    std::uint32_t width = 4;       ///< fetch/retire width
    std::uint32_t windowSize = 128;///< instruction window entries
};

/** One simulated core. */
class Core final : public sim::Component
{
  public:
    Core(CoreId id, const CoreConfig &cfg, trace::TraceSource &trace,
         cache::CacheHierarchy &cache);

    /** Advance one CPU cycle: retire, then dispatch. */
    void tick(Cycle now) override;

    /**
     * An LLC fill for `line` completed; wake loads waiting on it.
     * @param completes_at cycle the data becomes usable.
     */
    void onFill(Addr line, Cycle completes_at);

    CoreId id() const { return id_; }
    std::uint64_t retired() const { return retired_; }
    std::uint64_t cycles() const { return cycles_; }
    double ipc() const
    {
        return cycles_ ? static_cast<double>(retired_) / cycles_ : 0.0;
    }
    /** Cycles the core retired nothing while the window head waited on
     *  a memory access (the MISE alpha numerator). */
    std::uint64_t memStallCycles() const { return memStallCycles_; }
    double
    alpha() const
    {
        return cycles_ ? static_cast<double>(memStallCycles_) / cycles_
                       : 0.0;
    }

    /** Reset retired/cycle/stall counters (epoch boundaries). */
    void reset() override;

    /**
     * Earliest cycle >= `from` at which tick() could make progress
     * (retire an entry, dispatch, fetch trace items). kNoCycle when
     * only an external event (an LLC fill) can unblock the core.
     * Cycles before it are idle; account them via skipIdleCycles().
     */
    Cycle nextEventCycle(Cycle from) const override;

    /** Account `n` skipped idle cycles exactly as `n` tick() calls in
     *  the current (provably idle) state would. */
    void skipIdleCycles(Cycle n) override;

    /** Observability hook (nullptr disables emission); the core's
     *  cache hierarchy emits through the same tracer. */
    void
    attachTracer(obs::Tracer *tracer) override
    {
        tracer_ = tracer;
        cache_.setTracer(tracer);
    }

    /** Registers "core{i}" and the cache's "core{i}.cache". */
    void registerStats(obs::StatRegistry &reg) const override;

    const StatGroup &stats() const { return stats_; }

  private:
    struct Entry
    {
        bool isLoad = false;   ///< waiting-on-memory retirement rule
        Cycle readyAt = 0;     ///< kNoCycle while the fill is pending
        std::uint64_t seq = 0;
    };

    void retire(Cycle now);
    void dispatch(Cycle now);
    bool dispatchMemOp(Cycle now);

    CoreId id_;
    CoreConfig cfg_;
    trace::TraceSource &trace_;
    cache::CacheHierarchy &cache_;

    std::deque<Entry> window_;
    std::uint64_t nextSeq_ = 0;
    /** Loads waiting on an LLC fill: line -> window seq numbers. */
    std::map<Addr, std::vector<std::uint64_t>> waiting_;

    /** Trace decomposition state. */
    std::uint64_t pendingGap_ = 0;
    std::optional<trace::TraceItem> pendingMemOp_;
    Cycle waitUntil_ = 0; ///< busy-wait deadline (wall-clock pacing)
    /** The last dispatch attempt hit MSHR back-pressure; retries are
     *  futile (and batchable) until a fill arrives. */
    bool dispatchBlocked_ = false;

    std::uint64_t retired_ = 0;
    std::uint64_t cycles_ = 0;
    std::uint64_t memStallCycles_ = 0;
    StatGroup stats_;
    obs::Tracer *tracer_ = nullptr;
};

} // namespace camo::core

#endif // CAMO_CORE_CORE_H
