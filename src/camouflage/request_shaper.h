/**
 * @file
 * Request Camouflage (ReqC, paper §III-B2): shapes a core's LLC-miss
 * request stream into a pre-determined inter-arrival distribution and
 * generates fake requests to random addresses from unused credits.
 *
 * Placed after the core's LLC, before the shared channel (Figure 5),
 * so every downstream observer — NoC, MC queue, DRAM, I/O pins — sees
 * only the camouflaged distribution.
 */

#ifndef CAMO_CAMOUFLAGE_REQUEST_SHAPER_H
#define CAMO_CAMOUFLAGE_REQUEST_SHAPER_H

#include <cstdint>
#include <deque>
#include <optional>

#include "src/camouflage/bin_config.h"
#include "src/camouflage/bin_shaper.h"
#include "src/camouflage/monitor.h"
#include "src/common/rng.h"
#include "src/common/stats.h"
#include "src/common/types.h"
#include "src/mem/request.h"
#include "src/obs/registry.h"

namespace camo::shaper {

/** ReqC configuration. */
struct RequestShaperConfig
{
    BinConfig bins;
    bool generateFakes = true;
    /** Fake requests target random non-cached addresses here. */
    Addr fakeAddrBase = 1ULL << 40;
    std::uint64_t fakeAddrRange = 1ULL << 30;
    std::uint32_t queueCap = 64; ///< pending real requests

    /**
     * Non-zero selects the Ascend-style constant-rate baseline
     * instead of bin shaping: one issue slot exactly every
     * `strictSlotInterval` cycles, use-it-or-lose-it (a dummy/fake
     * access fills an empty slot when generateFakes is set). This is
     * the paper's CS comparator [Fletcher'14].
     */
    Cycle strictSlotInterval = 0;

    /**
     * The paper's SIV-B4 hardening: instead of releasing a request
     * the moment a credit becomes eligible, delay it by a uniformly
     * random slack within the credit's inter-arrival interval. This
     * decorrelates fine-grain (intra-replenishment-window) timing at
     * a small latency cost.
     */
    bool randomizeTiming = false;

    /**
     * Extension (see EXPERIMENTS.md): walk fake addresses
     * sequentially instead of uniformly at random. Random fakes are
     * all row-buffer misses, so their DRAM interference signature
     * differs from row-hit-heavy real traffic — a secondary channel
     * the sequential walk closes.
     */
    bool fakeSequential = false;

    /**
     * Extension: fraction of fake transactions issued as (posted)
     * writes. Real LLC-miss traffic is a read/writeback mix; all-read
     * fakes skip the controller's write-drain machinery, which is an
     * observable difference. Matching the mix closes it.
     */
    double fakeWriteFrac = 0.0;
};

/** The per-core request shaping unit.
 *
 * Not a sim::Component: its core's request-pipe station owns it and
 * drives its tick, bound, idle skip, tracer and stats (the release
 * decision is coupled to channel backpressure). */
class RequestShaper final
{
  public:
    RequestShaper(CoreId core, const RequestShaperConfig &cfg,
                  std::uint64_t seed);

    bool canAccept() const { return queue_.size() < cfg_.queueCap; }

    /** A real LLC-miss request enters the shaper at cycle `now`. */
    void push(MemRequest req, Cycle now);

    /**
     * Advance one cycle and possibly release one transaction.
     * @param downstream_ready the shared channel can take a flit.
     * @return the released (real or fake) transaction, if any.
     */
    std::optional<MemRequest> tick(Cycle now, bool downstream_ready);

    void reconfigure(const BinConfig &bins) { bins_.reconfigure(bins); }

    /**
     * Earliest cycle >= `from` at which tick() could do observable
     * work (release, enter a stall, replenish, generate a fake),
     * assuming no push() and a ready downstream until then. Cycles
     * before it are idle and may be batched via skipIdleCycles().
     */
    Cycle nextEventCycle(Cycle from) const;

    /**
     * Account `n` skipped idle cycles exactly as `n` tick() calls in
     * the current (provably idle) state would.
     */
    void skipIdleCycles(Cycle n);

    /** Register "shaper.req.core{i}" and its ".bins". */
    void registerStats(obs::StatRegistry &reg) const;

    /** Runtime fake-generation toggle (the online GA disables fakes
     *  during highest-priority-mode measurement epochs). */
    void setGenerateFakes(bool on) { cfg_.generateFakes = on; }
    bool generateFakes() const { return cfg_.generateFakes; }

    std::size_t queueDepth() const { return queue_.size(); }
    const BinShaper &bins() const { return bins_; }
    /** Mutable credit engine (fault-injection hooks only). */
    BinShaper &binsMut() { return bins_; }
    /** Intrinsic (pre-shaper) stream monitor. */
    DistributionMonitor &preMonitor() { return pre_; }
    /** Shaped (post-shaper) stream monitor. */
    DistributionMonitor &postMonitor() { return post_; }
    const DistributionMonitor &preMonitor() const { return pre_; }
    const DistributionMonitor &postMonitor() const { return post_; }
    const StatGroup &stats() const { return stats_; }

    /** Observability hook; propagates to the bin engine. */
    void
    setTracer(obs::Tracer *tracer)
    {
        tracer_ = tracer;
        bins_.setTracer(tracer, core_);
    }

  private:
    MemRequest makeFake(Cycle now);
    std::optional<MemRequest> tickStrictSlot(Cycle now,
                                             bool downstream_ready);

    CoreId core_;
    RequestShaperConfig cfg_;
    BinShaper bins_;
    std::deque<MemRequest> queue_;
    Rng rng_;
    ReqId nextFakeId_ = 1;
    Cycle randomHoldUntil_ = kNoCycle; ///< SIV-B4 random slack state
    Addr fakeCursor_ = 0;              ///< sequential-fake extension
    DistributionMonitor pre_;
    DistributionMonitor post_;
    StatGroup stats_;
    obs::Tracer *tracer_ = nullptr;
    bool inStall_ = false;
};

} // namespace camo::shaper

#endif // CAMO_CAMOUFLAGE_REQUEST_SHAPER_H
