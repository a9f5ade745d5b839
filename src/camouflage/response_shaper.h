/**
 * @file
 * Response Camouflage (RespC, paper §III-B1 and Figure 6): shapes the
 * memory responses a core observes into a pre-determined inter-arrival
 * distribution.
 *
 * Throttling buffers responses in the response queue until credits are
 * available. Acceleration works two ways: (1) at each replenishment,
 * unused credits are summed and sent to the memory scheduler as a
 * priority warning so the affected core is served faster, and (2) when
 * there is no pending or newly arrived response and unused credits
 * remain, a fake response is generated (Figure 6, case 3).
 */

#ifndef CAMO_CAMOUFLAGE_RESPONSE_SHAPER_H
#define CAMO_CAMOUFLAGE_RESPONSE_SHAPER_H

#include <cstdint>
#include <deque>
#include <optional>

#include "src/camouflage/bin_config.h"
#include "src/camouflage/bin_shaper.h"
#include "src/camouflage/monitor.h"
#include "src/common/stats.h"
#include "src/common/types.h"
#include "src/mem/request.h"
#include "src/obs/registry.h"

namespace camo::shaper {

/** RespC configuration. */
struct ResponseShaperConfig
{
    BinConfig bins;
    bool generateFakes = true;
    /** Ask the MC for priority when credits go unused. */
    bool sendPriorityWarnings = true;
    /**
     * Priority tokens granted per unused credit. The paper grants
     * priority "in proportion to the number of unused credits"; a
     * scale > 1 covers the requests the deficit window starved.
     */
    std::uint32_t boostScale = 1;
    std::uint32_t queueCap = 64; ///< buffered responses
};

/** The per-core response shaping unit at the MC egress.
 *
 * Like RequestShaper, not a sim::Component: its core's response-pipe
 * station owns and drives it. */
class ResponseShaper final
{
  public:
    ResponseShaper(CoreId core, const ResponseShaperConfig &cfg);

    bool canAccept() const { return queue_.size() < cfg_.queueCap; }

    /** A response for this core leaves the memory controller. */
    void push(MemRequest resp, Cycle now);

    /**
     * Advance one cycle and possibly release one response.
     * @param downstream_ready the return channel can take a flit.
     */
    std::optional<MemRequest> tick(Cycle now, bool downstream_ready);

    /**
     * Priority tokens accumulated for the memory scheduler since the
     * last call (the replenishment-time warning payload). The caller
     * forwards them to MemoryController::boostPriority().
     */
    std::uint32_t takePriorityWarning();

    void reconfigure(const BinConfig &bins) { bins_.reconfigure(bins); }

    /** Boost tokens awaiting pickup by takePriorityWarning(). */
    bool hasPendingBoost() const { return pendingBoost_ > 0; }

    /**
     * Earliest cycle >= `from` at which tick() could do observable
     * work, assuming no push() and a ready downstream until then (see
     * RequestShaper::nextEventCycle).
     */
    Cycle nextEventCycle(Cycle from) const;

    /** Account `n` skipped idle cycles (stall accounting only). */
    void skipIdleCycles(Cycle n);

    /** Register "shaper.resp.core{i}" and its ".bins". */
    void registerStats(obs::StatRegistry &reg) const;

    /** Runtime fake-generation toggle. */
    void setGenerateFakes(bool on) { cfg_.generateFakes = on; }
    bool generateFakes() const { return cfg_.generateFakes; }

    std::size_t queueDepth() const { return queue_.size(); }
    const BinShaper &bins() const { return bins_; }
    /** Mutable credit engine (fault-injection hooks only). */
    BinShaper &binsMut() { return bins_; }
    DistributionMonitor &preMonitor() { return pre_; }
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
    MemRequest makeFakeResponse(Cycle now);

    CoreId core_;
    ResponseShaperConfig cfg_;
    BinShaper bins_;
    std::deque<MemRequest> queue_;
    std::uint64_t lastReplenishSeen_ = 0;
    std::uint32_t pendingBoost_ = 0;
    ReqId nextFakeId_ = 1;
    DistributionMonitor pre_;
    DistributionMonitor post_;
    StatGroup stats_;
    obs::Tracer *tracer_ = nullptr;
    bool inStall_ = false;
};

} // namespace camo::shaper

#endif // CAMO_CAMOUFLAGE_RESPONSE_SHAPER_H
