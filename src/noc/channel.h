/**
 * @file
 * The shared on-chip channel between cores and the memory controller
 * (leakage points SC1/SC5 in the paper's Figure 5).
 *
 * One direction of traffic: per-port ingress queues, a round-robin
 * arbiter granting one transfer per cycle (the shared-bandwidth
 * bottleneck that creates cross-domain interference), and a fixed
 * pipeline latency to the egress queue. The queues are typed
 * sim::Wire links so backpressure is uniform with the rest of the
 * component graph.
 */

#ifndef CAMO_NOC_CHANNEL_H
#define CAMO_NOC_CHANNEL_H

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "src/common/stats.h"
#include "src/common/types.h"
#include "src/mem/request.h"
#include "src/obs/tracer.h"
#include "src/sim/component.h"
#include "src/sim/wire.h"

namespace camo::noc {

/** Channel parameters. */
struct ChannelConfig
{
    std::uint32_t latency = 6;     ///< pipeline cycles port -> egress
    std::uint32_t ingressCap = 16; ///< per-port queue entries
    std::uint32_t egressCap = 32;  ///< egress queue entries
};

/** One direction of the shared channel. */
class SharedChannel final : public sim::Component
{
  public:
    SharedChannel(std::uint32_t num_ports, const ChannelConfig &cfg,
                  std::string name = "noc",
                  obs::EventType grant_type =
                      obs::EventType::ReqChannelGrant);

    bool canAccept(std::uint32_t port) const;
    void push(std::uint32_t port, MemRequest req);

    /** Cycle-stamped push: additionally schedules this channel to
     *  arbitrate at `now` through its WakeSink (event kernel). */
    void
    push(std::uint32_t port, MemRequest req, Cycle now)
    {
        push(port, std::move(req));
        scheduleAt(now);
    }

    /** Wake `consumer` whenever a flit lands on the egress queue
     *  (the downstream link station); nullptr unsubscribes. */
    void subscribeEgress(sim::Component *consumer)
    {
        egress_.subscribe(consumer);
    }

    /** Arbitrate (1 grant/cycle) and advance the pipeline. */
    void tick(Cycle now) override;

    bool hasEgress(Cycle now) const;
    const MemRequest &egressFront() const;
    MemRequest popEgress();

    /** Cycle-stamped pop: additionally wakes the channel so a
     *  pipeline flit held back by the freed egress slot advances on
     *  the next cycle (event kernel; matches the per-cycle order where
     *  the channel ticks before the consuming link station). */
    MemRequest
    popEgress(Cycle now)
    {
        MemRequest req = popEgress();
        if (!pipe_.empty())
            scheduleAt(std::max(now + 1, pipe_.front().arrivesAt));
        return req;
    }

    /**
     * Earliest cycle >= `from` at which the channel itself could do
     * work: immediately while any ingress holds flits (a grant happens
     * every cycle), at the head-of-pipe arrival while the egress queue
     * has space, kNoCycle otherwise. A pipeline blocked on a full
     * egress queue sleeps until popEgress(now) wakes it, and a
     * non-empty egress queue alone is the consumer's work, not ours
     * (the consuming link station carries its own bound).
     * Idle cycles have no per-cycle accounting, so no skip hook.
     */
    Cycle
    nextEventCycle(Cycle from) const override
    {
        for (const auto &q : ingress_) {
            if (!q.empty())
                return from; // a grant happens every cycle
        }
        if (!pipe_.empty() && egress_.canAccept())
            return std::max(from, pipe_.front().arrivesAt);
        return kNoCycle;
    }

    std::size_t ingressDepth(std::uint32_t port) const;
    std::size_t egressDepth() const { return egress_.size(); }
    const StatGroup &stats() const { return stats_; }

    /** Observability hook. Grants are emitted with the event type
     *  chosen at construction (the channel does not know its
     *  direction). */
    void attachTracer(obs::Tracer *tracer) override { tracer_ = tracer; }
    void registerStats(obs::StatRegistry &reg) const override;

  private:
    struct InFlight
    {
        MemRequest req;
        Cycle arrivesAt = 0;
    };

    ChannelConfig cfg_;
    std::vector<sim::Wire<MemRequest>> ingress_;
    sim::Wire<InFlight> pipe_;   ///< unbounded: latency stage
    sim::Wire<InFlight> egress_; ///< bounded: consumer-facing link
    std::uint32_t rrNext_ = 0;
    StatGroup stats_;
    obs::Tracer *tracer_ = nullptr;
    const obs::EventType grantType_;
};

} // namespace camo::noc

#endif // CAMO_NOC_CHANNEL_H
