/**
 * @file
 * Multi-channel memory system: one MemoryController per channel
 * behind a line-interleaved channel decoder. With channels == 1 this
 * is a thin wrapper over a single controller (the paper's Table II
 * configuration).
 */

#ifndef CAMO_MEM_MEMORY_SYSTEM_H
#define CAMO_MEM_MEMORY_SYSTEM_H

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "src/dram/address.h"
#include "src/mem/controller.h"
#include "src/mem/request.h"
#include "src/sim/component.h"

namespace camo::mem {

/** N per-channel controllers + channel routing. */
class MemorySystem final : public sim::Component
{
  public:
    /**
     * @param cfg controller configuration; cfg.org.channels selects
     *        how many controllers to instantiate (each controller
     *        sees a channels==1 organization and channel-local
     *        addresses).
     */
    explicit MemorySystem(const ControllerConfig &cfg);

    /** Channel a request address routes to. */
    std::uint32_t channelOf(Addr addr) const;

    bool canAccept(Addr addr, bool is_write) const;
    void enqueue(MemRequest req, Cycle now);
    void tick(Cycle now) override;

    /** Append completed responses from every channel to `out`, merged
     *  in the same completion-then-id order as one channel's. */
    void drainResponses(Cycle now, std::vector<MemRequest> &out);

    /** Earliest CPU cycle >= `from` any channel could act at (see
     *  MemoryController::nextEventCycle). */
    Cycle nextEventCycle(Cycle from) const override;

    /** Earliest CPU cycle any channel has a completed response ready
     *  for drainResponses(), or kNoCycle (see
     *  MemoryController::nextResponseReady). */
    Cycle nextResponseReady() const;

    /** Subscribe `consumer` to every channel's responses (see
     *  MemoryController::subscribeResponses). */
    void subscribeResponses(sim::Component *consumer)
    {
        for (auto &mc : channels_)
            mc->subscribeResponses(consumer);
    }

    /** Subscribe `consumer` to every channel's freed queue slots (see
     *  MemoryController::subscribeQueueSpace). */
    void subscribeQueueSpace(sim::Component *consumer)
    {
        for (auto &mc : channels_)
            mc->subscribeQueueSpace(consumer);
    }

    /** Account `n` skipped idle CPU cycles on every channel. */
    void
    skipIdleCycles(Cycle n) override
    {
        for (auto &mc : channels_)
            mc->skipIdleCycles(n);
    }

    void boostPriority(CoreId core, std::uint32_t tokens);
    void setHighestPriorityCore(std::optional<CoreId> core);

    std::uint32_t numChannels() const
    {
        return static_cast<std::uint32_t>(channels_.size());
    }
    MemoryController &channel(std::uint32_t i);

    /** Aggregate queue depths across channels. */
    std::size_t readQueueSize() const;
    std::size_t writeQueueSize() const;

    /** Observability hook; fans out to every channel controller. */
    void
    attachTracer(obs::Tracer *tracer) override
    {
        for (auto &mc : channels_)
            mc->setTracer(tracer);
    }

    /** Fans out to the per-channel controllers ("mc.ch{c}" paths). */
    void
    registerStats(obs::StatRegistry &reg) const override
    {
        for (const auto &mc : channels_)
            mc->registerStats(reg);
    }

  private:
    dram::AddressMapper mapper_; ///< top-level (channel) decode only
    std::vector<std::unique_ptr<MemoryController>> channels_;
};

} // namespace camo::mem

#endif // CAMO_MEM_MEMORY_SYSTEM_H
