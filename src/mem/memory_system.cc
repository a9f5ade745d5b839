#include "src/mem/memory_system.h"

#include <algorithm>

#include "src/common/logging.h"

namespace camo::mem {

MemorySystem::MemorySystem(const ControllerConfig &cfg)
    : sim::Component("mem"), mapper_(cfg.org, cfg.mapping)
{
    camo_assert(cfg.org.channels >= 1, "need at least one channel");
    ControllerConfig per_channel = cfg;
    per_channel.org.channels = 1;
    for (std::uint32_t c = 0; c < cfg.org.channels; ++c) {
        channels_.push_back(std::make_unique<MemoryController>(
            per_channel, "mc.ch" + std::to_string(c)));
    }
}

std::uint32_t
MemorySystem::channelOf(Addr addr) const
{
    return mapper_.channelOf(addr);
}

bool
MemorySystem::canAccept(Addr addr, bool is_write) const
{
    return channels_[channelOf(addr)]->canAccept(is_write);
}

void
MemorySystem::enqueue(MemRequest req, Cycle now)
{
    const std::uint32_t c = channelOf(req.addr);
    // Controllers decode channel-local addresses; the request itself
    // keeps the original address so responses route back to the
    // caches untouched.
    const Addr local = mapper_.stripChannel(req.addr);
    channels_[c]->enqueue(std::move(req), now, local);
}

void
MemorySystem::tick(Cycle now)
{
    for (auto &mc : channels_)
        mc->tick(now);
}

void
MemorySystem::drainResponses(Cycle now, std::vector<MemRequest> &out)
{
    const std::size_t start = out.size();
    for (auto &mc : channels_)
        mc->drainResponses(now, out);
    if (channels_.size() > 1) {
        // Re-sort the merged range (each channel's slice is already
        // ordered; cross-channel order must match too).
        std::sort(out.begin() + static_cast<std::ptrdiff_t>(start),
                  out.end(),
                  [](const MemRequest &a, const MemRequest &b) {
                      return a.mcDone != b.mcDone ? a.mcDone < b.mcDone
                                                  : a.id < b.id;
                  });
    }
}

Cycle
MemorySystem::nextEventCycle(Cycle from) const
{
    Cycle ev = kNoCycle;
    for (const auto &mc : channels_)
        ev = std::min(ev, mc->nextEventCycle(from));
    return ev;
}

Cycle
MemorySystem::nextResponseReady() const
{
    Cycle ev = kNoCycle;
    for (const auto &mc : channels_)
        ev = std::min(ev, mc->nextResponseReady());
    return ev;
}

void
MemorySystem::boostPriority(CoreId core, std::uint32_t tokens)
{
    for (auto &mc : channels_)
        mc->boostPriority(core, tokens);
}

void
MemorySystem::setHighestPriorityCore(std::optional<CoreId> core)
{
    for (auto &mc : channels_)
        mc->setHighestPriorityCore(core);
}

MemoryController &
MemorySystem::channel(std::uint32_t i)
{
    camo_assert(i < channels_.size(), "channel out of range");
    return *channels_[i];
}

std::size_t
MemorySystem::readQueueSize() const
{
    std::size_t total = 0;
    for (const auto &mc : channels_)
        total += mc->readQueueSize();
    return total;
}

std::size_t
MemorySystem::writeQueueSize() const
{
    std::size_t total = 0;
    for (const auto &mc : channels_)
        total += mc->writeQueueSize();
    return total;
}

} // namespace camo::mem
