#include "src/sim/component.h"

#include <algorithm>

#include "src/common/logging.h"

namespace camo::sim {

Component::~Component() = default;

Component *
ComponentGraph::add(std::unique_ptr<Component> c)
{
    camo_assert(c != nullptr, "cannot add a null component");
    owned_.push_back(std::move(c));
    return add(owned_.back().get());
}

Component *
ComponentGraph::add(Component *borrowed)
{
    camo_assert(borrowed != nullptr, "cannot add a null component");
    order_.push_back(borrowed);
    // Replay the sticky tracer so late additions need no extra wiring
    // (the synthetic-component contract).
    if (tracerSet_)
        borrowed->attachTracer(tracer_);
    return borrowed;
}

Cycle
ComponentGraph::nextEventCycle(Cycle from) const
{
    Cycle ev = kNoCycle;
    for (const Component *c : order_) {
        ev = std::min(ev, c->nextEventCycle(from));
        if (ev <= from)
            return from;
    }
    return ev;
}

void
ComponentGraph::reset()
{
    for (Component *c : order_)
        c->reset();
}

void
ComponentGraph::attachTracer(obs::Tracer *tracer)
{
    tracer_ = tracer;
    tracerSet_ = true;
    for (Component *c : order_)
        c->attachTracer(tracer);
}

void
ComponentGraph::registerStats(obs::StatRegistry &reg) const
{
    for (const Component *c : order_)
        c->registerStats(reg);
}

} // namespace camo::sim
