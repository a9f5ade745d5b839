/**
 * @file
 * The simulation kernel's component boundary.
 *
 * A sim::Component is something the event kernel schedules: the
 * cores, the two shared channels, the memory system, and the glue
 * stations the System builds around them (src/sim/stations.h). The
 * System drives one iteration over an ordered ComponentGraph for
 * every cross-cutting concern: per-cycle ticking, the idle-skip lower
 * bound, batched idle-cycle accounting, epoch reset, stat
 * registration, and tracer attachment. Blocks a component owns are
 * plain classes it drives itself: a core its cache hierarchy, a pipe
 * station its shaper, the memory system its per-channel controllers
 * (and each controller its DRAM device). The graph holds exactly
 * what the kernel schedules. Adding a component to the topology
 * requires zero edits to any of those plumbing paths.
 */

#ifndef CAMO_SIM_COMPONENT_H
#define CAMO_SIM_COMPONENT_H

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/common/types.h"

namespace camo::obs {
class Tracer;
class StatRegistry;
} // namespace camo::obs

namespace camo::sim {

/**
 * Receives wakeup requests from components (and from wires that have
 * a subscribed consumer). The System's event kernel implements this
 * as a min-merge into its per-component wake table, resolved against
 * the in-flight cycle: a wake at or before the cycle being processed
 * runs this cycle if the target comes later in the tick order, or
 * next cycle if it comes earlier — the same visibility order the
 * topology-ordered tick loop gives.
 */
class WakeSink
{
  public:
    virtual ~WakeSink() = default;

    /** Run `id` no later than `at` (min-merge; kNoCycle = no-op). */
    virtual void wakeAt(std::uint32_t id, Cycle at) = 0;
    /** Account `id`'s skipped idle cycles through `through`. */
    virtual void catchUp(std::uint32_t id, Cycle through) = 0;
    /** catchUp every component ahead of `id` in the tick order. */
    virtual void catchUpAhead(std::uint32_t id, Cycle through) = 0;
};

/**
 * One block of the simulated machine that the event kernel schedules.
 *
 * The cycle-advancement contract:
 *  - tick(now) advances the component by one CPU cycle. Within a
 *    processed cycle, components run in topology order.
 *  - nextEventCycle(from) returns the earliest cycle >= `from` at
 *    which tick() could do observable work, or kNoCycle if none is
 *    possible without new input. The kernel always asks for the
 *    cycle after the one just run, so `from - 1` is the current
 *    cycle. Cycles strictly before the returned value are provably
 *    idle. The default — always `from` — is the trivially sound
 *    bound (never skip past this component).
 *  - skipIdleCycles(n) batch-applies the accounting that `n` tick()
 *    calls in the current (provably idle) state would have produced.
 *    Must be bit-exact with ticking; the default accounts nothing.
 *
 * Self-scheduling: under the event-driven kernel each component is
 * attached to a WakeSink and owns its wakeups. After every tick the
 * kernel re-arms the component from its nextEventCycle() bound; the
 * component itself, or a producer handing it data, pulls that wakeup
 * earlier with scheduleAt() — a producer at the cycle the data lands
 * (the one hand-off rule; see wire.h). Because scheduling is
 * min-merge and ticking a provably-idle cycle is bit-exact with
 * skipping it, spurious extra wakeups are always safe — only a
 * *missed* wakeup (a bound that overshoots the next observable event)
 * can change behaviour.
 */
class Component
{
  public:
    explicit Component(std::string name) : name_(std::move(name)) {}
    virtual ~Component();

    Component(const Component &) = delete;
    Component &operator=(const Component &) = delete;

    const std::string &name() const { return name_; }

    // ----- self-scheduling (event-driven kernel) -------------------

    /** Attach this component to the scheduler `sink` as `id`;
     *  nullptr detaches. */
    void
    attachWakeSink(WakeSink *sink, std::uint32_t id)
    {
        wakeSink_ = sink;
        wakeId_ = id;
    }

    /** Request a wakeup no later than `at` (min-merge; no-op when
     *  detached or `at` == kNoCycle). */
    void
    scheduleAt(Cycle at)
    {
        if (wakeSink_ != nullptr)
            wakeSink_->wakeAt(wakeId_, at);
    }

    /** Account this component's skipped idle cycles through `through`;
     *  a later station calls it before mutating this one. */
    void
    catchUp(Cycle through)
    {
        if (wakeSink_ != nullptr)
            wakeSink_->catchUp(wakeId_, through);
    }

    /** catchUp every component ahead of this one (an observer then
     *  reads the machine as the per-cycle oracle shows it). */
    void
    catchUpAhead(Cycle through)
    {
        if (wakeSink_ != nullptr)
            wakeSink_->catchUpAhead(wakeId_, through);
    }

    /** Advance one CPU cycle. */
    virtual void tick(Cycle now) { (void)now; }

    /** Earliest cycle >= `from` with possible observable work (see
     *  class comment). */
    virtual Cycle nextEventCycle(Cycle from) const { return from; }

    /** Account `n` skipped provably-idle cycles. */
    virtual void skipIdleCycles(Cycle n) { (void)n; }

    /** Clear epoch counters / return to a just-built observable
     *  state. Structural state (queues, RNG streams) is kept. */
    virtual void reset() {}

    // ----- attachment points (cross-cutting fan-out) ---------------

    /** Observability hook; nullptr detaches. */
    virtual void attachTracer(obs::Tracer *tracer) { (void)tracer; }

    /** Register stat groups under this component's dotted paths. */
    virtual void
    registerStats(obs::StatRegistry &reg) const
    {
        (void)reg;
    }

  private:
    std::string name_;
    WakeSink *wakeSink_ = nullptr;
    std::uint32_t wakeId_ = 0;
};

/**
 * An ordered component graph: owns its components and fans every
 * kernel concern out across them in one iteration. The tracer
 * attachment is sticky — a component added after attachTracer()
 * receives the current tracer immediately.
 */
class ComponentGraph
{
  public:
    ComponentGraph() = default;

    ComponentGraph(const ComponentGraph &) = delete;
    ComponentGraph &operator=(const ComponentGraph &) = delete;

    /** Append `c` to the tick order; returns the borrowed pointer. */
    Component *add(std::unique_ptr<Component> c);

    /** Append an externally-owned component to the tick order. The
     *  caller guarantees it outlives this graph. */
    Component *add(Component *borrowed);

    /** Construct a component in place at the end of the tick order. */
    template <typename T, typename... Args>
    T *
    emplace(Args &&...args)
    {
        auto owned = std::make_unique<T>(std::forward<Args>(args)...);
        T *raw = owned.get();
        add(std::move(owned));
        return raw;
    }

    /** Components in tick order. */
    const std::vector<Component *> &order() const { return order_; }
    std::size_t size() const { return order_.size(); }

    /** Fold of nextEventCycle over the graph (min across
     *  components; early-out at `from`). */
    Cycle nextEventCycle(Cycle from) const;

    void reset();

    void attachTracer(obs::Tracer *tracer);
    void registerStats(obs::StatRegistry &reg) const;

  private:
    std::vector<std::unique_ptr<Component>> owned_;
    std::vector<Component *> order_;

    // Sticky tracer, replayed onto late-added components.
    obs::Tracer *tracer_ = nullptr;
    bool tracerSet_ = false;
};

} // namespace camo::sim

#endif // CAMO_SIM_COMPONENT_H
