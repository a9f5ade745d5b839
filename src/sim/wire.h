/**
 * @file
 * Typed links between components.
 *
 * A Wire<T> is a FIFO buffer with optional capacity (0 = unbounded);
 * backpressure is its canAccept(). A wire is a plain member of whatever
 * owns the link (the System's per-core buffers, the NoC channel's
 * stages), used directly by the code on either side.
 *
 * Event-driven delivery: a wire may subscribe a consumer Component.
 * The cycle-stamped push(v, at) overload then wakes that consumer at
 * the delivery cycle through its WakeSink, so data landing on a wire
 * is itself the scheduling event — no consumer ever polls an empty
 * wire. This subscription is the kernel's one hand-off rule: every
 * producer that is not a Wire (the NoC egress, the cache's outgoing
 * misses, the memory controller's responses and freed queue slots)
 * follows the same subscribe-then-scheduleAt idiom. The plain push(v)
 * stays for paths where the producer's station already runs the
 * consumer in the same call chain.
 */

#ifndef CAMO_SIM_WIRE_H
#define CAMO_SIM_WIRE_H

#include <cstddef>
#include <deque>
#include <utility>

#include "src/common/logging.h"
#include "src/sim/component.h"

namespace camo::sim {

/** A FIFO link buffer. Capacity 0 means unbounded. */
template <typename T>
class Wire
{
  public:
    explicit Wire(std::size_t capacity = 0) : cap_(capacity) {}

    /** Backpressure: can one more element be pushed? */
    bool canAccept() const { return cap_ == 0 || q_.size() < cap_; }

    /** Wake `consumer` whenever a cycle-stamped push lands here;
     *  nullptr unsubscribes. */
    void subscribe(Component *consumer) { consumer_ = consumer; }

    void
    push(T v)
    {
        camo_assert(canAccept(), "push into a full wire");
        q_.push_back(std::move(v));
    }

    /** Push a delivery that lands at cycle `at`, scheduling the
     *  subscribed consumer (if any) to run at that cycle. */
    void
    push(T v, Cycle at)
    {
        push(std::move(v));
        if (consumer_ != nullptr)
            consumer_->scheduleAt(at);
    }

    bool empty() const { return q_.empty(); }
    std::size_t size() const { return q_.size(); }

    T &
    front()
    {
        camo_assert(!q_.empty(), "front of an empty wire");
        return q_.front();
    }
    const T &
    front() const
    {
        camo_assert(!q_.empty(), "front of an empty wire");
        return q_.front();
    }

    T
    pop()
    {
        camo_assert(!q_.empty(), "pop of an empty wire");
        T v = std::move(q_.front());
        q_.pop_front();
        return v;
    }

  private:
    std::deque<T> q_;
    std::size_t cap_;
    Component *consumer_ = nullptr;
};

} // namespace camo::sim

#endif // CAMO_SIM_WIRE_H
