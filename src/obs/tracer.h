/**
 * @file
 * Low-overhead, ring-buffered event tracer.
 *
 * Components hold a `Tracer *` (nullptr or disabled by default) and
 * emit through CAMO_TRACE_EVENT, which costs one pointer test and one
 * predictable branch when tracing is off. With a sink attached, the
 * ring drains to it whenever it fills and on flush(); without one the
 * ring keeps the most recent `capacity` events (oldest dropped,
 * counted). The ring is allocated when tracing is first enabled.
 *
 * Sinks: JSONL (one object per line, the canonical analysis format)
 * here, and the Chrome trace-event export in src/obs/chrome_trace.h.
 */

#ifndef CAMO_OBS_TRACER_H
#define CAMO_OBS_TRACER_H

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <vector>

#include "src/obs/event.h"

namespace camo::obs {

/** Destination for drained trace events. */
class TraceSink
{
  public:
    virtual ~TraceSink() = default;
    /** Append `n` events (in emission order). */
    virtual void write(const Event *events, std::size_t n) = 0;
    /** Final records/trailers; called once by Tracer::flush(). */
    virtual void finish() {}
};

/** One JSON object per line (JSONL). */
class JsonlTraceSink : public TraceSink
{
  public:
    /** @param os stream the caller keeps alive past the tracer. */
    explicit JsonlTraceSink(std::ostream &os) : os_(os) {}
    void write(const Event *events, std::size_t n) override;

  private:
    std::ostream &os_;
};

/** Render one event as a single-line JSON object (no newline). */
std::string eventToJson(const Event &e);

/** The ring buffer + drain engine. */
class Tracer
{
  public:
    static constexpr std::size_t kDefaultCapacity = 1 << 16;

    /** The ring (~4 MB of Events at the default capacity) is
     *  allocated on the first setEnabled(true), so a System that
     *  never traces never pays for it. Safe because both emit() and
     *  CAMO_TRACE_EVENT gate on enabled(). */
    explicit Tracer(std::size_t capacity = kDefaultCapacity);

    ~Tracer();

    Tracer(const Tracer &) = delete;
    Tracer &operator=(const Tracer &) = delete;

    /** Attach the drain destination (flushes any buffered events). */
    void setSink(std::unique_ptr<TraceSink> sink);

    void
    setEnabled(bool on)
    {
        if (on && buf_.size() < capacity_)
            buf_.resize(capacity_);
        enabled_ = on;
    }
    bool enabled() const { return enabled_; }

    /** Record one event. Near-free when disabled. */
    void
    emit(const Event &e)
    {
        if (!enabled_)
            return;
        ++emitted_;
        if (size_ == buf_.size()) {
            if (sink_) {
                drainToSink();
            } else {
                // No sink: ring semantics, overwrite the oldest.
                head_ = (head_ + 1) % buf_.size();
                --size_;
                ++dropped_;
            }
        }
        buf_[(head_ + size_) % buf_.size()] = e;
        ++size_;
    }

    /** Drain buffered events to the sink (and finish() it). */
    void flush();

    /** Buffered events, oldest first (mainly for sink-less use). */
    std::vector<Event> snapshot() const;

    std::uint64_t emitted() const { return emitted_; }
    std::uint64_t dropped() const { return dropped_; }
    std::size_t buffered() const { return size_; }
    std::size_t capacity() const { return capacity_; }

  private:
    void drainToSink();

    std::size_t capacity_;
    std::vector<Event> buf_;
    std::size_t head_ = 0; ///< index of the oldest buffered event
    std::size_t size_ = 0;
    bool enabled_ = false;
    std::unique_ptr<TraceSink> sink_;
    std::uint64_t emitted_ = 0;
    std::uint64_t dropped_ = 0;
};

} // namespace camo::obs

/**
 * Emission macro used at every instrumentation point. `tracer` is a
 * `camo::obs::Tracer *` (may be null); the remaining arguments are
 * the Event designated-initializer payload.
 */
#define CAMO_TRACE_EVENT(tracer, ...) \
    do { \
        ::camo::obs::Tracer *camo_tr_ = (tracer); \
        if (camo_tr_ && camo_tr_->enabled()) \
            camo_tr_->emit(::camo::obs::Event{__VA_ARGS__}); \
    } while (0)

#endif // CAMO_OBS_TRACER_H
