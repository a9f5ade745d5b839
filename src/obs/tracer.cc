#include "src/obs/tracer.h"

#include <ostream>

#include "src/common/logging.h"
#include "src/obs/json.h"

namespace camo::obs {

const char *
eventTypeName(EventType type)
{
    switch (type) {
      case EventType::CoreMemIssue: return "core_mem_issue";
      case EventType::LlcMiss: return "llc_miss";
      case EventType::CacheWriteback: return "cache_writeback";
      case EventType::ReqShaperEnqueue: return "req_shaper_enqueue";
      case EventType::ReqShaperRelease: return "req_shaper_release";
      case EventType::ReqShaperFake: return "req_shaper_fake";
      case EventType::ReqShaperStall: return "req_shaper_stall";
      case EventType::BinReplenish: return "bin_replenish";
      case EventType::ReqChannelGrant: return "req_channel_grant";
      case EventType::RespChannelGrant: return "resp_channel_grant";
      case EventType::McEnqueue: return "mc_enqueue";
      case EventType::McServe: return "mc_serve";
      case EventType::McFakeDropped: return "mc_fake_dropped";
      case EventType::PriorityBoost: return "priority_boost";
      case EventType::DramActivate: return "dram_activate";
      case EventType::DramPrecharge: return "dram_precharge";
      case EventType::DramRead: return "dram_read";
      case EventType::DramWrite: return "dram_write";
      case EventType::DramRefresh: return "dram_refresh";
      case EventType::RespShaperEnqueue: return "resp_shaper_enqueue";
      case EventType::RespShaperRelease: return "resp_shaper_release";
      case EventType::RespShaperFake: return "resp_shaper_fake";
      case EventType::RespShaperStall: return "resp_shaper_stall";
      case EventType::RespDelivered: return "resp_delivered";
      case EventType::FakeRespDropped: return "fake_resp_dropped";
    }
    return "?";
}

std::string
eventToJson(const Event &e)
{
    // Hand-rolled for the hot drain path; keys are schema-stable.
    std::string out;
    out.reserve(128);
    out += "{\"at\":";
    out += json::formatNumber(static_cast<double>(e.at));
    out += ",\"type\":\"";
    out += eventTypeName(e.type);
    out += '"';
    if (e.core != kNoCore) {
        out += ",\"core\":";
        out += json::formatNumber(static_cast<double>(e.core));
    }
    if (e.id != 0) {
        out += ",\"id\":";
        out += json::formatNumber(static_cast<double>(e.id));
    }
    if (e.addr != kNoAddr) {
        out += ",\"addr\":";
        out += json::formatNumber(static_cast<double>(e.addr));
    }
    out += ",\"arg\":";
    out += json::formatNumber(static_cast<double>(e.arg));
    out += '}';
    return out;
}

void
JsonlTraceSink::write(const Event *events, std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i)
        os_ << eventToJson(events[i]) << '\n';
}

Tracer::Tracer(std::size_t capacity) : capacity_(capacity)
{
    camo_assert(capacity >= 1, "tracer needs a ring buffer");
}

Tracer::~Tracer()
{
    flush();
}

void
Tracer::setSink(std::unique_ptr<TraceSink> sink)
{
    if (sink_)
        flush();
    sink_ = std::move(sink);
}

void
Tracer::drainToSink()
{
    // The ring is contiguous in at most two spans.
    const std::size_t first =
        std::min(size_, buf_.size() - head_);
    if (first > 0)
        sink_->write(buf_.data() + head_, first);
    if (size_ > first)
        sink_->write(buf_.data(), size_ - first);
    head_ = 0;
    size_ = 0;
}

void
Tracer::flush()
{
    if (!sink_)
        return;
    drainToSink();
    sink_->finish();
}

std::vector<Event>
Tracer::snapshot() const
{
    std::vector<Event> out;
    out.reserve(size_);
    for (std::size_t i = 0; i < size_; ++i)
        out.push_back(buf_[(head_ + i) % buf_.size()]);
    return out;
}

} // namespace camo::obs
