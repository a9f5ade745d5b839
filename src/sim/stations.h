/**
 * @file
 * The glue stations of the paper's Figure-5 pipeline (LLC miss ->
 * request shaper -> request channel -> MC -> response shaper ->
 * response channel -> core fill) and its fault, credit-audit, interval
 * and leak-monitor observers. Each is a sim::Component whose tick() is
 * its hand-off and whose nextEventCycle() says when that hand-off next
 * has work; the System lays them into its graph in Figure-5 tick order
 * (DESIGN.md §11.1).
 */

#ifndef CAMO_SIM_STATIONS_H
#define CAMO_SIM_STATIONS_H

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/cache/hierarchy.h"
#include "src/camouflage/monitor.h"
#include "src/camouflage/request_shaper.h"
#include "src/camouflage/response_shaper.h"
#include "src/common/logging.h"
#include "src/common/stats.h"
#include "src/core/core.h"
#include "src/hard/checkers.h"
#include "src/hard/fault_injection.h"
#include "src/mem/memory_system.h"
#include "src/noc/channel.h"
#include "src/obs/interval.h"
#include "src/obs/leakmon.h"
#include "src/obs/registry.h"
#include "src/security/covert_receiver.h"
#include "src/sim/component.h"
#include "src/sim/wire.h"
#include "src/trace/trace.h"

namespace camo::sim {

struct MemRouteStation;
struct IntervalStation;

/** A per-core pipe station's owned shaper, whose idle accounting,
 *  tracer and stats ride the station's. */
template <typename S>
struct ShaperStation : Component
{
    ShaperStation(std::string name, std::unique_ptr<S> shaper)
        : Component(std::move(name)), shaper_(std::move(shaper))
    {
    }

    /** nullptr when the core is unshaped in this direction. */
    S *shaper() const { return shaper_.get(); }

    void
    skipIdleCycles(Cycle n) override
    {
        if (shaper_)
            shaper_->skipIdleCycles(n);
    }

    void
    attachTracer(obs::Tracer *tracer) override
    {
        if (shaper_)
            shaper_->setTracer(tracer);
    }

    void
    registerStats(obs::StatRegistry &reg) const override
    {
        if (shaper_)
            shaper_->registerStats(reg);
    }

    std::unique_ptr<S> shaper_;
};

/** Everything the pipeline keeps per core. */
struct PerCore
{
    std::unique_ptr<trace::TraceSource> trace;
    std::unique_ptr<cache::CacheHierarchy> cache;
    std::unique_ptr<core::Core> core;
    /** The core's pipe stations (graph-owned; each owns the core's
     *  shaper for its direction, if any). */
    ShaperStation<shaper::RequestShaper> *reqPipe = nullptr;
    ShaperStation<shaper::ResponseShaper> *respPipe = nullptr;

    Wire<MemRequest> missBuffer; ///< cache LLC misses -> pipe station
    Wire<MemRequest> respBuffer; ///< MC egress -> response pipe station

    shaper::DistributionMonitor intrinsicMon;
    shaper::DistributionMonitor busMon;
    shaper::DistributionMonitor respMon;

    std::vector<security::LatencySample> latencies;
    std::uint64_t servedReads = 0;
    std::uint64_t latencySum = 0;

    /** Real reads issued, response not yet delivered (the
     *  watchdog's pending-work signal). */
    std::uint64_t inflightReads = 0;
    /** Shapers swapped to the fail-secure schedule. */
    bool degraded = false;

    explicit PerCore(const std::vector<Cycle> &edges)
        : intrinsicMon(edges), busMon(edges), respMon(edges)
    {
    }
};

/** What the stations share with the System that builds them, and the
 *  stations the System itself reaches. */
struct Pipeline
{
    std::vector<std::unique_ptr<PerCore>> &cores;
    noc::SharedChannel &reqChannel;
    noc::SharedChannel &respChannel;
    mem::MemorySystem &mem;
    StatGroup &stats;
    obs::Tracer &tracer;
    bool recordLatencies;
    /** Degrade the core's shapers, or dump a diagnostic and throw. */
    std::function<void(std::uint32_t core, const std::string &msg)>
        shaperViolation;

    hard::FaultInjector *injector = nullptr;
    hard::CheckerSet *checkers = nullptr;
    std::uint64_t forcedFakes = 0; ///< ids for injected fakes

    MemRouteStation *memRoute = nullptr;
    Component *creditCheck = nullptr;
    IntervalStation *interval = nullptr;
};

/** Consults the fault injector at its programmed cycles. */
struct FaultApplyStation final : Component
{
    explicit FaultApplyStation(Pipeline &pipe)
        : Component("station.faults"), pipe_(pipe)
    {
    }

    void tick(Cycle now) override;

    /** Scheduled faults must fire at their programmed cycle, not at
     *  whatever tick the event kernel happens to execute next. */
    Cycle
    nextEventCycle(Cycle from) const override
    {
        return pipe_.injector ? pipe_.injector->nextScheduledCycle(from)
                              : kNoCycle;
    }

    Pipeline &pipe_;
};

/** Cache outgoing -> miss buffer -> request shaper -> channel. */
struct CorePipeStation final : ShaperStation<shaper::RequestShaper>
{
    CorePipeStation(Pipeline &pipe, PerCore &pc, std::uint32_t core,
                    std::unique_ptr<shaper::RequestShaper> shaper)
        : ShaperStation("station.reqpipe.core" + std::to_string(core),
                        std::move(shaper)),
          pipe_(pipe), pc_(pc), core_(core)
    {
    }

    void tick(Cycle now) override;

    Cycle
    nextEventCycle(Cycle from) const override
    {
        // Buffered misses move the moment the next stage can take
        // them (every cycle while it can).
        if (!pc_.missBuffer.empty() && (!shaper_ || shaper_->canAccept()))
            return from;
        if (!shaper_)
            return kNoCycle;
        // A wedged shaper is ticked (and wedge-early-returns) every
        // cycle: none of those cycles is provably idle.
        if (pipe_.injector &&
            pipe_.injector->reqShaperWedged(core_, from - 1)) {
            return from;
        }
        // With this port's ingress queue full the shaper ticks
        // ready=false, which skips its stall accounting — those
        // cycles must stay real ticks. (Only this station pushes to
        // the port, so not-full cannot regress while asleep.)
        if (!pipe_.reqChannel.canAccept(core_))
            return from;
        // The shaper drives its own schedule (replenishments,
        // eligibility, stall events) through the station.
        return shaper_->nextEventCycle(from);
    }

    void push(MemRequest req, Cycle now, bool shaper_release);

    Pipeline &pipe_;
    PerCore &pc_;
    std::uint32_t core_;
};

/** Request-channel egress -> memory controller (1/cycle). */
struct ReqLinkStation final : Component
{
    ReqLinkStation(noc::SharedChannel &channel, mem::MemorySystem &mem)
        : Component("station.reqlink"), channel_(channel), mem_(mem)
    {
    }

    void
    tick(Cycle now) override
    {
        if (!channel_.hasEgress(now) ||
            !mem_.canAccept(channel_.egressFront().addr,
                            channel_.egressFront().isWrite)) {
            return;
        }
        // enqueue() stamps the transaction with the controller's
        // clock-divider state: bring the controller to where the
        // oracle has it here (its own tick this cycle has not run).
        mem_.catchUp(now - 1);
        mem_.enqueue(channel_.popEgress(now), now);
        // The controller must arbitrate the new arrival this cycle,
        // exactly as the oracle has it.
        mem_.scheduleAt(now);
    }

    /** Pending egress drains one flit per cycle while the MC has
     *  queue space for the head flit. When the MC queue is full the
     *  station sleeps: canAccept only turns true when a served CAS
     *  frees a slot, and the controller's queue-space subscription
     *  wakes us then (on the next cycle, since this station ticks
     *  before the controller — the oracle likewise uses the freed
     *  slot one cycle later). New egress arrivals wake us through the
     *  channel's egress subscription. */
    Cycle
    nextEventCycle(Cycle from) const override
    {
        if (channel_.egressDepth() == 0)
            return kNoCycle;
        return mem_.canAccept(channel_.egressFront().addr,
                              channel_.egressFront().isWrite)
                   ? from
                   : kNoCycle;
    }

    noc::SharedChannel &channel_;
    mem::MemorySystem &mem_;
};

/** MC responses -> per-core response buffers (+ injected delays). */
struct MemRouteStation final : Component
{
    /** A response held back by an injected delay fault. */
    struct DelayedResponse
    {
        Cycle releaseAt = 0;
        MemRequest resp;
    };

    explicit MemRouteStation(Pipeline &pipe)
        : Component("station.memroute"), pipe_(pipe)
    {
    }

    void
    tick(Cycle now) override
    {
        auto &cores = pipe_.cores;
        // Injected-delay buffer: release entries that have come due.
        for (auto it = delayed_.begin(); it != delayed_.end();) {
            if (it->releaseAt <= now) {
                const std::uint32_t c = it->resp.core;
                camo_assert(c < cores.size(), "response for unknown core");
                cores[c]->respBuffer.push(std::move(it->resp), now);
                it = delayed_.erase(it);
            } else {
                ++it;
            }
        }

        scratch_.clear();
        pipe_.mem.drainResponses(now, scratch_);
        for (MemRequest &resp : scratch_) {
            const std::uint32_t c = resp.core;
            camo_assert(c < cores.size(), "response for unknown core");
            if (pipe_.injector) {
                Cycle delay = 0;
                switch (pipe_.injector->onResponse(now, resp, &delay)) {
                  case hard::FaultInjector::RespAction::Drop:
                    pipe_.stats.inc("hard.resp_dropped");
                    continue;
                  case hard::FaultInjector::RespAction::Delay:
                    pipe_.stats.inc("hard.resp_delayed");
                    delayed_.push_back({now + delay, std::move(resp)});
                    continue;
                  case hard::FaultInjector::RespAction::Duplicate:
                    pipe_.stats.inc("hard.resp_duplicated");
                    cores[c]->respBuffer.push(resp, now); // extra copy
                    break;
                  case hard::FaultInjector::RespAction::Pass:
                    break;
                }
            }
            cores[c]->respBuffer.push(std::move(resp), now);
        }
    }

    Cycle
    nextEventCycle(Cycle from) const override
    {
        Cycle ev = kNoCycle;
        for (const DelayedResponse &d : delayed_)
            ev = std::min(ev, std::max(from, d.releaseAt));
        // Completed DRAM reads route back the cycle they become ready
        // (the controller's response subscription covers responses
        // minted after this bound was taken).
        return std::min(ev,
                        std::max(from, pipe_.mem.nextResponseReady()));
    }

    Pipeline &pipe_;
    std::vector<DelayedResponse> delayed_;
    std::vector<MemRequest> scratch_; ///< reused each tick
};

/** Response buffer -> response shaper -> response channel. */
struct RespPipeStation final : ShaperStation<shaper::ResponseShaper>
{
    RespPipeStation(Pipeline &pipe, PerCore &pc, std::uint32_t core,
                    std::unique_ptr<shaper::ResponseShaper> shaper)
        : ShaperStation("station.resppipe.core" + std::to_string(core),
                        std::move(shaper)),
          pipe_(pipe), pc_(pc), core_(core)
    {
    }

    void tick(Cycle now) override;

    Cycle
    nextEventCycle(Cycle from) const override
    {
        if (!pc_.respBuffer.empty() && (!shaper_ || shaper_->canAccept()))
            return from;
        if (!shaper_)
            return kNoCycle;
        // Accumulated priority warnings are forwarded to the scheduler
        // on the next tick.
        if (shaper_->hasPendingBoost())
            return from;
        if (pipe_.injector &&
            pipe_.injector->respShaperWedged(core_, from - 1)) {
            return from;
        }
        // ready=false ticks (full ingress) bypass the shaper's stall
        // accounting; see CorePipeStation.
        if (!pipe_.respChannel.canAccept(core_))
            return from;
        return shaper_->nextEventCycle(from);
    }

    void push(MemRequest resp, Cycle now, bool shaper_release);

    Pipeline &pipe_;
    PerCore &pc_;
    std::uint32_t core_;
};

/** Response-channel egress -> core fill (1/cycle). */
struct RespLinkStation final : Component
{
    explicit RespLinkStation(Pipeline &pipe)
        : Component("station.resplink"), pipe_(pipe)
    {
    }

    void tick(Cycle now) override;

    /** One delivery per cycle while the egress queue holds flits. */
    Cycle
    nextEventCycle(Cycle from) const override
    {
        return pipe_.respChannel.egressDepth() > 0 ? from : kNoCycle;
    }

    Pipeline &pipe_;
};

/** End-of-cycle audit of the live credit registers (observe-only),
 *  run only while a shaper has a write the audit has not passed
 *  (BinShaper::auditPending); in-run writers wake it. */
struct CreditCheckStation final : Component
{
    explicit CreditCheckStation(Pipeline &pipe)
        : Component("station.creditcheck"), pipe_(pipe)
    {
    }

    void tick(Cycle now) override;

    Cycle
    nextEventCycle(Cycle from) const override
    {
        if (!armed())
            return kNoCycle;
        for (const auto &pc : pipe_.cores) {
            const shaper::RequestShaper *req = pc->reqPipe->shaper();
            const shaper::ResponseShaper *resp = pc->respPipe->shaper();
            if ((req && req->bins().auditPending()) ||
                (resp && resp->bins().auditPending())) {
                return from;
            }
        }
        return kNoCycle;
    }

    bool
    armed() const
    {
        return pipe_.checkers && pipe_.checkers->config().conservation;
    }

    Pipeline &pipe_;
};

/** Periodic interval-metrics row; catches every earlier component up
 *  first, so a row reads what the per-cycle oracle shows there. */
struct IntervalStation final : Component
{
    /** Per-core counters at the previous row. */
    struct Snapshot
    {
        std::uint64_t retired, cycles, busReal, busFake;

        explicit Snapshot(const PerCore &pc)
            : retired(pc.core->retired()), cycles(pc.core->cycles()),
              busReal(pc.busMon.realCount()), busFake(pc.busMon.fakeCount())
        {
        }
    };

    IntervalStation(const std::vector<std::unique_ptr<PerCore>> &cores,
                    const mem::MemorySystem &mem)
        : Component("station.interval"), cores_(cores), mem_(mem)
    {
    }

    /** Sample every `period` cycles, deltas from the state now; a
     *  non-null `leakmon` adds its windowed-MI column. */
    void
    enable(Cycle period, const obs::LeakMonitor *leakmon)
    {
        std::vector<std::string> cols{"mc.readq", "mc.writeq"};
        last_.clear();
        for (std::uint32_t i = 0; i < cores_.size(); ++i) {
            const std::string prefix = "core" + std::to_string(i);
            for (const char *col : {".ipc", ".bus.real", ".bus.fake",
                                    ".req_credits", ".resp_credits"}) {
                cols.push_back(prefix + col);
            }
            last_.emplace_back(*cores_[i]);
        }
        leakmon_ = leakmon;
        if (leakmon_)
            cols.push_back("leakmon.window_mi_bits");
        collector_ = std::make_unique<obs::IntervalCollector>(
            period, std::move(cols));
    }

    void
    tick(Cycle now) override
    {
        if (!collector_ || !collector_->due(now))
            return;
        // Under the kernel this station runs near the end of the graph:
        // every component due this cycle has ticked, and catching the
        // rest up through the boundary settles their idle accounting.
        catchUpAhead(now);
        std::vector<double> row;
        row.reserve(collector_->columns().size());
        row.push_back(static_cast<double>(mem_.readQueueSize()));
        row.push_back(static_cast<double>(mem_.writeQueueSize()));
        for (std::size_t i = 0; i < cores_.size(); ++i) {
            const PerCore &pc = *cores_[i];
            const Snapshot cur(pc);
            const Snapshot &last = last_[i];
            const std::uint64_t dc = cur.cycles - last.cycles;
            row.push_back(dc ? static_cast<double>(cur.retired -
                                                   last.retired) /
                                   static_cast<double>(dc)
                             : 0.0);
            row.push_back(static_cast<double>(cur.busReal - last.busReal));
            row.push_back(static_cast<double>(cur.busFake - last.busFake));
            const shaper::RequestShaper *req = pc.reqPipe->shaper();
            const shaper::ResponseShaper *resp = pc.respPipe->shaper();
            row.push_back(req ? req->bins().creditsTotal() : 0.0);
            row.push_back(resp ? resp->bins().creditsTotal() : 0.0);
            last_[i] = cur;
        }
        if (leakmon_)
            row.push_back(leakmon_->lastWindowMiBits());
        collector_->addRow(now, std::move(row));
    }

    Cycle
    nextEventCycle(Cycle from) const override
    {
        return collector_ ? std::max(from, collector_->nextAt())
                          : kNoCycle;
    }

    const std::vector<std::unique_ptr<PerCore>> &cores_;
    const mem::MemorySystem &mem_;
    const obs::LeakMonitor *leakmon_ = nullptr;
    std::unique_ptr<obs::IntervalCollector> collector_;
    std::vector<Snapshot> last_;
};

/** Online leakage-monitor evaluation point: ticks on every check
 *  boundary, so the kernel and the oracle evaluate the same windows. */
struct LeakMonStation final : Component
{
    LeakMonStation(obs::LeakMonitor &mon,
                   std::function<void(const std::string &)> on_alert)
        : Component("station.leakmon"), mon_(mon),
          onAlert_(std::move(on_alert))
    {
    }

    void
    tick(Cycle now) override
    {
        if (now < mon_.nextCheckAt())
            return;
        const std::string alert = mon_.poll(now);
        if (!alert.empty())
            onAlert_(alert);
    }

    Cycle
    nextEventCycle(Cycle from) const override
    {
        return std::max(from, mon_.nextCheckAt());
    }

    void
    registerStats(obs::StatRegistry &reg) const override
    {
        reg.add("leakmon", &mon_.stats());
    }

    obs::LeakMonitor &mon_;
    std::function<void(const std::string &)> onAlert_;
};

} // namespace camo::sim

#endif // CAMO_SIM_STATIONS_H
