#include "src/sim/system.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <filesystem>
#include <fstream>
#include <system_error>
#include <iostream>
#include <sstream>

#include <unistd.h>

#include "src/camouflage/config_port.h"
#include "src/common/logging.h"
#include "src/hard/error.h"
#include "src/sim/plan.h"
#include "src/trace/workloads.h"

namespace camo::sim {

const char *
mitigationName(Mitigation m)
{
    switch (m) {
      case Mitigation::None: return "no-shaping";
      case Mitigation::CS: return "CS";
      case Mitigation::ReqC: return "ReqC";
      case Mitigation::RespC: return "RespC";
      case Mitigation::BDC: return "BDC";
      case Mitigation::TP: return "TP";
      case Mitigation::FS: return "FS";
    }
    return "?";
}

/** Everything owned per core. */
struct System::PerCore
{
    std::unique_ptr<trace::TraceSource> trace;
    std::unique_ptr<cache::CacheHierarchy> cache;
    std::unique_ptr<core::Core> core;
    /** Owned by the core's pipe stations; nullptr when unshaped. */
    shaper::RequestShaper *reqShaper = nullptr;
    shaper::ResponseShaper *respShaper = nullptr;

    /** LLC-miss link between the cache and the shaper/channel. */
    Wire<MemRequest> missBuffer;
    /** MC-egress link in front of the response shaper. */
    Wire<MemRequest> respBuffer;

    shaper::DistributionMonitor intrinsicMon;
    shaper::DistributionMonitor busMon;
    shaper::DistributionMonitor respMon;

    std::vector<security::LatencySample> latencies;
    std::uint64_t servedReads = 0;
    std::uint64_t latencySum = 0;

    /** Real reads on the wire (issued, response not yet delivered).
     *  Always maintained (cheap counter); the watchdog's pending-work
     *  signal. */
    std::uint64_t inflightReads = 0;
    /** Shapers swapped to the fail-secure schedule. */
    bool degraded = false;

    /** Previous-interval snapshots for delta-based interval metrics. */
    std::uint64_t ivRetired = 0;
    std::uint64_t ivCycles = 0;
    std::uint64_t ivBusReal = 0;
    std::uint64_t ivBusFake = 0;

    /** Graph indices the event kernel's glue needs (set by
     *  buildTopology). */
    std::size_t coreIdx = 0;
    std::size_t corePipeIdx = 0;
    std::size_t respPipeIdx = 0;

    PerCore(const std::vector<Cycle> &edges)
        : intrinsicMon(edges), busMon(edges), respMon(edges)
    {
    }
};

// ---------------------------------------------------------------------
// Glue stations: each wraps one inter-subsystem hand-off of the
// Figure-5 pipeline as a Component, so the tick loop, idle-skip
// bound, and the attachment fan-outs are all a single iteration over
// the graph. Stations exist to give the hand-offs a place in the tick
// order and hold no state beyond the System backpointer and a core
// index, except that the two pipe stations own their core's shaper
// the way MemorySystem owns its controllers: they tick, bound and
// idle-skip it, and forward its tracer and stats.
// ---------------------------------------------------------------------

/** Consults the fault injector at the top of each cycle. */
struct System::FaultApplyStation final : Component
{
    explicit FaultApplyStation(System *sys)
        : Component("station.faults"), sys_(sys)
    {
    }

    void
    tick(Cycle now) override
    {
        if (!sys_->injector_)
            return;
        sys_->applyInjectedFaults();
        // Injected state (corrupted credits, armed one-shots, wedges)
        // is observed by the pipe stations: wake them so detection
        // lands on the injection cycle itself. (The armed credit
        // checker already runs every cycle.)
        sys_->wakeFaultTargets(now);
    }

    /** Scheduled faults must fire at their programmed cycle, not at
     *  whatever tick the event kernel happens to execute next. */
    Cycle
    nextEventCycle(Cycle from) const override
    {
        return sys_->injector_ ? sys_->injector_->nextScheduledCycle(from)
                               : kNoCycle;
    }

    System *sys_;
};

/** Cache outgoing -> miss buffer -> shaper/request channel. */
struct System::CorePipeStation final : Component
{
    CorePipeStation(System *sys, std::uint32_t core,
                    std::unique_ptr<shaper::RequestShaper> shaper)
        : Component("station.reqpipe.core" + std::to_string(core)),
          sys_(sys), core_(core), shaper_(std::move(shaper))
    {
    }

    void
    tick(Cycle) override
    {
        PerCore &pc = *sys_->cores_[core_];
        sys_->drainCacheOutgoing(pc);
        sys_->feedRequestPath(pc);
    }

    Cycle
    nextEventCycle(Cycle from) const override
    {
        // Buffered misses move the moment the next stage can take
        // them (every cycle while it can).
        const PerCore &pc = *sys_->cores_[core_];
        if (!pc.missBuffer.empty() && (!shaper_ || shaper_->canAccept()))
            return from;
        if (shaper_) {
            // A wedged shaper is ticked (and wedge-early-returns)
            // every cycle: none of those cycles is provably idle.
            if (sys_->injector_ &&
                sys_->injector_->reqShaperWedged(core_, from - 1)) {
                return from;
            }
            // With this port's ingress queue full the shaper ticks
            // ready=false, which skips its stall accounting — those
            // cycles must stay real ticks. (Only this station pushes
            // to the port, so not-full cannot regress while asleep.)
            if (!sys_->reqChannel_->canAccept(core_))
                return from;
            // The shaper drives its own schedule (replenishments,
            // eligibility, stall events) through the station.
            return shaper_->nextEventCycle(from);
        }
        return kNoCycle;
    }

    /** The owned shaper is driven by this station: its batched idle
     *  accounting rides the station's. */
    void
    skipIdleCycles(Cycle n) override
    {
        if (shaper_)
            shaper_->skipIdleCycles(n);
    }

    /** Epoch service counters live on the pipe, not the core. */
    void
    reset() override
    {
        PerCore &pc = *sys_->cores_[core_];
        pc.servedReads = 0;
        pc.latencySum = 0;
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

    System *sys_;
    std::uint32_t core_;
    std::unique_ptr<shaper::RequestShaper> shaper_;
};

/** Request-channel egress -> memory controller (1/cycle). */
struct System::ReqLinkStation final : Component
{
    explicit ReqLinkStation(System *sys)
        : Component("station.reqlink"), sys_(sys)
    {
    }

    void
    tick(Cycle now) override
    {
        noc::SharedChannel &ch = *sys_->reqChannel_;
        if (ch.hasEgress(now) &&
            sys_->mem_->canAccept(ch.egressFront().addr,
                                  ch.egressFront().isWrite)) {
            // enqueue() stamps the transaction with the controller's
            // clock-divider state; bring the controller to the state
            // it has at this point of the per-cycle loop (its own
            // tick this cycle has not yet run) before mutating it.
            sys_->catchUp(sys_->memIdx_, now - 1);
            sys_->mem_->enqueue(ch.popEgress(now), now);
            // The controller must arbitrate the new arrival this
            // cycle, exactly as the tick loop had it.
            sys_->mem_->scheduleAt(now);
        }
    }

    /** Pending egress drains one flit per cycle while the MC has
     *  queue space for the head flit. When the MC queue is full the
     *  station sleeps: canAccept only turns true when a served CAS
     *  frees a slot, and the controller's queue-space subscription
     *  wakes us then (on the next cycle, since this station ticks
     *  before the controller — the per-cycle loop likewise used the
     *  freed slot one cycle later). New egress arrivals wake us
     *  through the channel's egress subscription. */
    Cycle
    nextEventCycle(Cycle from) const override
    {
        const noc::SharedChannel &ch = *sys_->reqChannel_;
        if (ch.egressDepth() == 0)
            return kNoCycle;
        return sys_->mem_->canAccept(ch.egressFront().addr,
                                     ch.egressFront().isWrite)
                   ? from
                   : kNoCycle;
    }

    System *sys_;
};

/** MC responses -> per-core response buffers (+ injected delays). */
struct System::MemRouteStation final : Component
{
    explicit MemRouteStation(System *sys)
        : Component("station.memroute"), sys_(sys)
    {
    }

    void tick(Cycle) override { sys_->routeMcResponses(); }

    Cycle
    nextEventCycle(Cycle from) const override
    {
        Cycle ev = kNoCycle;
        for (const DelayedResponse &d : sys_->delayedResp_)
            ev = std::min(ev, std::max(from, d.releaseAt));
        // Completed DRAM reads route back the cycle they become
        // ready (the controller's response subscription covers
        // responses minted after this bound was taken).
        ev = std::min(ev,
                      std::max(from, sys_->mem_->nextResponseReady()));
        return ev;
    }

    System *sys_;
};

/** Response buffer -> shaper -> response channel. */
struct System::RespPipeStation final : Component
{
    RespPipeStation(System *sys, std::uint32_t core,
                    std::unique_ptr<shaper::ResponseShaper> shaper)
        : Component("station.resppipe.core" + std::to_string(core)),
          sys_(sys), core_(core), shaper_(std::move(shaper))
    {
    }

    void
    tick(Cycle) override
    {
        sys_->feedResponsePath(*sys_->cores_[core_]);
    }

    Cycle
    nextEventCycle(Cycle from) const override
    {
        const PerCore &pc = *sys_->cores_[core_];
        if (!pc.respBuffer.empty() && (!shaper_ || shaper_->canAccept()))
            return from;
        if (shaper_) {
            // Accumulated priority warnings are forwarded to the
            // scheduler on the next tick.
            if (shaper_->hasPendingBoost())
                return from;
            if (sys_->injector_ &&
                sys_->injector_->respShaperWedged(core_, from - 1)) {
                return from;
            }
            // ready=false ticks (full ingress) bypass the shaper's
            // stall accounting; see CorePipeStation.
            if (!sys_->respChannel_->canAccept(core_))
                return from;
            return shaper_->nextEventCycle(from);
        }
        return kNoCycle;
    }

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

    System *sys_;
    std::uint32_t core_;
    std::unique_ptr<shaper::ResponseShaper> shaper_;
};

/** Response-channel egress -> core fill (1/cycle). */
struct System::RespLinkStation final : Component
{
    explicit RespLinkStation(System *sys)
        : Component("station.resplink"), sys_(sys)
    {
    }

    void tick(Cycle) override { sys_->deliverResponses(); }

    /** One delivery per cycle while the egress queue holds flits. */
    Cycle
    nextEventCycle(Cycle from) const override
    {
        return sys_->respChannel_->egressDepth() > 0 ? from : kNoCycle;
    }

    System *sys_;
};

/** End-of-cycle shaper credit-state audit (observe-only). */
struct System::CreditCheckStation final : Component
{
    explicit CreditCheckStation(System *sys)
        : Component("station.creditcheck"), sys_(sys)
    {
    }

    void
    tick(Cycle) override
    {
        if (armed())
            sys_->checkCreditState();
    }

    /** While armed, the audit runs every cycle, as in the per-cycle
     *  loop: a credit register can go bad on any cycle (a fault, or
     *  a write between runs), not only on fault-injection cycles. */
    Cycle
    nextEventCycle(Cycle from) const override
    {
        return armed() ? from : kNoCycle;
    }

    bool
    armed() const
    {
        return sys_->checkers_ && sys_->checkers_->config().conservation;
    }

    System *sys_;
};

/**
 * Periodic interval-metrics snapshot. The station schedules itself at
 * each boundary (nextEventCycle pins interval_->nextAt()); before
 * sampling it catches every earlier component up through the
 * boundary, so rows read the exact state the per-cycle loop would
 * have shown there.
 */
struct System::IntervalStation final : Component
{
    explicit IntervalStation(System *sys)
        : Component("station.interval"), sys_(sys)
    {
    }

    void
    tick(Cycle now) override
    {
        if (sys_->interval_ && sys_->interval_->due(now))
            sys_->sampleIntervalAt(now);
    }

    Cycle
    nextEventCycle(Cycle from) const override
    {
        if (!sys_->interval_)
            return kNoCycle;
        return std::max(from, sys_->interval_->nextAt());
    }

    System *sys_;
};

/**
 * Online leakage-monitor evaluation point. The station's
 * nextEventCycle pins a tick on every check boundary, so window
 * evaluations happen at identical cycles with fast-forward on or
 * off.
 */
struct System::LeakMonStation final : Component
{
    explicit LeakMonStation(System *sys)
        : Component("station.leakmon"), sys_(sys)
    {
    }

    void
    tick(Cycle now) override
    {
        obs::LeakMonitor *mon = sys_->leakmon_.get();
        if (!mon || now < mon->nextCheckAt())
            return;
        const std::string alert = mon->poll(now);
        if (!alert.empty())
            sys_->onLeakageAlert(alert);
    }

    Cycle
    nextEventCycle(Cycle from) const override
    {
        if (!sys_->leakmon_)
            return kNoCycle;
        return std::max(from, sys_->leakmon_->nextCheckAt());
    }

    void
    registerStats(obs::StatRegistry &reg) const override
    {
        if (sys_->leakmon_)
            reg.add("leakmon", &sys_->leakmon_->stats());
    }

    System *sys_;
};

// ---------------------------------------------------------------------

namespace {

/** Process-unique System instance id for diagnostic dump names. */
std::uint64_t
nextDiagInstance()
{
    static std::atomic<std::uint64_t> counter{0};
    return counter.fetch_add(1, std::memory_order_relaxed);
}

} // namespace

void
validateSystemConfig(const SystemConfig &cfg,
                     std::size_t num_workloads)
{
    if (cfg.numCores < 1)
        throw hard::ConfigError("numCores must be >= 1, got 0");
    if (num_workloads != cfg.numCores) {
        throw hard::ConfigError(
            detail::fmt("expected ", cfg.numCores, " workloads, got ",
                        num_workloads));
    }
    if (!cfg.shapeCore.empty() &&
        cfg.shapeCore.size() != cfg.numCores) {
        throw hard::ConfigError(
            detail::fmt("shapeCore mask has ", cfg.shapeCore.size(),
                        " entries but numCores is ", cfg.numCores));
    }
    if (!cfg.reqBinsPerCore.empty() &&
        cfg.reqBinsPerCore.size() != cfg.numCores) {
        throw hard::ConfigError(
            detail::fmt("reqBinsPerCore has ",
                        cfg.reqBinsPerCore.size(),
                        " entries but numCores is ", cfg.numCores));
    }
    if (!cfg.respBinsPerCore.empty() &&
        cfg.respBinsPerCore.size() != cfg.numCores) {
        throw hard::ConfigError(
            detail::fmt("respBinsPerCore has ",
                        cfg.respBinsPerCore.size(),
                        " entries but numCores is ", cfg.numCores));
    }
}

System::System(const SystemPlan &plan, const PlanOverrides &overrides)
    : cfg_(plan.config()), diagStream_(&std::cerr),
      diagInstance_(nextDiagInstance())
{
    if (overrides.seed)
        cfg_.seed = *overrides.seed;
    if (overrides.reqBinsPerCore)
        cfg_.reqBinsPerCore = *overrides.reqBinsPerCore;
    if (overrides.respBinsPerCore)
        cfg_.respBinsPerCore = *overrides.respBinsPerCore;
    validateSystemConfig(cfg_, plan.workloads().size());
    buildTopology(plan);
}

void
System::buildTopology(const SystemPlan &plan)
{
    // Baseline scheduler selection per mitigation.
    cfg_.mc.numCores = cfg_.numCores;
    switch (cfg_.mitigation) {
      case Mitigation::TP:
        cfg_.mc.scheduler = mem::SchedulerKind::TemporalPartition;
        cfg_.mc.tp.numDomains = cfg_.numCores;
        break;
      case Mitigation::FS:
        cfg_.mc.scheduler = mem::SchedulerKind::FixedService;
        cfg_.mc.fs.numCores = cfg_.numCores;
        cfg_.mc.bankPartitioning = true;
        break;
      default:
        // Keep the configured scheduler (FR-FCFS by default); the
        // substrate ablations swap in plain FCFS this way.
        break;
    }

    tracer_ = std::make_unique<obs::Tracer>();
    arena_ = std::make_unique<Arena>();
    mem_ = std::make_unique<mem::MemorySystem>(cfg_.mc, arena_.get());
    reqChannel_ = std::make_unique<noc::SharedChannel>(
        cfg_.numCores, cfg_.noc, "noc.req",
        obs::EventType::ReqChannelGrant);
    respChannel_ = std::make_unique<noc::SharedChannel>(
        cfg_.numCores, cfg_.noc, "noc.resp",
        obs::EventType::RespChannelGrant);

    const bool wants_req = cfg_.mitigation == Mitigation::ReqC ||
                           cfg_.mitigation == Mitigation::BDC ||
                           cfg_.mitigation == Mitigation::CS;
    const bool wants_resp = cfg_.mitigation == Mitigation::RespC ||
                            cfg_.mitigation == Mitigation::BDC;
    // Handed to the pipe stations below, which own them.
    std::vector<std::unique_ptr<shaper::RequestShaper>> req_shapers(
        cfg_.numCores);
    std::vector<std::unique_ptr<shaper::ResponseShaper>> resp_shapers(
        cfg_.numCores);

    for (std::uint32_t i = 0; i < cfg_.numCores; ++i) {
        auto pc = std::make_unique<PerCore>(cfg_.reqBins.edges);
        // Disjoint 1 TiB address windows keep workloads from aliasing.
        const Addr base = static_cast<Addr>(i) << 40;
        pc->trace =
            plan.compiled(i).instantiate(cfg_.seed * 7919 + i, base);
        pc->cache = std::make_unique<cache::CacheHierarchy>(
            i, cfg_.cache, arena_.get());
        pc->core = std::make_unique<core::Core>(i, cfg_.core, *pc->trace,
                                                *pc->cache,
                                                arena_.get());

        if (wants_req && coreIsShaped(i)) {
            shaper::RequestShaperConfig rc;
            if (cfg_.mitigation == Mitigation::CS) {
                // Ascend-style constant rate: strictly periodic issue
                // slots, dummies (fakes) filling empty slots.
                rc.bins = shaper::BinConfig::constantRate(
                    cfg_.csInterval, cfg_.csInterval * 10);
                rc.strictSlotInterval = cfg_.csInterval;
            } else {
                rc.bins = cfg_.reqBinsPerCore.empty()
                              ? cfg_.reqBins
                              : cfg_.reqBinsPerCore[i];
            }
            rc.generateFakes = cfg_.fakeTraffic;
            rc.randomizeTiming = cfg_.randomizeTiming;
            rc.fakeSequential = cfg_.fakeSequential;
            rc.fakeWriteFrac = cfg_.fakeWriteFrac;
            rc.fakeAddrBase = base + (1ULL << 39);
            req_shapers[i] = std::make_unique<shaper::RequestShaper>(
                i, rc, cfg_.seed * 104729 + i, arena_.get());
            pc->reqShaper = req_shapers[i].get();
        }
        if (wants_resp && coreIsShaped(i)) {
            shaper::ResponseShaperConfig rc;
            rc.bins = cfg_.respBinsPerCore.empty()
                          ? cfg_.respBins
                          : cfg_.respBinsPerCore[i];
            rc.generateFakes = cfg_.fakeTraffic;
            resp_shapers[i] = std::make_unique<shaper::ResponseShaper>(
                i, rc, arena_.get());
            pc->respShaper = resp_shapers[i].get();
        }
        if (cfg_.recordTraffic) {
            pc->intrinsicMon.setLogging(true);
            pc->busMon.setLogging(true);
            pc->respMon.setLogging(true);
            if (pc->reqShaper) {
                pc->reqShaper->preMonitor().setLogging(true);
                pc->reqShaper->postMonitor().setLogging(true);
            }
            if (pc->respShaper) {
                pc->respShaper->preMonitor().setLogging(true);
                pc->respShaper->postMonitor().setLogging(true);
            }
        }
        cores_.push_back(std::move(pc));
    }

    // Lay the components into the graph in Figure-5 tick order. The
    // subsystems are borrowed (the PerCore / System unique_ptrs above
    // own them); the stations are graph-owned. The subscriptions made
    // here are the event kernel's only hand-off wiring: each producer
    // wakes its consuming station at the cycle the data lands.
    graph_.emplace<FaultApplyStation>(this);
    for (std::uint32_t i = 0; i < cfg_.numCores; ++i) {
        PerCore &pc = *cores_[i];
        graph_.add(pc.core.get());
        pc.coreIdx = graph_.size() - 1;
        CorePipeStation *cp = graph_.emplace<CorePipeStation>(
            this, i, std::move(req_shapers[i]));
        pc.corePipeIdx = graph_.size() - 1;
        pc.cache->subscribe(cp);
        pc.missBuffer.subscribe(cp);
    }
    graph_.add(reqChannel_.get());
    ReqLinkStation *rl = graph_.emplace<ReqLinkStation>(this);
    reqChannel_->subscribeEgress(rl);
    mem_->subscribeQueueSpace(rl);
    graph_.add(mem_.get());
    memIdx_ = graph_.size() - 1;
    mem_->subscribeResponses(graph_.emplace<MemRouteStation>(this));
    for (std::uint32_t i = 0; i < cfg_.numCores; ++i) {
        PerCore &pc = *cores_[i];
        RespPipeStation *rp = graph_.emplace<RespPipeStation>(
            this, i, std::move(resp_shapers[i]));
        pc.respPipeIdx = graph_.size() - 1;
        pc.respBuffer.subscribe(rp);
    }
    graph_.add(respChannel_.get());
    RespLinkStation *rsl = graph_.emplace<RespLinkStation>(this);
    respChannel_->subscribeEgress(rsl);
    graph_.emplace<CreditCheckStation>(this);
    graph_.emplace<IntervalStation>(this);

    // One fan-out wires the tracer into every component (sticky:
    // late-added components get it automatically).
    graph_.attachTracer(tracer_.get());
}

System::~System() = default;

Component &
System::addComponent(std::unique_ptr<Component> component)
{
    return *graph_.add(std::move(component));
}

bool
System::coreIsShaped(std::uint32_t i) const
{
    return cfg_.shapeCore.empty() || cfg_.shapeCore[i];
}

const core::Core &
System::coreAt(std::uint32_t i) const
{
    camo_assert(i < cores_.size(), "core index out of range");
    return *cores_[i]->core;
}

core::Core &
System::coreAt(std::uint32_t i)
{
    camo_assert(i < cores_.size(), "core index out of range");
    return *cores_[i]->core;
}

shaper::RequestShaper *
System::requestShaper(std::uint32_t i)
{
    camo_assert(i < cores_.size(), "core index out of range");
    return cores_[i]->reqShaper;
}

shaper::ResponseShaper *
System::responseShaper(std::uint32_t i)
{
    camo_assert(i < cores_.size(), "core index out of range");
    return cores_[i]->respShaper;
}

const shaper::DistributionMonitor &
System::intrinsicMonitor(std::uint32_t i) const
{
    camo_assert(i < cores_.size(), "core index out of range");
    return cores_[i]->intrinsicMon;
}

const shaper::DistributionMonitor &
System::busMonitor(std::uint32_t i) const
{
    camo_assert(i < cores_.size(), "core index out of range");
    return cores_[i]->busMon;
}

const shaper::DistributionMonitor &
System::responseMonitor(std::uint32_t i) const
{
    camo_assert(i < cores_.size(), "core index out of range");
    return cores_[i]->respMon;
}

const std::vector<security::LatencySample> &
System::latencyLog(std::uint32_t i) const
{
    camo_assert(i < cores_.size(), "core index out of range");
    return cores_[i]->latencies;
}

std::uint64_t
System::servedReads(std::uint32_t i) const
{
    camo_assert(i < cores_.size(), "core index out of range");
    return cores_[i]->servedReads;
}

double
System::avgReadLatency(std::uint32_t i) const
{
    camo_assert(i < cores_.size(), "core index out of range");
    const PerCore &pc = *cores_[i];
    return pc.servedReads == 0
               ? 0.0
               : static_cast<double>(pc.latencySum) /
                     static_cast<double>(pc.servedReads);
}

void
System::clearEpochCounters()
{
    // Core::reset() clears the core-side epoch counters; the per-core
    // pipe stations clear the service counters.
    graph_.reset();
}

void
System::reconfigureShapers(const shaper::BinConfig &req_bins,
                           const shaper::BinConfig &resp_bins)
{
    for (std::uint32_t i = 0; i < cores_.size(); ++i)
        reconfigureShaper(i, req_bins, resp_bins);
}

void
System::reconfigureShaper(std::uint32_t core,
                          const shaper::BinConfig &req_bins,
                          const shaper::BinConfig &resp_bins)
{
    camo_assert(core < cores_.size(), "core index out of range");
    PerCore &pc = *cores_[core];
    if (pc.reqShaper)
        pc.reqShaper->reconfigure(req_bins);
    if (pc.respShaper)
        pc.respShaper->reconfigure(resp_bins);
}

void
System::setFakeTraffic(bool on)
{
    for (auto &pc : cores_) {
        if (pc->reqShaper)
            pc->reqShaper->setGenerateFakes(on);
        if (pc->respShaper)
            pc->respShaper->setGenerateFakes(on);
    }
}

void
System::drainCacheOutgoing(PerCore &pc)
{
    std::vector<MemRequest> &out = pc.cache->outgoing();
    if (out.empty())
        return;
    for (MemRequest &req : out) {
        pc.intrinsicMon.record(now_);
        pc.missBuffer.push(std::move(req), now_);
    }
    pc.cache->clearOutgoing();
}

void
System::feedRequestPath(PerCore &pc)
{
    const std::uint32_t port = pc.core->id();

    if (injector_) {
        // Shaper-bypass fault: a real request jumps straight onto the
        // shared channel. Preconditions are checked before consulting
        // the injector so the one-shot only latches when it can fire.
        if (!pc.missBuffer.empty() && reqChannel_->canAccept(port) &&
            injector_->leakRequestDue(port, now_)) {
            MemRequest req = pc.missBuffer.pop();
            req.shaperOut = now_;
            pushToReqChannel(pc, std::move(req), false);
        }
        // Forced fake: a fake issued outside the shaper's schedule.
        if (reqChannel_->canAccept(port) &&
            injector_->forceFakeDue(port, now_)) {
            MemRequest fake;
            fake.id = (static_cast<ReqId>(port) << 48) |
                      (1ULL << 46) | ++forcedFakes_;
            fake.core = port;
            fake.isFake = true;
            fake.addr = (static_cast<Addr>(port) << 40) | (1ULL << 38);
            fake.created = now_;
            fake.shaperOut = now_;
            pushToReqChannel(pc, std::move(fake), false);
        }
    }

    if (pc.reqShaper) {
        if (injector_ && injector_->reqShaperWedged(port, now_))
            return; // the shaper's clock is gated off: nothing moves
        // Miss buffer -> shaper queue.
        while (!pc.missBuffer.empty() && pc.reqShaper->canAccept())
            pc.reqShaper->push(pc.missBuffer.pop(), now_);
        // Shaper -> shared request channel.
        const bool ready = reqChannel_->canAccept(port);
        if (auto released = pc.reqShaper->tick(now_, ready))
            pushToReqChannel(pc, std::move(*released), true);
        return;
    }

    // Unshaped: straight to the channel (one per cycle per port).
    if (!pc.missBuffer.empty() && reqChannel_->canAccept(port)) {
        MemRequest req = pc.missBuffer.pop();
        req.shaperOut = now_;
        pushToReqChannel(pc, std::move(req), false);
    }
}

void
System::routeMcResponses()
{
    // Injected-delay buffer: release entries that have come due.
    if (!delayedResp_.empty()) {
        for (auto it = delayedResp_.begin(); it != delayedResp_.end();) {
            if (it->releaseAt <= now_) {
                const std::uint32_t c = it->resp.core;
                camo_assert(c < cores_.size(),
                            "response for unknown core");
                cores_[c]->respBuffer.push(std::move(it->resp), now_);
                it = delayedResp_.erase(it);
            } else {
                ++it;
            }
        }
    }

    respScratch_.clear();
    mem_->drainResponses(now_, respScratch_);
    for (MemRequest &resp : respScratch_) {
        const std::uint32_t c = resp.core;
        camo_assert(c < cores_.size(), "response for unknown core");
        if (injector_) {
            Cycle delay = 0;
            switch (injector_->onResponse(now_, resp, &delay)) {
              case hard::FaultInjector::RespAction::Drop:
                stats_.inc("hard.resp_dropped");
                continue;
              case hard::FaultInjector::RespAction::Delay:
                stats_.inc("hard.resp_delayed");
                delayedResp_.push_back({now_ + delay, std::move(resp)});
                continue;
              case hard::FaultInjector::RespAction::Duplicate:
                stats_.inc("hard.resp_duplicated");
                cores_[c]->respBuffer.push(resp, now_); // extra copy
                break;
              case hard::FaultInjector::RespAction::Pass:
                break;
            }
        }
        cores_[c]->respBuffer.push(std::move(resp), now_);
    }
}

void
System::feedResponsePath(PerCore &pc)
{
    const std::uint32_t port = pc.core->id();

    if (pc.respShaper) {
        if (injector_ && injector_->respShaperWedged(port, now_))
            return; // wedged: responses pile up behind it
        while (!pc.respBuffer.empty() && pc.respShaper->canAccept())
            pc.respShaper->push(pc.respBuffer.pop(), now_);
        // Forward accumulated priority warnings to the scheduler.
        if (const std::uint32_t boost =
                pc.respShaper->takePriorityWarning()) {
            mem_->boostPriority(port, boost);
            // Boost tokens re-segment the controller's candidate
            // pool, which can advance its earliest-pick bound (the
            // FCFS-family head changes); re-derive it this cycle.
            mem_->scheduleAt(now_);
        }
        const bool ready = respChannel_->canAccept(port);
        if (auto released = pc.respShaper->tick(now_, ready))
            pushToRespChannel(pc, std::move(*released), true);
        return;
    }

    if (!pc.respBuffer.empty() && respChannel_->canAccept(port)) {
        MemRequest resp = pc.respBuffer.pop();
        resp.respShaperOut = now_;
        pushToRespChannel(pc, std::move(resp), false);
    }
}

void
System::deliverResponses()
{
    // One delivery per cycle: the return channel's bandwidth.
    if (!respChannel_->hasEgress(now_))
        return;
    MemRequest resp = respChannel_->popEgress(now_);
    const std::uint32_t c = resp.core;
    camo_assert(c < cores_.size(), "response for unknown core");
    PerCore &pc = *cores_[c];
    resp.delivered = now_;
    pc.respMon.record(now_, resp.isFake);

    if (resp.isFake) {
        stats_.inc("responses.fake.dropped");
        CAMO_TRACE_EVENT(tracer_.get(), .at = now_,
                         .type = obs::EventType::FakeRespDropped,
                         .core = resp.core, .id = resp.id);
        return; // pure bus activity; no core state waits on it
    }

    // Lifecycle retire runs BEFORE the cache fill: a duplicate
    // response must be reported as such, not as the MSHR-bookkeeping
    // panic it would trigger downstream.
    if (checkers_ && checkers_->config().lifecycle && !resp.isWrite)
        checkers_->lifecycle().onRetire(resp.id, resp.core, now_);
    if (pc.inflightReads > 0)
        --pc.inflightReads;

    CAMO_TRACE_EVENT(tracer_.get(), .at = now_,
                     .type = obs::EventType::RespDelivered,
                     .core = resp.core, .id = resp.id,
                     .addr = resp.addr, .arg = resp.totalLatency());
    ++pc.servedReads;
    pc.latencySum += resp.totalLatency();
    if (cfg_.recordLatencies)
        pc.latencies.push_back({now_, resp.totalLatency()});
    // The fill mutates the core from a later graph position: settle
    // the core's batched idle accounting first (its pre-fill stall
    // state is what those cycles looked like), then apply the fill;
    // the wake lands next cycle — exactly when the tick loop's core
    // would have seen it.
    catchUp(pc.coreIdx, now_);
    const Cycle usable = pc.cache->onFill(resp.addr, now_);
    pc.core->onFill(resp.addr, usable);
    pc.core->scheduleAt(now_);
    // Fills can displace dirty lines: collect the writebacks.
    drainCacheOutgoing(pc);
}

void
System::registerStats(obs::StatRegistry &reg) const
{
    reg.add("system", &stats_);
    // The registry borrows groups, so refresh the arena mirror from
    // the live counters at registration time (both summaryJson and
    // diagnosticJson build a fresh registry right before export).
    arenaStats_.clear();
    arenaStats_.inc("alloc_calls", arena_->allocCalls());
    arenaStats_.inc("free_calls", arena_->freeCalls());
    arenaStats_.inc("free_list_hits", arena_->freeListHits());
    arenaStats_.inc("bytes_requested", arena_->bytesRequested());
    arenaStats_.inc("bytes_reserved", arena_->bytesReserved());
    arenaStats_.inc("heap_fallbacks", arena_->heapFallbacks());
    arenaStats_.inc("chunks", arena_->chunkCount());
    reg.add("system.arena", &arenaStats_);
    // Every component registers its own groups; the registry's JSON
    // view is key-sorted, so the fan-out order is immaterial.
    graph_.registerStats(reg);
}

void
System::enableIntervalStats(Cycle period)
{
    std::vector<std::string> cols{"mc.readq", "mc.writeq"};
    for (std::uint32_t i = 0; i < cores_.size(); ++i) {
        const std::string prefix = "core" + std::to_string(i);
        cols.push_back(prefix + ".ipc");
        cols.push_back(prefix + ".bus.real");
        cols.push_back(prefix + ".bus.fake");
        cols.push_back(prefix + ".req_credits");
        cols.push_back(prefix + ".resp_credits");
    }
    if (leakmon_) {
        cols.push_back("leakmon.window_mi_bits");
        intervalHasLeakCol_ = true;
    }
    interval_ =
        std::make_unique<obs::IntervalCollector>(period, std::move(cols));
    for (auto &pc : cores_) {
        pc->ivRetired = pc->core->retired();
        pc->ivCycles = pc->core->cycles();
        pc->ivBusReal = pc->busMon.realCount();
        pc->ivBusFake = pc->busMon.fakeCount();
    }
}

void
System::sampleIntervalAt(Cycle at)
{
    // Under the event kernel the interval station runs near the end
    // of the graph: every component due this cycle has already
    // ticked, and catching the rest up through the boundary settles
    // their batched idle accounting, so the row reads exactly what
    // the per-cycle loop would have shown at `at`.
    if (kernelActive_ && inCycle_)
        syncAllThrough(at, procIdx_);
    std::vector<double> row;
    row.reserve(interval_->columns().size());
    row.push_back(static_cast<double>(mem_->readQueueSize()));
    row.push_back(static_cast<double>(mem_->writeQueueSize()));
    for (auto &pc : cores_) {
        const std::uint64_t retired = pc->core->retired();
        const std::uint64_t cycles = pc->core->cycles();
        const std::uint64_t dc = cycles - pc->ivCycles;
        row.push_back(dc ? static_cast<double>(retired - pc->ivRetired) /
                               static_cast<double>(dc)
                         : 0.0);
        const std::uint64_t real = pc->busMon.realCount();
        const std::uint64_t fake = pc->busMon.fakeCount();
        row.push_back(static_cast<double>(real - pc->ivBusReal));
        row.push_back(static_cast<double>(fake - pc->ivBusFake));
        row.push_back(pc->reqShaper
                          ? pc->reqShaper->bins().creditsTotal()
                          : 0.0);
        row.push_back(pc->respShaper
                          ? pc->respShaper->bins().creditsTotal()
                          : 0.0);
        pc->ivRetired = retired;
        pc->ivCycles = cycles;
        pc->ivBusReal = real;
        pc->ivBusFake = fake;
    }
    if (intervalHasLeakCol_)
        row.push_back(leakmon_->lastWindowMiBits());
    interval_->addRow(at, std::move(row));
}

hard::ShaperContract
System::contractOf(const shaper::BinConfig &cfg)
{
    hard::ShaperContract c;
    c.edges = cfg.edges;
    c.credits = cfg.credits;
    c.replenishPeriod = cfg.replenishPeriod;
    return c;
}

void
System::enableCheckers(const hard::CheckerConfig &cfg)
{
    checkers_ = std::make_unique<hard::CheckerSet>(cfg);
    if (cfg.protocol) {
        for (std::uint32_t c = 0; c < mem_->numChannels(); ++c) {
            mem::MemoryController &mc = mem_->channel(c);
            mem_->channel(c).setCommandObserver(
                checkers_->addProtocolChecker(mc.config().org,
                                              mc.config().timing));
        }
    }
    if (cfg.conservation) {
        for (std::uint32_t i = 0; i < cores_.size(); ++i) {
            const PerCore &pc = *cores_[i];
            if (pc.reqShaper) {
                checkers_->reqConservation().setContract(
                    i, contractOf(pc.reqShaper->bins().config()));
            }
            if (pc.respShaper) {
                checkers_->respConservation().setContract(
                    i, contractOf(pc.respShaper->bins().config()));
            }
        }
    }
}

void
System::setFaultInjector(hard::FaultInjector *injector)
{
    injector_ = injector;
}

void
System::enableWatchdog(const hard::WatchdogConfig &cfg)
{
    watchdog_ = std::make_unique<hard::Watchdog>(cfg);
}

void
System::setDiagnosticDir(const std::string &dir)
{
    diagDir_ = dir;
    if (dir.empty())
        return;
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    // A failure here is not fatal: emitDiagnostic falls back to the
    // diagnostic stream when the dump file cannot be opened.
}

std::string
System::emitDiagnostic(const std::string &tag,
                       const std::string &dump) const
{
    if (diagDir_.empty()) {
        if (diagStream_)
            *diagStream_ << dump << "\n";
        return {};
    }
    // Sanitize the tag into a filename fragment (reasons carry
    // spaces/colons); uniqueness comes from (pid, instance, seq).
    std::string safe;
    for (const char c : tag) {
        if (safe.size() >= 40)
            break;
        const bool ok = (c >= 'a' && c <= 'z') ||
                        (c >= 'A' && c <= 'Z') ||
                        (c >= '0' && c <= '9') || c == '-' || c == '_';
        safe.push_back(ok ? c : '-');
    }
    std::ostringstream name;
    name << diagDir_ << "/camo-diag-p" << ::getpid() << "-i"
         << diagInstance_ << "-" << diagSeq_++ << "-" << safe
         << ".json";
    std::ofstream os(name.str());
    if (!os) {
        // Never mask the error being raised: fall back to the stream.
        if (diagStream_)
            *diagStream_ << dump << "\n";
        return {};
    }
    os << dump << "\n";
    return name.str();
}

obs::json::Value
System::diagnosticJson(const std::string &reason) const
{
    auto root = obs::json::Value::makeObject();
    root["reason"] = reason;
    root["cycle"] = static_cast<std::uint64_t>(now_);

    auto queues = obs::json::Value::makeObject();
    for (std::uint32_t i = 0; i < cores_.size(); ++i) {
        const PerCore &pc = *cores_[i];
        auto q = obs::json::Value::makeObject();
        q["miss_buffer"] = static_cast<std::uint64_t>(
            pc.missBuffer.size());
        q["resp_buffer"] = static_cast<std::uint64_t>(
            pc.respBuffer.size());
        q["req_shaper_queue"] = static_cast<std::uint64_t>(
            pc.reqShaper ? pc.reqShaper->queueDepth() : 0);
        q["resp_shaper_queue"] = static_cast<std::uint64_t>(
            pc.respShaper ? pc.respShaper->queueDepth() : 0);
        q["inflight_reads"] = pc.inflightReads;
        q["req_ingress"] = static_cast<std::uint64_t>(
            reqChannel_->ingressDepth(i));
        q["resp_ingress"] = static_cast<std::uint64_t>(
            respChannel_->ingressDepth(i));
        q["degraded"] = pc.degraded;
        queues["core" + std::to_string(i)] = std::move(q);
    }
    queues["mc_readq"] =
        static_cast<std::uint64_t>(mem_->readQueueSize());
    queues["mc_writeq"] =
        static_cast<std::uint64_t>(mem_->writeQueueSize());
    queues["req_egress"] =
        static_cast<std::uint64_t>(reqChannel_->egressDepth());
    queues["resp_egress"] =
        static_cast<std::uint64_t>(respChannel_->egressDepth());
    queues["delayed_responses"] =
        static_cast<std::uint64_t>(delayedResp_.size());
    root["queues"] = std::move(queues);

    obs::StatRegistry reg;
    registerStats(reg);
    root["stats"] = reg.toJson();

    if (tracer_->enabled()) {
        const std::size_t tail =
            watchdog_ ? watchdog_->config().traceTail : 64;
        const std::vector<obs::Event> events = tracer_->snapshot();
        auto arr = obs::json::Value::makeArray();
        const std::size_t start =
            events.size() > tail ? events.size() - tail : 0;
        for (std::size_t i = start; i < events.size(); ++i) {
            if (auto v = obs::json::tryParse(
                    obs::eventToJson(events[i]))) {
                arr.push(std::move(*v));
            }
        }
        root["trace_tail"] = std::move(arr);
    }
    return root;
}

void
System::degradeShaper(std::uint32_t i)
{
    camo_assert(i < cores_.size(), "core index out of range");
    PerCore &pc = *cores_[i];
    if (pc.degraded)
        return;
    pc.degraded = true;
    stats_.inc("hard.shaper_degraded");
    if (pc.reqShaper) {
        const shaper::BinConfig safe =
            shaper::BinConfig::failSecure(pc.reqShaper->bins().config());
        pc.reqShaper->reconfigure(safe);
        if (checkers_ && checkers_->config().conservation)
            checkers_->reqConservation().setContract(i, contractOf(safe));
    }
    if (pc.respShaper) {
        const shaper::BinConfig safe = shaper::BinConfig::failSecure(
            pc.respShaper->bins().config());
        pc.respShaper->reconfigure(safe);
        if (checkers_ && checkers_->config().conservation)
            checkers_->respConservation().setContract(i,
                                                      contractOf(safe));
    }
    // A mid-run degradation swaps the shapers' schedules out from
    // under the driving stations: force both to requery their bounds.
    if (kernelActive_) {
        wakeAt(static_cast<std::uint32_t>(pc.corePipeIdx), now_ + 1);
        wakeAt(static_cast<std::uint32_t>(pc.respPipeIdx), now_ + 1);
    }
    // Fake generation is deliberately left untouched: degradation must
    // never reveal more than the schedule it replaces.
    camo_warn("core ", i, " shapers degraded to the fail-secure ",
              "constant-rate schedule at cycle ", now_);
}

bool
System::shaperDegraded(std::uint32_t i) const
{
    camo_assert(i < cores_.size(), "core index out of range");
    return cores_[i]->degraded;
}

void
System::checkForLeaks() const
{
    if (!checkers_ || !checkers_->config().lifecycle)
        return;
    const std::vector<hard::LeakedRequest> leaks =
        checkers_->lifecycle().leaked(now_,
                                      checkers_->config().leakAge);
    if (leaks.empty())
        return;
    std::ostringstream os;
    os << leaks.size() << " request(s) issued but never retired:";
    const std::size_t shown = std::min<std::size_t>(leaks.size(), 8);
    for (std::size_t i = 0; i < shown; ++i) {
        os << " id=" << leaks[i].id << " core=" << leaks[i].core
           << " issued=" << leaks[i].issuedAt << ";";
    }
    if (leaks.size() > shown)
        os << " ...";
    const std::string dump = diagnosticJson("request-leak").dump(2);
    const std::string path = emitDiagnostic("request-leak", dump);
    throw hard::InvariantViolation(os.str(), dump, path);
}

void
System::onShaperViolation(std::uint32_t core, const std::string &msg)
{
    stats_.inc("hard.shaper_violations");
    if (checkers_->config().recoverShaper) {
        camo_warn("shaper invariant violated, degrading core ", core,
                  ": ", msg);
        degradeShaper(core);
        return;
    }
    syncForDiagnostic();
    const std::string dump =
        diagnosticJson("shaper-invariant: " + msg).dump(2);
    const std::string path = emitDiagnostic("shaper-invariant", dump);
    throw hard::InvariantViolation(msg, dump, path);
}

void
System::pushToReqChannel(PerCore &pc, MemRequest req,
                         bool shaper_release)
{
    const std::uint32_t port = pc.core->id();
    if (checkers_) {
        const bool tracked = !req.isFake && !req.isWrite;
        if (checkers_->config().conservation &&
            checkers_->reqConservation().hasContract(port)) {
            if (shaper_release)
                checkers_->reqConservation().onShaperRelease(port, now_);
            const bool fakes_on =
                pc.reqShaper && pc.reqShaper->generateFakes();
            const std::string v = checkers_->reqConservation().onBusPush(
                port, now_, req.isFake, fakes_on);
            if (!v.empty())
                onShaperViolation(port, v);
        }
        if (checkers_->config().lifecycle && tracked)
            checkers_->lifecycle().onIssue(req.id, port, now_);
    }
    if (!req.isFake && !req.isWrite)
        ++pc.inflightReads;
    pc.busMon.record(now_, req.isFake);
    reqChannel_->push(port, std::move(req), now_);
}

void
System::pushToRespChannel(PerCore &pc, MemRequest resp,
                          bool shaper_release)
{
    const std::uint32_t port = pc.core->id();
    if (checkers_ && checkers_->config().conservation &&
        checkers_->respConservation().hasContract(port)) {
        if (shaper_release)
            checkers_->respConservation().onShaperRelease(port, now_);
        const bool fakes_on =
            pc.respShaper && pc.respShaper->generateFakes();
        const std::string v = checkers_->respConservation().onBusPush(
            port, now_, resp.isFake, fakes_on);
        if (!v.empty())
            onShaperViolation(port, v);
    }
    respChannel_->push(port, std::move(resp), now_);
}

void
System::checkCreditState()
{
    for (std::uint32_t i = 0; i < cores_.size(); ++i) {
        const PerCore &pc = *cores_[i];
        if (pc.reqShaper &&
            checkers_->reqConservation().hasContract(i)) {
            const std::string v =
                checkers_->reqConservation().onCreditState(
                    i, pc.reqShaper->bins().credits());
            if (!v.empty())
                onShaperViolation(i, v);
        }
        if (pc.respShaper &&
            checkers_->respConservation().hasContract(i)) {
            const std::string v =
                checkers_->respConservation().onCreditState(
                    i, pc.respShaper->bins().credits());
            if (!v.empty())
                onShaperViolation(i, v);
        }
    }
}

void
System::applyInjectedFaults()
{
    for (std::uint32_t i = 0; i < cores_.size(); ++i) {
        PerCore &pc = *cores_[i];
        if (pc.reqShaper || pc.respShaper) {
            if (injector_->corruptCreditsDue(i, now_)) {
                if (pc.reqShaper) {
                    pc.reqShaper->binsMut().injectLiveCredits(
                        2 * shaper::kMaxCreditsPerBin);
                }
                if (pc.respShaper) {
                    pc.respShaper->binsMut().injectLiveCredits(
                        2 * shaper::kMaxCreditsPerBin);
                }
            }
            if (injector_->starveCreditsDue(i, now_)) {
                if (pc.reqShaper)
                    pc.reqShaper->binsMut().injectStarvation();
                if (pc.respShaper)
                    pc.respShaper->binsMut().injectStarvation();
            }
        }
        if (pc.reqShaper && injector_->malformedConfigDue(i, now_)) {
            // Round-trip the live configuration through the hardware
            // ConfigPort with a zeroed register image: the decode-side
            // validation must reject it and the old schedule must
            // survive.
            shaper::RegisterFile regs =
                shaper::encodeConfig(pc.reqShaper->bins().config());
            std::fill(regs.words.begin(), regs.words.end(), 0u);
            try {
                pc.reqShaper->reconfigure(shaper::decodeConfig(regs));
                stats_.inc("hard.config_accepted_malformed");
            } catch (const hard::ConfigError &) {
                stats_.inc("hard.config_rejected");
            }
        }
    }
}

void
System::pollWatchdog(Cycle next_event)
{
    obs::Profiler::Scope scope(prof_, prof_ ? profWatchdogNode_ : 0);
    std::vector<hard::CoreProgress> progress;
    progress.reserve(cores_.size());
    for (const auto &pc : cores_) {
        hard::CoreProgress cp;
        cp.progress = pc->core->retired() + pc->servedReads;
        cp.pending =
            pc->inflightReads > 0 || !pc->missBuffer.empty() ||
            !pc->respBuffer.empty() ||
            (pc->reqShaper && pc->reqShaper->queueDepth() > 0) ||
            (pc->respShaper && pc->respShaper->queueDepth() > 0);
        progress.push_back(cp);
    }
    if (const auto reason =
            watchdog_->poll(now_, progress, next_event)) {
        stats_.inc("hard.watchdog_fired");
        syncForDiagnostic();
        const std::string dump = diagnosticJson(*reason).dump(2);
        const std::string path = emitDiagnostic("watchdog", dump);
        throw hard::WatchdogTimeout(*reason, dump, path);
    }
}

void
System::enableLeakMonitor(const obs::LeakMonitorConfig &cfg)
{
    if (cfg.core >= cores_.size()) {
        throw hard::ConfigError("leakmon core " +
                                std::to_string(cfg.core) +
                                " out of range (have " +
                                std::to_string(cores_.size()) +
                                " cores)");
    }
    if (leakmon_)
        throw hard::ConfigError("leakage monitor already enabled");
    PerCore &pc = *cores_[cfg.core];
    pc.intrinsicMon.setLogging(true);
    pc.busMon.setLogging(true);
    leakmon_ =
        std::make_unique<obs::LeakMonitor>(cfg, pc.intrinsicMon,
                                           pc.busMon);
    graph_.emplace<LeakMonStation>(this);
}

void
System::onLeakageAlert(const std::string &msg)
{
    stats_.inc("leakmon.alerts");
    syncForDiagnostic();
    const std::string dump =
        diagnosticJson("leakage-alert: " + msg).dump(2);
    const std::string path = emitDiagnostic("leakage-alert", dump);
    throw hard::LeakageAlert(msg, dump, path);
}

void
System::setProfiler(obs::Profiler *prof)
{
    prof_ = prof;
    profTickIds_.clear();
    profSkipIds_.clear();
    if (!prof_)
        return;
    const obs::Profiler::NodeId root = prof_->root();
    profTickNode_ = prof_->child(root, "tick");
    profSkipNode_ = prof_->child(root, "skip");
    profWatchdogNode_ = prof_->child(root, "watchdog");
    syncProfiler();
}

void
System::syncProfiler()
{
    // Components can be added after setProfiler (stations, late
    // attachments); extend the cached id vectors to match.
    const auto &order = graph_.order();
    for (std::size_t i = profTickIds_.size(); i < order.size(); ++i) {
        profTickIds_.push_back(
            prof_->child(profTickNode_, order[i]->name()));
        profSkipIds_.push_back(
            prof_->child(profSkipNode_, order[i]->name()));
    }
}

void
System::run(Cycle cycles)
{
    if (!prof_) {
        runLoop(cycles);
        return;
    }
    obs::Profiler::Scope scope(prof_, prof_->root());
    runLoop(cycles);
}

void
System::runLoop(Cycle cycles)
{
    const Cycle end = now_ + cycles;
    if (!cfg_.fastForward) {
        // Per-cycle reference oracle: every component ticks every
        // cycle in topology order.
        if (prof_)
            syncProfiler();
        const std::size_t n = graph_.order().size();
        while (now_ < end) {
            ++now_;
            for (std::size_t i = 0; i < n; ++i)
                tickComponent(i, now_);
            // The graph's bound fold is the expensive part of a poll,
            // so it runs only when one is due.
            if (watchdog_ && watchdog_->due(now_))
                pollWatchdog(graph_.nextEventCycle(now_ + 1));
        }
        return;
    }
    // Event-driven kernel: pop due cycles off the calendar queue and
    // jump the clock between them. No per-cycle polling, no probe
    // backoff — components self-schedule and every wake source is a
    // sound lower bound, so spurious wakes cost host time only while
    // missed wakes cannot happen.
    rebuildWakes();
    struct KernelGuard
    {
        System *s;
        ~KernelGuard()
        {
            s->kernelActive_ = false;
            s->inCycle_ = false;
        }
    } guard{this};
    while (now_ < end) {
        const Cycle next = sched_.nextDueCycle();
        if (next == kNoCycle) {
            // No component reports any future event. With pending work
            // this is a hard deadlock the clock jump would otherwise
            // silently skip to end-of-run — let the watchdog decide.
            if (watchdog_)
                pollWatchdog(kNoCycle);
            break;
        }
        if (next > end)
            break;
        processCycle(next);
        if (watchdog_ && watchdog_->due(now_))
            pollWatchdog(sched_.nextDueCycle());
    }
    // Settle every component's idle accounting at end-of-run so stats
    // match the per-cycle reference loop bit for bit.
    syncAllThrough(end, graph_.order().size());
    now_ = end;
}

void
System::wakeAt(std::uint32_t id, Cycle at)
{
    if (!kernelActive_ || at == kNoCycle)
        return;
    if (inCycle_ && at <= procCycle_) {
        // Visibility rule reproducing topology-order semantics of the
        // per-cycle loop: later components in the graph still tick
        // this cycle; earlier ones already ticked, so the state they
        // would have seen materialises next cycle; the in-flight
        // component re-queries its own bound right after its tick.
        if (id > procIdx_) {
            dueBits_[id >> 6] |= 1ULL << (id & 63);
            return;
        }
        if (id == procIdx_)
            return;
        sched_.scheduleAt(id, procCycle_ + 1);
        return;
    }
    const Cycle floor = inCycle_ ? procCycle_ + 1 : now_ + 1;
    sched_.scheduleAt(id, std::max(at, floor));
}

void
System::catchUp(std::size_t i, Cycle through)
{
    if (!kernelActive_)
        return;
    const Cycle synced = lastSync_[i];
    if (synced >= through)
        return;
    Component *c = graph_.order()[i];
    lastSync_[i] = through;
    if (!prof_) {
        c->skipIdleCycles(through - synced);
        return;
    }
    obs::Profiler::Timer t;
    c->skipIdleCycles(through - synced);
    const std::uint64_t ns = t.elapsedNs();
    prof_->add(profSkipNode_, ns);
    prof_->add(profSkipIds_[i], ns);
}

void
System::syncAllThrough(Cycle through, std::size_t limit)
{
    for (std::size_t i = 0; i < limit; ++i)
        catchUp(i, through);
}

void
System::syncForDiagnostic()
{
    // Bring every component to the state the per-cycle loop would
    // show at this point of cycle procCycle_: components at or before
    // procIdx_ have ticked it, later ones have only finished the
    // previous cycle.
    if (!kernelActive_)
        return;
    const std::size_t n = graph_.order().size();
    for (std::size_t i = 0; i < n && i < lastSync_.size(); ++i) {
        const Cycle through =
            inCycle_ ? (i <= procIdx_ ? procCycle_ : procCycle_ - 1)
                     : now_;
        catchUp(i, through);
    }
}

void
System::wakeFaultTargets(Cycle at)
{
    for (const auto &pc : cores_) {
        wakeAt(static_cast<std::uint32_t>(pc->corePipeIdx), at);
        wakeAt(static_cast<std::uint32_t>(pc->respPipeIdx), at);
    }
}

void
System::rebuildWakes()
{
    const auto &order = graph_.order();
    const std::size_t n = order.size();
    lastSync_.assign(n, now_);
    dueBits_.assign((n + 63) / 64, 0);
    sched_.reset(n);
    kernelActive_ = true;
    inCycle_ = false;
    for (std::size_t i = 0; i < n; ++i) {
        order[i]->attachWakeSink(this, static_cast<std::uint32_t>(i));
        const Cycle b = order[i]->nextEventCycle(now_ + 1);
        if (b != kNoCycle)
            sched_.scheduleAt(static_cast<std::uint32_t>(i),
                              std::max(b, now_ + 1));
    }
    if (prof_)
        syncProfiler();
}

void
System::tickComponent(std::size_t i, Cycle cycle)
{
    Component *c = graph_.order()[i];
    if (!prof_) {
        c->tick(cycle);
        return;
    }
    obs::Profiler::Timer t;
    c->tick(cycle);
    const std::uint64_t ns = t.elapsedNs();
    prof_->add(profTickNode_, ns);
    prof_->add(profTickIds_[i], ns);
}

void
System::processCycle(Cycle cycle)
{
    now_ = cycle;
    procCycle_ = cycle;
    inCycle_ = true;
    sched_.popDue(cycle, dueScratch_);
    for (const std::uint32_t id : dueScratch_)
        dueBits_[id >> 6] |= 1ULL << (id & 63);
    const auto &order = graph_.order();
    // Scan the due bitmask in index order = topology order; same-cycle
    // wakes of later components land in the mask and still run this
    // cycle, exactly as the per-cycle loop would tick them.
    for (std::size_t w = 0; w < dueBits_.size(); ++w) {
        while (dueBits_[w] != 0) {
            const unsigned b =
                static_cast<unsigned>(std::countr_zero(dueBits_[w]));
            dueBits_[w] &= dueBits_[w] - 1;
            const std::size_t i = (w << 6) | b;
            procIdx_ = i;
            catchUp(i, cycle - 1);
            tickComponent(i, cycle);
            lastSync_[i] = cycle;
            // Re-arm with a min-merge: a future self-wake issued
            // during the tick must survive. The clamp to cycle+1
            // guards bound arithmetic on the current cycle.
            const Cycle nb = order[i]->nextEventCycle(cycle + 1);
            if (nb != kNoCycle)
                sched_.scheduleAt(static_cast<std::uint32_t>(i),
                                  std::max(nb, cycle + 1));
        }
    }
    inCycle_ = false;
}

} // namespace camo::sim
