#include "src/sim/system.h"

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <fstream>
#include <system_error>
#include <iostream>
#include <sstream>

#include <unistd.h>

#include "src/common/logging.h"
#include "src/hard/error.h"
#include "src/sim/plan.h"
#include "src/sim/stations.h"

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
    if (cfg.numCores > kMaxCores) {
        throw hard::ConfigError(detail::fmt("numCores must be <= ",
                                            kMaxCores, ", got ",
                                            cfg.numCores));
    }
    if (cfg.mc.org.channels < 1)
        throw hard::ConfigError("channels must be >= 1, got 0");
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
    mem_ = std::make_unique<mem::MemorySystem>(cfg_.mc);
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
        const bool shaped = cfg_.shapeCore.empty() || cfg_.shapeCore[i];
        auto pc = std::make_unique<PerCore>(cfg_.reqBins.edges);
        // Disjoint 1 TiB address windows keep workloads from aliasing.
        const Addr base = static_cast<Addr>(i) << 40;
        pc->trace =
            plan.compiled(i).instantiate(cfg_.seed * 7919 + i, base);
        pc->cache =
            std::make_unique<cache::CacheHierarchy>(i, cfg_.cache);
        pc->core = std::make_unique<core::Core>(i, cfg_.core, *pc->trace,
                                                *pc->cache);

        if (wants_req && shaped) {
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
                i, rc, cfg_.seed * 104729 + i);
        }
        if (wants_resp && shaped) {
            shaper::ResponseShaperConfig rc;
            rc.bins = cfg_.respBinsPerCore.empty()
                          ? cfg_.respBins
                          : cfg_.respBinsPerCore[i];
            rc.generateFakes = cfg_.fakeTraffic;
            resp_shapers[i] =
                std::make_unique<shaper::ResponseShaper>(i, rc);
        }
        if (cfg_.recordTraffic) {
            pc->intrinsicMon.setLogging(true);
            pc->busMon.setLogging(true);
            pc->respMon.setLogging(true);
            if (req_shapers[i]) {
                req_shapers[i]->preMonitor().setLogging(true);
                req_shapers[i]->postMonitor().setLogging(true);
            }
            if (resp_shapers[i]) {
                resp_shapers[i]->preMonitor().setLogging(true);
                resp_shapers[i]->postMonitor().setLogging(true);
            }
        }
        cores_.push_back(std::move(pc));
    }

    pipe_.reset(new Pipeline{
        cores_, *reqChannel_, *respChannel_, *mem_, stats_, *tracer_,
        cfg_.recordLatencies,
        [this](std::uint32_t core, const std::string &msg) {
            onShaperViolation(core, msg);
        }});

    // Lay the components into the graph in Figure-5 tick order. The
    // subsystems are borrowed (the PerCore / System unique_ptrs above
    // own them); the stations are graph-owned. The subscriptions made
    // here are the event kernel's only hand-off wiring: each producer
    // wakes its consuming station at the cycle the data lands.
    graph_.emplace<FaultApplyStation>(*pipe_);
    for (std::uint32_t i = 0; i < cfg_.numCores; ++i) {
        PerCore &pc = *cores_[i];
        graph_.add(pc.core.get());
        pc.reqPipe = graph_.emplace<CorePipeStation>(
            *pipe_, pc, i, std::move(req_shapers[i]));
        pc.cache->subscribe(pc.reqPipe);
        pc.missBuffer.subscribe(pc.reqPipe);
    }
    graph_.add(reqChannel_.get());
    auto *rl = graph_.emplace<ReqLinkStation>(*reqChannel_, *mem_);
    reqChannel_->subscribeEgress(rl);
    mem_->subscribeQueueSpace(rl);
    graph_.add(mem_.get());
    pipe_->memRoute = graph_.emplace<MemRouteStation>(*pipe_);
    mem_->subscribeResponses(pipe_->memRoute);
    for (std::uint32_t i = 0; i < cfg_.numCores; ++i) {
        PerCore &pc = *cores_[i];
        pc.respPipe = graph_.emplace<RespPipeStation>(
            *pipe_, pc, i, std::move(resp_shapers[i]));
        pc.respBuffer.subscribe(pc.respPipe);
    }
    graph_.add(respChannel_.get());
    respChannel_->subscribeEgress(graph_.emplace<RespLinkStation>(*pipe_));
    pipe_->creditCheck = graph_.emplace<CreditCheckStation>(*pipe_);
    pipe_->interval = graph_.emplace<IntervalStation>(cores_, *mem_);

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
    return cores_[i]->reqPipe->shaper();
}

shaper::ResponseShaper *
System::responseShaper(std::uint32_t i)
{
    camo_assert(i < cores_.size(), "core index out of range");
    return cores_[i]->respPipe->shaper();
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
    graph_.reset(); // the cores' own epoch counters
    for (auto &pc : cores_) {
        pc->servedReads = 0;
        pc->latencySum = 0;
    }
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
    if (shaper::RequestShaper *s = requestShaper(core))
        s->reconfigure(req_bins);
    if (shaper::ResponseShaper *s = responseShaper(core))
        s->reconfigure(resp_bins);
}

void
System::setFakeTraffic(bool on)
{
    for (std::uint32_t i = 0; i < cores_.size(); ++i) {
        if (shaper::RequestShaper *s = requestShaper(i))
            s->setGenerateFakes(on);
        if (shaper::ResponseShaper *s = responseShaper(i))
            s->setGenerateFakes(on);
    }
}

void
System::registerStats(obs::StatRegistry &reg) const
{
    reg.add("system", &stats_);
    // Every component registers its own groups; the registry's JSON
    // view is key-sorted, so the fan-out order is immaterial.
    graph_.registerStats(reg);
}

void
System::enableIntervalStats(Cycle period)
{
    pipe_->interval->enable(period, leakmon_.get());
}

const obs::IntervalCollector *
System::intervalStats() const
{
    return pipe_->interval->collector_.get();
}

void
System::setContracts(std::uint32_t i)
{
    // A new contract needs a fresh credit audit.
    auto set = [i](shaper::BinShaper &bins,
                   hard::ShaperConservationChecker &cons) {
        const shaper::BinConfig &c = bins.config();
        cons.setContract(i, {c.edges, c.credits, c.replenishPeriod});
        bins.setAuditPending(true);
    };
    if (shaper::RequestShaper *s = requestShaper(i))
        set(s->binsMut(), checkers_->reqConservation());
    if (shaper::ResponseShaper *s = responseShaper(i))
        set(s->binsMut(), checkers_->respConservation());
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
        for (std::uint32_t i = 0; i < cores_.size(); ++i)
            setContracts(i);
    }
    pipe_->checkers = checkers_.get();
}

void
System::setFaultInjector(hard::FaultInjector *injector)
{
    const std::vector<hard::FaultSpec> none;
    for (const hard::FaultSpec &fs :
         injector ? injector->plan().faults : none) {
        if (fs.core != kNoCore && fs.core >= cfg_.numCores) {
            throw hard::ConfigError(detail::fmt(
                "fault ", hard::faultKindName(fs.kind), " targets core ",
                fs.core, " but the machine has ", cfg_.numCores,
                " cores"));
        }
    }
    pipe_->injector = injector;
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
        const shaper::RequestShaper *rs = pc.reqPipe->shaper();
        const shaper::ResponseShaper *ps = pc.respPipe->shaper();
        auto q = obs::json::Value::makeObject();
        q["miss_buffer"] = static_cast<std::uint64_t>(
            pc.missBuffer.size());
        q["resp_buffer"] = static_cast<std::uint64_t>(
            pc.respBuffer.size());
        q["req_shaper_queue"] =
            static_cast<std::uint64_t>(rs ? rs->queueDepth() : 0);
        q["resp_shaper_queue"] =
            static_cast<std::uint64_t>(ps ? ps->queueDepth() : 0);
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
        static_cast<std::uint64_t>(pipe_->memRoute->delayed_.size());
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
    if (shaper::RequestShaper *s = pc.reqPipe->shaper())
        s->reconfigure(shaper::BinConfig::failSecure(s->bins().config()));
    if (shaper::ResponseShaper *s = pc.respPipe->shaper())
        s->reconfigure(shaper::BinConfig::failSecure(s->bins().config()));
    if (checkers_ && checkers_->config().conservation)
        setContracts(i);
    // A mid-run degradation swaps the shapers' schedules out from
    // under the driving stations: force both to requery their bounds,
    // and audit the reprogrammed credits at the end of this cycle.
    pc.reqPipe->scheduleAt(now_ + 1);
    pc.respPipe->scheduleAt(now_ + 1);
    pipe_->creditCheck->scheduleAt(now_);
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
System::pollWatchdog()
{
    obs::Profiler::Scope scope(prof_, prof_ ? profWatchdogNode_ : 0);
    std::vector<hard::CoreProgress> progress;
    progress.reserve(cores_.size());
    for (const auto &pc : cores_) {
        const shaper::RequestShaper *rs = pc->reqPipe->shaper();
        const shaper::ResponseShaper *ps = pc->respPipe->shaper();
        hard::CoreProgress cp;
        cp.progress = pc->core->retired() + pc->servedReads;
        cp.pending = pc->inflightReads > 0 || !pc->missBuffer.empty() ||
                     !pc->respBuffer.empty() || (rs && rs->queueDepth()) ||
                     (ps && ps->queueDepth());
        progress.push_back(cp);
    }
    // The graph's bound fold, not the wake table's minimum: the table
    // may hold spurious wakes that would hide a deadlock. The fold is
    // the expensive part of a poll, so callers poll only when due.
    if (const auto reason = watchdog_->poll(
            now_, progress, graph_.nextEventCycle(now_ + 1))) {
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
    graph_.emplace<LeakMonStation>(
        *leakmon_, [this](const std::string &msg) { onLeakageAlert(msg); });
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
                tickComponent(i, now_, false);
            if (watchdog_ && watchdog_->due(now_))
                pollWatchdog();
        }
        return;
    }
    // Event-driven kernel: jump the clock to the wake table's minimum
    // and tick the components due there. No per-cycle polling —
    // components self-schedule and every wake source is a sound lower
    // bound, so spurious wakes cost host time only while missed wakes
    // cannot happen.
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
        // The watchdog's next poll is an event too, so it samples
        // progress at the cycles the oracle polls at. With no
        // watchdog and every component asleep the run ends here; with
        // pending work that is a hard deadlock, which an armed
        // watchdog reports at its next poll.
        const Cycle due = *std::min_element(wake_.begin(), wake_.end());
        const Cycle poll = watchdog_
                               ? std::max(watchdog_->nextPoll(), now_ + 1)
                               : kNoCycle;
        if (std::min(due, poll) > end)
            break;
        if (due <= poll)
            processCycle(due);
        else
            now_ = poll;
        if (watchdog_ && watchdog_->due(now_))
            pollWatchdog();
    }
    // Settle every component's idle accounting at end-of-run so stats
    // match the per-cycle reference loop bit for bit.
    catchUpAhead(static_cast<std::uint32_t>(graph_.order().size()), end);
    now_ = end;
}

void
System::wakeAt(std::uint32_t id, Cycle at)
{
    if (!kernelActive_ || at == kNoCycle)
        return;
    if (inCycle_ && at <= now_) {
        // Visibility rule reproducing topology-order semantics of the
        // per-cycle loop: later components in the graph still tick
        // this cycle; earlier ones already ticked, so the state they
        // would have seen materialises next cycle; the in-flight
        // component re-queries its own bound right after its tick.
        if (id != procIdx_)
            arm(id, id > procIdx_ ? now_ : now_ + 1);
        return;
    }
    arm(id, std::max(at, now_ + 1));
}

void
System::catchUp(std::uint32_t i, Cycle through)
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
    profSkipNs_ += ns;
}

void
System::catchUpAhead(std::uint32_t id, Cycle through)
{
    for (std::uint32_t i = 0; i < id; ++i)
        catchUp(i, through);
}

void
System::syncForDiagnostic()
{
    // Bring every component to the state the per-cycle loop would
    // show at this point of cycle now_: components at or before
    // procIdx_ have ticked it, later ones have only finished the
    // previous cycle.
    if (!kernelActive_)
        return;
    const auto n = static_cast<std::uint32_t>(lastSync_.size());
    if (inCycle_)
        catchUpAhead(static_cast<std::uint32_t>(procIdx_) + 1, now_);
    catchUpAhead(n, inCycle_ ? now_ - 1 : now_);
}

void
System::rebuildWakes()
{
    const auto &order = graph_.order();
    const std::size_t n = order.size();
    lastSync_.assign(n, now_);
    wake_.assign(n, kNoCycle);
    kernelActive_ = true;
    inCycle_ = false;
    for (std::size_t i = 0; i < n; ++i) {
        order[i]->attachWakeSink(this, static_cast<std::uint32_t>(i));
        arm(i, std::max(order[i]->nextEventCycle(now_ + 1), now_ + 1));
    }
    if (prof_)
        syncProfiler();
}

Cycle
System::tickComponent(std::size_t i, Cycle cycle, bool rearm)
{
    Component *c = graph_.order()[i];
    if (!prof_) {
        c->tick(cycle);
        return rearm ? c->nextEventCycle(cycle + 1) : kNoCycle;
    }
    // Catch-ups the tick makes of other components are already under
    // skip/<name>; take them out of this span so no time counts twice.
    const std::uint64_t skipped_before = profSkipNs_;
    obs::Profiler::Timer t;
    c->tick(cycle);
    const Cycle nb = rearm ? c->nextEventCycle(cycle + 1) : kNoCycle;
    const std::uint64_t span = t.elapsedNs();
    const std::uint64_t nested = profSkipNs_ - skipped_before;
    const std::uint64_t ns = span > nested ? span - nested : 0;
    prof_->add(profTickNode_, ns);
    prof_->add(profTickIds_[i], ns);
    return nb;
}

void
System::processCycle(Cycle cycle)
{
    now_ = cycle;
    inCycle_ = true;
    // Scan in index order = topology order; same-cycle wakes of later
    // components set their entry to this cycle and still run in this
    // scan, exactly as the per-cycle loop would tick them.
    for (std::size_t i = 0; i < wake_.size(); ++i) {
        if (wake_[i] != cycle)
            continue;
        wake_[i] = kNoCycle;
        procIdx_ = i;
        catchUp(static_cast<std::uint32_t>(i), cycle - 1);
        const Cycle nb = tickComponent(i, cycle, true);
        lastSync_[i] = cycle;
        // Re-arm with a min-merge: a future self-wake issued during
        // the tick must survive. The clamp to cycle+1 guards bound
        // arithmetic on the current cycle.
        arm(i, std::max(nb, cycle + 1));
    }
    inCycle_ = false;
}

} // namespace camo::sim
