#include "src/mem/controller.h"

#include <algorithm>

#include "src/common/logging.h"
#include "src/obs/registry.h"

namespace camo::mem {

const char *
schedulerKindName(SchedulerKind kind)
{
    switch (kind) {
      case SchedulerKind::FrFcfs: return "FR-FCFS";
      case SchedulerKind::Fcfs: return "FCFS";
      case SchedulerKind::TemporalPartition: return "TP";
      case SchedulerKind::FixedService: return "FS";
    }
    return "?";
}

namespace {

std::unique_ptr<Scheduler>
makeScheduler(const ControllerConfig &cfg)
{
    switch (cfg.scheduler) {
      case SchedulerKind::FrFcfs:
        return std::make_unique<FrFcfsScheduler>();
      case SchedulerKind::Fcfs:
        return std::make_unique<FcfsScheduler>();
      case SchedulerKind::TemporalPartition:
        return std::make_unique<TemporalPartitionScheduler>(cfg.tp);
      case SchedulerKind::FixedService:
        return std::make_unique<FixedServiceScheduler>(cfg.fs);
    }
    camo_panic("unknown scheduler kind");
}

} // namespace

MemoryController::MemoryController(const ControllerConfig &cfg,
                                   std::string name)
    : name_(std::move(name)),
      cfg_(cfg),
      mapper_(cfg.org, cfg.mapping),
      device_(cfg.org, cfg.timing),
      divider_(cfg.cpuPerDramNum, cfg.cpuPerDramDen),
      sched_(makeScheduler(cfg))
{
    if (cfg_.rowhammer.enabled) {
        rowhammer_ = std::make_unique<dram::RowHammerDefense>(
            cfg_.rowhammer, cfg_.org);
    }
    camo_assert(cfg_.writeDrainLow < cfg_.writeDrainHigh &&
                    cfg_.writeDrainHigh <= cfg_.writeQueueDepth,
                "bad write drain watermarks");
    writePool_.view.isWritePool = true;
}

MemoryController::~MemoryController() = default;

void
MemoryController::registerStats(obs::StatRegistry &reg) const
{
    reg.add(name_, &stats_);
    reg.add(name_ + ".dram", &device_.stats());
    if (rowhammer_)
        reg.add(name_ + ".rowhammer", &rowhammer_->stats());
}

void
MemoryController::setTracer(obs::Tracer *tracer)
{
    tracer_ = tracer;
    device_.setTracer(tracer);
}

dram::DramAddress
MemoryController::decode(Addr addr, CoreId core) const
{
    dram::DramAddress da = mapper_.decode(addr);
    if (cfg_.rankPartitioning && core != kNoCore &&
        cfg_.org.ranksPerChannel > 1) {
        da.rank = core % cfg_.org.ranksPerChannel;
    }
    if (cfg_.bankPartitioning && core != kNoCore) {
        // Core c owns banks [c*K, (c+1)*K) where K = banks / cores.
        const std::uint32_t banks = cfg_.org.banksPerRank;
        const std::uint32_t cores = std::max(1u, cfg_.numCores);
        const std::uint32_t per_core = std::max(1u, banks / cores);
        da.bank = (core % cores) * per_core + (da.bank % per_core);
        da.bank %= banks;
    }
    return da;
}

bool
MemoryController::canAccept(bool is_write) const
{
    return is_write ? writeQ_.size() < cfg_.writeQueueDepth
                    : readQ_.size() < cfg_.readQueueDepth;
}

void
MemoryController::enqueue(MemRequest req, Cycle now, Addr decode_addr)
{
    camo_assert(canAccept(req.isWrite), "enqueue into a full queue");
    // Optional (insecure) extension: drop fake traffic under queue
    // pressure instead of letting it crowd out real requests.
    if (cfg_.demoteFakeTraffic && req.isFake) {
        const std::size_t depth =
            req.isWrite ? writeQ_.size() : readQ_.size();
        const std::size_t cap = req.isWrite ? cfg_.writeQueueDepth
                                            : cfg_.readQueueDepth;
        if (depth >= cap / 2) {
            stats_.inc("fake.dropped");
            CAMO_TRACE_EVENT(tracer_, .at = now,
                             .type = obs::EventType::McFakeDropped,
                             .core = req.core, .id = req.id,
                             .addr = req.addr, .arg = depth);
            return;
        }
    }
    req.mcArrive = now;
    Transaction txn;
    txn.da = decode(decode_addr == kNoAddr ? req.addr : decode_addr,
                    req.core);
    txn.req = req;
    txn.enqueuedDram = divider_.derivedTicks();
    stats_.inc(req.isWrite ? StatName("writes.enqueued")
                           : StatName("reads.enqueued"));
    if (req.isFake)
        stats_.inc("fake.enqueued");
    TxnQueue &q = req.isWrite ? writeQ_ : readQ_;
    CAMO_TRACE_EVENT(tracer_, .at = now,
                     .type = obs::EventType::McEnqueue,
                     .core = req.core, .id = req.id, .addr = req.addr,
                     .arg = q.size());
    q.push_back(std::move(txn));
    poolOf(q).stale = true;
}

void
MemoryController::tick(Cycle now)
{
    if (divider_.tick())
        dramTick(now);
}

Cycle
MemoryController::dramDelayToCpu(std::uint64_t dram_cycles) const
{
    // ceil(dram_cycles * num / den)
    return (dram_cycles * cfg_.cpuPerDramNum + cfg_.cpuPerDramDen - 1) /
           cfg_.cpuPerDramDen;
}

bool
MemoryController::manageRefresh(std::uint64_t dram_now)
{
    // Refresh management preempts normal scheduling once a refresh is
    // owed: precharge any open bank, then issue REF.
    for (std::uint32_t rank = 0; rank < cfg_.org.ranksPerChannel; ++rank) {
        if (!device_.refreshDue(rank, dram_now))
            continue;
        if (device_.canIssue(dram::Cmd::REF, {0, rank, 0, 0, 0},
                             dram_now)) {
            device_.issue(dram::Cmd::REF, {0, rank, 0, 0, 0}, dram_now);
            stats_.inc("refresh.issued");
            if (rowhammer_)
                rowhammer_->onRefresh(rank);
            return true;
        }
        for (std::uint32_t b = 0; b < cfg_.org.banksPerRank; ++b) {
            dram::DramAddress da{0, rank, b, 0, 0};
            if (device_.isRowOpen(da) &&
                device_.canIssue(dram::Cmd::PRE, da, dram_now)) {
                device_.issue(dram::Cmd::PRE, da, dram_now);
                stats_.inc("refresh.precharges");
                return true;
            }
        }
        // Banks are draining their tRAS/tWR; hold the command bus.
        return true;
    }
    return false;
}

MemoryController::QueuePool &
MemoryController::poolOf(const TxnQueue &queue) const
{
    return &queue == &writeQ_ ? writePool_ : readPool_;
}

void
MemoryController::invalidatePools()
{
    readPool_.stale = true;
    writePool_.stale = true;
}

const SchedView &
MemoryController::poolFor(const TxnQueue &queue,
                          std::uint64_t dram_now) const
{
    QueuePool &p = poolOf(queue);
    p.view.now = dram_now;
    p.view.device = &device_;
    if (!p.stale)
        return p.view;
    p.stale = false;
    // Order: highest-priority-mode core first, then token-boosted
    // cores, then normal traffic, then Camouflage fakes (strictly
    // lowest priority); stable (age order) within each class. One pass
    // in age order inserts each index at the end of its class's
    // segment: [0, boosted) boosted, [boosted, reals) normal, then
    // fakes.
    const bool any_tokens = !priorityTokens_.empty();
    p.index.clear();
    std::size_t boosted = 0;
    std::size_t reals = 0;
    for (std::size_t i = 0; i < queue.size(); ++i) {
        const MemRequest &req = queue[i].req;
        std::size_t at = p.index.size();
        if (!(cfg_.demoteFakeTraffic && req.isFake)) {
            const bool hpm =
                highestPriorityCore_ && req.core == *highestPriorityCore_;
            const bool tokens = any_tokens && priorityTokens(req.core) > 0;
            if (hpm || tokens) {
                at = boosted++;
                ++reals;
            } else {
                at = reals++;
            }
        }
        p.index.insert(p.index.begin() + static_cast<std::ptrdiff_t>(at), i);
    }
    p.view.boostedCount = boosted;
    p.view.fakeStart = reals;
    p.view.pool.clear();
    for (const std::size_t i : p.index)
        p.view.pool.push_back(&queue[i]);
    return p.view;
}

void
MemoryController::execute(const Decision &d, TxnQueue &queue,
                          const std::vector<std::size_t> &index_map,
                          Cycle cpu_now, std::uint64_t dram_now)
{
    const std::size_t qi = index_map.at(d.txnIndex);
    Transaction &txn = queue.at(qi);

    switch (d.kind) {
      case Decision::Kind::Act:
        device_.issue(dram::Cmd::ACT, txn.da, dram_now);
        if (rowhammer_)
            rowhammer_->onActivate(txn.da, dram_now);
        return;
      case Decision::Kind::Pre:
        device_.issue(dram::Cmd::PRE, txn.da, dram_now);
        return;
      case Decision::Kind::Cas:
        break;
    }

    const auto cmd = txn.req.isWrite ? dram::Cmd::WR : dram::Cmd::RD;
    const auto result = device_.issue(cmd, txn.da, dram_now);
    sched_->onCasIssued(txn.req.core, dram_now);

    // Consume one priority token per served CAS (proportional boost).
    // The last one drops the core out of both pools' boosted segment.
    auto it = priorityTokens_.find(txn.req.core);
    if (it != priorityTokens_.end() && it->second > 0 &&
        --it->second == 0) {
        invalidatePools();
    }

    stats_.inc(txn.req.isWrite ? StatName("writes.served")
                               : StatName("reads.served"));
    stats_.sample("queue.latency.dram",
                  static_cast<double>(dram_now - txn.enqueuedDram));
    CAMO_TRACE_EVENT(tracer_, .at = cpu_now,
                     .type = obs::EventType::McServe,
                     .core = txn.req.core, .id = txn.req.id,
                     .addr = txn.req.addr,
                     .arg = dram_now - txn.enqueuedDram);

    if (!txn.req.isWrite) {
        PendingResponse resp;
        resp.req = txn.req;
        const std::uint64_t delay = result.dataDoneCycle - dram_now;
        resp.readyCpu = cpu_now + dramDelayToCpu(delay);
        resp.req.mcDone = resp.readyCpu;
        if (respConsumer_ != nullptr)
            respConsumer_->scheduleAt(resp.readyCpu);
        responses_.push_back(std::move(resp));
    }
    const bool was_full = !canAccept(txn.req.isWrite);
    queue.erase(queue.begin() + static_cast<std::ptrdiff_t>(qi));
    poolOf(queue).stale = true;
    if (was_full && spaceConsumer_ != nullptr)
        spaceConsumer_->scheduleAt(cpu_now);
}

void
MemoryController::dramTick(Cycle cpu_now)
{
    const std::uint64_t dram_now = divider_.derivedTicks();
    device_.setCpuTime(cpu_now);

    if (manageRefresh(dram_now))
        return;

    // An in-flight RowHammer refresh-management operation blocks the
    // channel: no scheduling, no hysteresis flip, no closed-page
    // precharges until it completes. The early return mutates
    // nothing, so stalled ticks behave identically in the per-cycle
    // loop and under event execution (whose scheduling bound is
    // clamped to busyUntil() in nextEventCycle).
    if (rowhammer_ && rowhammer_->busy(dram_now))
        return;

    // Write-drain hysteresis: serve reads normally; switch to writes
    // when the write queue passes the high watermark (or reads are
    // absent), back to reads at the low watermark.
    if (drainingWrites_) {
        if (writeQ_.size() <= cfg_.writeDrainLow)
            drainingWrites_ = false;
    } else {
        if (writeQ_.size() >= cfg_.writeDrainHigh ||
            (readQ_.empty() && !writeQ_.empty())) {
            drainingWrites_ = true;
        }
    }

    auto try_schedule = [&](TxnQueue &queue) -> bool {
        if (queue.empty())
            return false;
        Decision d;
        if (!sched_->pick(poolFor(queue, dram_now), d))
            return false;
        execute(d, queue, poolOf(queue).index, cpu_now, dram_now);
        return true;
    };

    bool issued;
    if (drainingWrites_)
        issued = try_schedule(writeQ_) || try_schedule(readQ_);
    else
        issued = try_schedule(readQ_) || try_schedule(writeQ_);

    // Closed-page policy: spend otherwise-idle command cycles
    // precharging rows no pending transaction wants.
    if (!issued && cfg_.pagePolicy == PagePolicy::Closed)
        closeIdleRows(dram_now);
}

bool
MemoryController::closeIdleRows(std::uint64_t dram_now)
{
    for (std::uint32_t rank = 0; rank < cfg_.org.ranksPerChannel;
         ++rank) {
        for (std::uint32_t b = 0; b < cfg_.org.banksPerRank; ++b) {
            const dram::DramAddress da{0, rank, b, 0, 0};
            if (!device_.isRowOpen(da))
                continue;
            const std::uint32_t open_row = device_.bank(rank, b).openRow;
            auto wants_row = [&](const TxnQueue &q) {
                for (const Transaction &txn : q) {
                    if (txn.da.rank == rank && txn.da.bank == b &&
                        txn.da.row == open_row) {
                        return true;
                    }
                }
                return false;
            };
            if (wants_row(readQ_) || wants_row(writeQ_))
                continue;
            dram::DramAddress pre = da;
            pre.row = open_row;
            if (device_.canIssue(dram::Cmd::PRE, pre, dram_now)) {
                device_.issue(dram::Cmd::PRE, pre, dram_now);
                stats_.inc("pagepolicy.closes");
                return true;
            }
        }
    }
    return false;
}

void
MemoryController::drainResponses(Cycle now, std::vector<MemRequest> &out)
{
    const std::size_t start = out.size();
    auto it = responses_.begin();
    while (it != responses_.end()) {
        if (it->readyCpu <= now) {
            out.push_back(std::move(it->req));
            it = responses_.erase(it);
        } else {
            ++it;
        }
    }
    // Deterministic delivery order: by readiness then id.
    std::sort(out.begin() + static_cast<std::ptrdiff_t>(start), out.end(),
              [](const MemRequest &a, const MemRequest &b) {
                  return a.mcDone != b.mcDone ? a.mcDone < b.mcDone
                                              : a.id < b.id;
              });
}

std::uint64_t
MemoryController::earliestQueueAction(const TxnQueue &queue,
                                      std::uint64_t dram_now) const
{
    return sched_->earliestPick(poolFor(queue, dram_now));
}

Cycle
MemoryController::nextEventCycle(Cycle from) const
{
    const Cycle now = from - 1;
    Cycle ev = kNoCycle;
    const std::uint64_t dram_now = divider_.derivedTicks();

    // Earliest future DRAM cycle with controller work. DRAM ticks the
    // kernel skips under this bound are provably no-ops: no command
    // can issue (Scheduler::earliestPick lower-bounds every queue, the
    // loop below lower-bounds closed-page precharges, and the refresh
    // term at the bottom keeps ticks dense whenever a refresh is owed
    // and preempting), so skipping them degenerates to the divider
    // advance skipIdleCycles performs.
    std::uint64_t act = dram::DramDevice::kNever;
    if (!readQ_.empty())
        act = std::min(act, earliestQueueAction(readQ_, dram_now));
    if (!writeQ_.empty() && act > dram_now + 1)
        act = std::min(act, earliestQueueAction(writeQ_, dram_now));
    // Write-drain hysteresis: the per-cycle loop evaluates the flip
    // predicate at every DRAM tick, so when it currently holds, the
    // flag flips on the very next tick -- that tick must stay dense
    // or an enqueue landing inside the skipped span can move the
    // flip (the flag has memory; it is not a pure function of the
    // queue sizes at the next processed tick). When the predicate
    // does not hold, it can only become true at a state change
    // (enqueue or a processed tick), both of which re-evaluate this
    // bound, so no extra ticks are needed then.
    const bool drain_would_flip =
        drainingWrites_
            ? writeQ_.size() <= cfg_.writeDrainLow
            : (writeQ_.size() >= cfg_.writeDrainHigh ||
               (readQ_.empty() && !writeQ_.empty()));
    if (drain_would_flip)
        act = std::min<std::uint64_t>(act, dram_now + 1);
    // Closed-page management spends idle command cycles precharging
    // open rows no queued transaction wants. (Skipped once the bound
    // already hits the next DRAM tick -- nothing can be earlier.)
    if (cfg_.pagePolicy == PagePolicy::Closed && act > dram_now + 1) {
        for (std::uint32_t rank = 0; rank < cfg_.org.ranksPerChannel;
             ++rank) {
            for (std::uint32_t b = 0; b < cfg_.org.banksPerRank; ++b) {
                dram::DramAddress da{0, rank, b, 0, 0};
                if (!device_.isRowOpen(da))
                    continue;
                const std::uint32_t open_row =
                    device_.bank(rank, b).openRow;
                auto wants_row =
                    [&](const TxnQueue &q) {
                        for (const Transaction &txn : q) {
                            if (txn.da.rank == rank &&
                                txn.da.bank == b &&
                                txn.da.row == open_row) {
                                return true;
                            }
                        }
                        return false;
                    };
                if (wants_row(readQ_) || wants_row(writeQ_))
                    continue;
                da.row = open_row;
                act = std::min(act,
                               device_.earliestIssue(dram::Cmd::PRE, da));
            }
        }
    }
    // A RowHammer RFM stall defers every scheduling action above
    // (dramTick returns before the hysteresis flip, try_schedule and
    // closed-page management while busy), so the first cycle any of
    // them can execute is the stall's end. Raising the bound there is
    // exact: the per-cycle loop's stalled ticks are no-ops too, and
    // refresh/response terms below stay unclamped (they still fire
    // mid-stall).
    if (rowhammer_ && act != dram::DramDevice::kNever)
        act = std::max(act, rowhammer_->busyUntil());
    if (act != dram::DramDevice::kNever) {
        const std::uint64_t k = act > dram_now ? act - dram_now : 1;
        ev = std::min(ev, now + divider_.ticksUntilFire(k));
    }

    for (const PendingResponse &r : responses_)
        ev = std::min(ev, std::max(from, r.readyCpu));

    // Refresh: the DRAM tick at which the next refresh falls due.
    // (Already-owed refreshes give k = 1, keeping ticks dense through
    // the whole refresh-preemption window.) Dominated by the busy
    // term whenever that already lands on the next DRAM tick.
    if (act == dram::DramDevice::kNever || act > dram_now + 1) {
        for (std::uint32_t rank = 0; rank < cfg_.org.ranksPerChannel;
             ++rank) {
            const std::uint64_t due = device_.nextRefreshDue(rank);
            const std::uint64_t k = due > dram_now ? due - dram_now : 1;
            ev = std::min(ev, now + divider_.ticksUntilFire(k));
        }
    }
    return ev;
}

Cycle
MemoryController::nextResponseReady() const
{
    Cycle ev = kNoCycle;
    for (const PendingResponse &r : responses_)
        ev = std::min(ev, r.readyCpu);
    return ev;
}

void
MemoryController::boostPriority(CoreId core, std::uint32_t tokens)
{
    if (tokens == 0)
        return;
    std::uint32_t &held = priorityTokens_[core];
    if (held == 0)
        invalidatePools(); // the core joins the boosted segment
    held += tokens;
    stats_.inc("priority.boosts");
    stats_.inc("priority.tokens.granted", tokens);
}

void
MemoryController::setHighestPriorityCore(std::optional<CoreId> core)
{
    if (core == highestPriorityCore_)
        return;
    highestPriorityCore_ = core;
    invalidatePools();
}

std::uint32_t
MemoryController::priorityTokens(CoreId core) const
{
    auto it = priorityTokens_.find(core);
    return it == priorityTokens_.end() ? 0 : it->second;
}

} // namespace camo::mem
