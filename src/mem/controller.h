/**
 * @file
 * The memory controller: transaction queues, write-drain policy,
 * refresh management, scheduler dispatch, and the CPU/DRAM clock
 * crossing.
 *
 * The controller lives in the CPU clock domain (requests arrive and
 * responses depart in CPU cycles) and drives the DRAM device through a
 * rational clock divider (Table II: 2.4 GHz core, DDR3-1333 => 18/5
 * CPU cycles per DRAM cycle).
 */

#ifndef CAMO_MEM_CONTROLLER_H
#define CAMO_MEM_CONTROLLER_H

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/common/clock.h"
#include "src/common/stats.h"
#include "src/common/types.h"
#include "src/dram/address.h"
#include "src/dram/device.h"
#include "src/dram/rowhammer.h"
#include "src/dram/timing.h"
#include "src/mem/request.h"
#include "src/mem/schedulers.h"
#include "src/obs/tracer.h"
#include "src/sim/component.h"

namespace camo::mem {

/** Which scheduling policy the controller runs. */
enum class SchedulerKind
{
    FrFcfs,            ///< baseline (and Camouflage's substrate)
    Fcfs,              ///< plain in-order reference
    TemporalPartition, ///< TP baseline [Wang et al. HPCA'14]
    FixedService,      ///< FS baseline [Shafiee et al. MICRO'15]
};

/** Row-buffer management policy. */
enum class PagePolicy
{
    /** Leave rows open after a CAS (bets on row-buffer locality). */
    Open,
    /**
     * Close idle rows eagerly: when the command bus is otherwise
     * idle, precharge banks whose open row no pending transaction
     * wants. Trades row hits for lower conflict latency — and
     * removes the row-buffer residency timing channel.
     */
    Closed,
};

const char *schedulerKindName(SchedulerKind kind);

/** Controller configuration (Table II defaults). */
struct ControllerConfig
{
    dram::DramOrganization org;
    dram::DramTiming timing;
    dram::MappingScheme mapping = dram::MappingScheme::RowColRankBank;

    std::uint32_t readQueueDepth = 32;  ///< "32-entry transaction queue"
    std::uint32_t writeQueueDepth = 32;
    std::uint32_t writeDrainHigh = 24;  ///< start draining writes
    std::uint32_t writeDrainLow = 8;    ///< stop draining writes

    /** CPU cycles per DRAM cycle as a ratio (18/5 = 3.6). */
    std::uint64_t cpuPerDramNum = 18;
    std::uint64_t cpuPerDramDen = 5;

    SchedulerKind scheduler = SchedulerKind::FrFcfs;
    PagePolicy pagePolicy = PagePolicy::Open;
    TpConfig tp;
    FsConfig fs;

    /**
     * Bank partitioning (used by the FS baseline): core `c` may only
     * touch banks owned by its partition; the controller remaps the
     * decoded bank into the core's partition.
     */
    bool bankPartitioning = false;
    /**
     * Rank partitioning (the FS variant the paper could not evaluate
     * with one rank, SIV-F): each core's traffic is confined to the
     * rank core % ranksPerChannel.
     */
    bool rankPartitioning = false;
    std::uint32_t numCores = 4;

    /**
     * Performance extension, OFF by default and NOT secure: schedule
     * Camouflage fake traffic at strictly lowest priority and drop it
     * under queue pressure. A real memory controller cannot tell fake
     * from real traffic (there is no such wire on the bus), and the
     * covert-channel bench shows that an MC which does distinguish
     * them re-opens the very side channel fake traffic exists to
     * close: the victim's real traffic competes at full priority
     * while fakes are cheap, so the adversary's latency again tracks
     * the victim's activity. Use only when fakes are trusted inputs.
     */
    bool demoteFakeTraffic = false;

    /**
     * TRR/PRAC-style RowHammer mitigation (src/dram/rowhammer.h),
     * off by default. When enabled, refresh-management stalls defer
     * all command scheduling — the activation-count-dependent timing
     * channel the scenario subsystem measures.
     */
    dram::RowHammerConfig rowhammer;
};

/** One DRAM channel's controller. Not a sim::Component: the
 *  MemorySystem owns and drives it (tick, bound, idle skip, tracer,
 *  stats). */
class MemoryController final
{
  public:
    /** `name` is the stat path ("mc.ch{c}"). */
    explicit MemoryController(const ControllerConfig &cfg,
                              std::string name = "mc");
    ~MemoryController();

    /** Is there queue space for another transaction of this type? */
    bool canAccept(bool is_write) const;

    /**
     * Enqueue a transaction at CPU cycle `now`.
     * @pre canAccept(req.isWrite).
     * Writes are posted (no response); reads produce a response
     * collected by drainResponses().
     * @param decode_addr address to decode DRAM coordinates from
     *        (kNoAddr = use req.addr); MemorySystem passes the
     *        channel-local address here while the request keeps its
     *        original address for the return path.
     */
    void enqueue(MemRequest req, Cycle now, Addr decode_addr = kNoAddr);

    /** Advance one CPU cycle; internally ticks the DRAM domain. */
    void tick(Cycle now);

    /** Append the read responses that completed at or before CPU
     *  cycle `now` to `out`, ordered by completion then id. */
    void drainResponses(Cycle now, std::vector<MemRequest> &out);

    /**
     * Earliest CPU cycle >= `from` at which the controller could do
     * observable work: the DRAM tick at which the scheduler could
     * first issue a command for a queued transaction (a sound lower
     * bound from Scheduler::earliestPick over the device's timing
     * registers -- DRAM ticks before it are provably no-ops), the
     * earliest closed-page precharge opportunity, the earliest pending
     * response completion, and the next refresh falling due. kNoCycle
     * when fully quiescent. `from - 1` is the current CPU cycle: the
     * caller asks for the cycle after the one just run.
     */
    Cycle nextEventCycle(Cycle from) const;

    /** Earliest CPU cycle at which a completed response becomes
     *  visible to drainResponses(), or kNoCycle if no
     *  response is pending. */
    Cycle nextResponseReady() const;

    /** Wake `consumer` at the CPU cycle each read response minted
     *  from now on becomes ready; nullptr unsubscribes. */
    void subscribeResponses(sim::Component *consumer)
    {
        respConsumer_ = consumer;
    }

    /** Wake `consumer` at the CPU cycle a served CAS frees a slot in
     *  a full transaction queue (canAccept() turns true); nullptr
     *  unsubscribes. */
    void subscribeQueueSpace(sim::Component *consumer)
    {
        spaceConsumer_ = consumer;
    }

    /** Account `n` skipped idle CPU cycles: advance the DRAM clock
     *  crossing exactly as `n` tick() calls on an idle controller
     *  would (idle DRAM ticks mutate nothing else). */
    void skipIdleCycles(Cycle n) { divider_.skip(n); }

    /**
     * RespC acceleration hook: grant `tokens` high-priority CAS slots
     * to `core` (paper: priority proportional to unused credits).
     */
    void boostPriority(CoreId core, std::uint32_t tokens);

    /**
     * MISE alpha-measurement mode: while set, `core`'s transactions
     * preempt everything (paper §IV-C "Highest Priority Mode").
     */
    void setHighestPriorityCore(std::optional<CoreId> core);

    std::uint32_t priorityTokens(CoreId core) const;
    std::size_t readQueueSize() const { return readQ_.size(); }
    std::size_t writeQueueSize() const { return writeQ_.size(); }
    std::uint64_t dramCycle() const { return divider_.derivedTicks(); }

    const ControllerConfig &config() const { return cfg_; }
    const dram::DramDevice &device() const { return device_; }
    /** The RowHammer defense, or nullptr when not enabled. */
    const dram::RowHammerDefense *rowhammer() const
    {
        return rowhammer_.get();
    }
    const Scheduler &scheduler() const { return *sched_; }
    const StatGroup &stats() const { return stats_; }

    /** Decode with bank partitioning applied (exposed for tests). */
    dram::DramAddress decode(Addr addr, CoreId core) const;

    /** Observability hook; propagates to the DRAM device. */
    void setTracer(obs::Tracer *tracer);

    /** Registers this channel's stats under its name plus the
     *  device's under "<name>.dram". */
    void registerStats(obs::StatRegistry &reg) const;

    /** Hardening hook: observer for every DRAM command this
     *  channel's device issues (the protocol checker). */
    void setCommandObserver(dram::CommandObserver *observer)
    {
        device_.setCommandObserver(observer);
    }

  private:
    struct PendingResponse
    {
        MemRequest req;
        Cycle readyCpu; ///< CPU cycle the response is available
    };

    void dramTick(Cycle cpu_now);
    bool manageRefresh(std::uint64_t dram_now);
    bool closeIdleRows(std::uint64_t dram_now);
    using TxnQueue = std::deque<Transaction>;

    /**
     * One queue's scheduling pool, kept between DRAM ticks. The pool
     * is a function of the queue's contents, which cores hold priority
     * tokens, and the highest-priority core, so it is rebuilt only
     * when one of those changes (`stale`): an enqueue or a CAS erase
     * on that queue, a core's token count crossing zero in either
     * direction, or setHighestPriorityCore. The cached pointers stay
     * valid in between: deque push_back keeps element references, and
     * an erase marks the pool stale before the next read.
     */
    struct QueuePool
    {
        SchedView view;
        std::vector<std::size_t> index; ///< pool position -> queue index
        bool stale = true;
    };

    /** The scheduling view of `queue` at DRAM cycle `dram_now`,
     *  rebuilt first if stale. */
    const SchedView &poolFor(const TxnQueue &queue,
                             std::uint64_t dram_now) const;
    QueuePool &poolOf(const TxnQueue &queue) const;
    void invalidatePools();
    /** Earliest DRAM cycle the scheduler could act on `queue`
     *  (Scheduler::earliestPick over the same pool dramTick offers). */
    std::uint64_t earliestQueueAction(const TxnQueue &queue,
                                      std::uint64_t dram_now) const;
    void execute(const Decision &d, TxnQueue &queue,
                 const std::vector<std::size_t> &index_map, Cycle cpu_now,
                 std::uint64_t dram_now);
    Cycle dramDelayToCpu(std::uint64_t dram_cycles) const;

    std::string name_;
    ControllerConfig cfg_;
    dram::AddressMapper mapper_;
    dram::DramDevice device_;
    ClockDivider divider_;
    std::unique_ptr<Scheduler> sched_;
    std::unique_ptr<dram::RowHammerDefense> rowhammer_;

    TxnQueue readQ_;
    TxnQueue writeQ_;
    bool drainingWrites_ = false;
    std::vector<PendingResponse> responses_;
    // Mutable: nextEventCycle (const) reads the pools too.
    mutable QueuePool readPool_;
    mutable QueuePool writePool_;
    std::map<CoreId, std::uint32_t> priorityTokens_;
    std::optional<CoreId> highestPriorityCore_;
    StatGroup stats_;
    obs::Tracer *tracer_ = nullptr;
    sim::Component *respConsumer_ = nullptr;
    sim::Component *spaceConsumer_ = nullptr;
};

} // namespace camo::mem

#endif // CAMO_MEM_CONTROLLER_H
