/**
 * @file
 * Memory-controller scheduling policies.
 *
 * FR-FCFS is the baseline high-performance policy (with Camouflage's
 * priority-boost extension for RespC acceleration). Temporal
 * Partitioning (Wang et al., HPCA'14) and Fixed Service (Shafiee et
 * al., MICRO'15) are the secure baselines the paper compares against.
 */

#ifndef CAMO_MEM_SCHEDULERS_H
#define CAMO_MEM_SCHEDULERS_H

#include <cstdint>
#include <memory>
#include <vector>

#include "src/common/types.h"
#include "src/dram/address.h"
#include "src/dram/device.h"
#include "src/mem/request.h"

namespace camo::mem {

/** A request waiting in (or being worked on by) the controller. */
struct Transaction
{
    MemRequest req;
    dram::DramAddress da;
    std::uint64_t enqueuedDram = 0; ///< DRAM cycle of arrival
};

/** What a scheduler wants to do this DRAM cycle. */
struct Decision
{
    enum class Kind { Cas, Act, Pre };
    Kind kind = Kind::Cas;
    std::size_t txnIndex = 0; ///< index into the offered pool
};

/** Read-only view a scheduler gets each DRAM cycle. */
struct SchedView
{
    std::uint64_t now = 0;               ///< current DRAM cycle
    const dram::DramDevice *device = nullptr;
    /** Candidate transactions, oldest-first within each segment. */
    std::vector<const Transaction *> pool;
    /**
     * pool[0 .. boostedCount) belong to cores holding RespC priority
     * tokens and should be served preferentially.
     */
    std::size_t boostedCount = 0;
    /**
     * pool[fakeStart ..) are Camouflage fake transactions: they are
     * served only when no real transaction can make progress (the
     * paper gives fake traffic strictly lower priority than intrinsic
     * requests). Defaults to "no fakes".
     */
    std::size_t fakeStart = static_cast<std::size_t>(-1);
    bool isWritePool = false; ///< pool drawn from the write queue
};

/** Scheduling-policy interface. */
class Scheduler
{
  public:
    virtual ~Scheduler() = default;
    virtual const char *name() const = 0;

    /**
     * Pick at most one command for this DRAM cycle.
     * Must only return decisions whose command canIssue() right now.
     * @retval true and fills `out` if a command should issue.
     */
    virtual bool pick(const SchedView &view, Decision &out) = 0;

    /**
     * Earliest DRAM cycle at which pick() could return true for this
     * view, assuming no intervening commands alter the device state
     * and no transactions arrive or leave. A sound lower bound: the
     * policy may still decline at the returned cycle (spurious wakes
     * are safe; late bounds are not). dram::DramDevice::kNever when no
     * candidate exists. The default ticks densely (`now + 1`), which
     * is always sound.
     */
    virtual std::uint64_t earliestPick(const SchedView &view) const;

    /** Notification that a CAS was executed for `core` at `now`. */
    virtual void onCasIssued(CoreId core, std::uint64_t now);
};

/**
 * First-Ready First-Come-First-Serve with optional priority segments.
 * Row-hit CAS commands first (oldest first), then ACT/PRE to unblock
 * the oldest remaining transaction; boosted segment fully preempts.
 */
class FrFcfsScheduler : public Scheduler
{
  public:
    const char *name() const override { return "FR-FCFS"; }
    bool pick(const SchedView &view, Decision &out) override;
    std::uint64_t earliestPick(const SchedView &view) const override;

  private:
    /** FR-FCFS over view.pool[begin, end). */
    bool pickSegment(const SchedView &view, std::size_t begin,
                     std::size_t end, Decision &out);

    /** pickSegment's claimed-bank keys, oldest claim first; reused
     *  across calls so a pick allocates nothing. */
    std::vector<std::uint64_t> claimed_;
};

/**
 * Plain in-order FCFS: always works on the oldest transaction of the
 * highest-priority segment, ignoring row-buffer state. The paper's
 * motivation section contrasts FR-FCFS against leakage-aware static
 * policies; plain FCFS is the canonical low-performance reference.
 */
class FcfsScheduler : public Scheduler
{
  public:
    const char *name() const override { return "FCFS"; }
    bool pick(const SchedView &view, Decision &out) override;
    std::uint64_t earliestPick(const SchedView &view) const override;
};

/** Configuration for temporal partitioning. */
struct TpConfig
{
    std::uint64_t turnLength = 96; ///< DRAM cycles per security turn
    /**
     * Dead time at the end of each turn during which no new command
     * issues, so in-flight activity cannot spill into the next
     * domain's turn (tRCD + tCL + burst is a safe bound).
     */
    std::uint64_t deadTime = 24;
    std::uint32_t numDomains = 4;
};

/**
 * Temporal Partitioning: time is divided into fixed turns; only the
 * domain owning the current turn may issue commands. Within a turn the
 * policy is FR-FCFS.
 */
class TemporalPartitionScheduler : public Scheduler
{
  public:
    explicit TemporalPartitionScheduler(const TpConfig &cfg);
    const char *name() const override { return "TP"; }
    bool pick(const SchedView &view, Decision &out) override;
    std::uint64_t earliestPick(const SchedView &view) const override;

    /** Domain that owns DRAM cycle `now`. */
    std::uint32_t domainAt(std::uint64_t now) const;
    /** Cycles remaining in the current turn at `now` (before dead time). */
    std::uint64_t usableRemaining(std::uint64_t now) const;

    const TpConfig &config() const { return cfg_; }

  private:
    TpConfig cfg_;
    FrFcfsScheduler inner_;
};

/** Configuration for the Fixed Service policy. */
struct FsConfig
{
    /**
     * One CAS per core at most every `servicePeriod` DRAM cycles; the
     * constant per-thread rate is the policy's security argument.
     */
    std::uint64_t servicePeriod = 48;
    std::uint32_t numCores = 4;
};

/**
 * Fixed Service: every thread is served at a constant rate regardless
 * of demand. Usually paired with bank partitioning (configured in the
 * controller's address decode).
 */
class FixedServiceScheduler : public Scheduler
{
  public:
    explicit FixedServiceScheduler(const FsConfig &cfg);
    const char *name() const override { return "FS"; }
    bool pick(const SchedView &view, Decision &out) override;
    std::uint64_t earliestPick(const SchedView &view) const override;
    void onCasIssued(CoreId core, std::uint64_t now) override;

    std::uint64_t nextSlot(CoreId core) const;
    const FsConfig &config() const { return cfg_; }

  private:
    bool coreDue(CoreId core, std::uint64_t now) const;

    FsConfig cfg_;
    std::vector<std::uint64_t> nextService_;
    FrFcfsScheduler inner_;
};

} // namespace camo::mem

#endif // CAMO_MEM_SCHEDULERS_H
