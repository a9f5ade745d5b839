/**
 * @file
 * Command-level DDR3 device model.
 *
 * The device accepts DRAM commands (ACT / PRE / RD / WR / REF) one per
 * DRAM cycle per channel and enforces every timing constraint in
 * DramTiming: bank state, tRCD/tRP/tRAS/tRC, CAS-to-CAS (tCCD),
 * ACT-to-ACT (tRRD, tFAW), bus-turnaround (tRTW/tWTR), write recovery
 * (tWR), read-to-precharge (tRTP), refresh (tRFC/tREFI), and shared
 * data-bus occupancy (BL/2 per burst).
 *
 * Scheduling policy lives in the memory controller; the device only
 * answers "can this command issue now?" and executes it. This is the
 * same split DRAMSim2 uses between its command queue and its device
 * timing checker.
 */

#ifndef CAMO_DRAM_DEVICE_H
#define CAMO_DRAM_DEVICE_H

#include <cstdint>
#include <deque>
#include <vector>

#include "src/common/stats.h"
#include "src/common/types.h"
#include "src/dram/address.h"
#include "src/dram/energy.h"
#include "src/dram/timing.h"
#include "src/obs/tracer.h"

namespace camo::dram {

/** DRAM command opcodes. */
enum class Cmd
{
    ACT, ///< activate a row into the bank's row buffer
    PRE, ///< precharge (close) a bank
    RD,  ///< column read burst
    WR,  ///< column write burst
    REF, ///< all-bank refresh (rank granularity)
};

const char *cmdName(Cmd cmd);

/** Per-bank row-buffer and timing state. */
struct BankState
{
    bool open = false;          ///< row buffer holds a row
    std::uint32_t openRow = 0;  ///< valid iff open
    std::uint64_t nextAct = 0;  ///< earliest ACT (tRC / tRP / tRFC)
    std::uint64_t nextRead = 0; ///< earliest RD (tRCD)
    std::uint64_t nextWrite = 0;///< earliest WR (tRCD)
    std::uint64_t nextPre = 0;  ///< earliest PRE (tRAS / tWR / tRTP)
};

/**
 * Observer notified of every command the device executes, in issue
 * order. The hardening layer's protocol checker taps this to
 * re-derive the timing rules independently of the device's own
 * bookkeeping (an observer may throw; the command has not yet been
 * applied when it is notified).
 */
class CommandObserver
{
  public:
    virtual ~CommandObserver() = default;
    virtual void onCommand(Cmd cmd, const DramAddress &da,
                           std::uint64_t now) = 0;
};

/** Result of issuing a column command. */
struct IssueResult
{
    /** DRAM cycle at which the read data has fully returned (RD) or
     *  the write burst has been absorbed (WR). */
    std::uint64_t dataDoneCycle = 0;
    bool rowHit = false; ///< the access hit an already-open row
};

/** One DRAM channel: ranks x banks behind one command/data bus.
 *
 * Command-driven: the owning controller issues every command and owns
 * the clock crossing, so the device has no clock of its own and is
 * not a sim::Component (the controller's nextEventCycle bounds it). */
class DramDevice final
{
  public:
    DramDevice(const DramOrganization &org, const DramTiming &timing);

    /**
     * May `cmd` legally issue at DRAM cycle `now`?
     * Checks the command bus (one command per cycle), bank/rank timing
     * registers, the tFAW window, refresh state, and (for column
     * commands) data-bus availability.
     */
    bool canIssue(Cmd cmd, const DramAddress &da, std::uint64_t now) const;

    /** Sentinel for earliestIssue: no cycle can satisfy the command
     *  in the device's current state (e.g. ACT into an open bank). */
    static constexpr std::uint64_t kNever = ~std::uint64_t(0);

    /**
     * Earliest DRAM cycle at which `cmd` could legally issue given the
     * device's current state and no intervening commands, i.e. the
     * smallest `t` with canIssue(cmd, da, t). kNever when a
     * state-dependent precondition fails (closed row for RD/WR, open
     * bank for ACT, banks still open for REF): those only become
     * issuable after another command changes the state, and that
     * command's own issue re-derives the bound.
     */
    std::uint64_t earliestIssue(Cmd cmd, const DramAddress &da) const;

    /**
     * Issue `cmd` at cycle `now`.
     * @pre canIssue(cmd, da, now).
     * @return meaningful only for RD/WR.
     */
    IssueResult issue(Cmd cmd, const DramAddress &da, std::uint64_t now);

    /** True if bank `da.bank` of `da.rank` has row `da.row` open. */
    bool isRowHit(const DramAddress &da) const;

    /** True if that bank has any row open. */
    bool isRowOpen(const DramAddress &da) const;

    /** Rank needs a REF: tREFI elapsed since its last refresh. */
    bool refreshDue(std::uint32_t rank, std::uint64_t now) const;

    /**
     * Refresh urgency: refreshes owed minus refreshes done. The
     * controller must not let this exceed the JEDEC pull-in limit (8).
     */
    std::uint64_t refreshDebt(std::uint32_t rank, std::uint64_t now) const;

    /** First DRAM cycle at which refreshDue(rank, cycle) turns true
     *  (given no further REF issues). */
    std::uint64_t
    nextRefreshDue(std::uint32_t rank) const
    {
        return (ranks_[rank].refreshesDone + 1) * timing_.tREFI;
    }

    /** Any bank in any rank holding a row open? */
    bool
    anyRowOpen() const
    {
        for (const RankState &rs : ranks_) {
            for (const BankState &b : rs.banks) {
                if (b.open)
                    return true;
            }
        }
        return false;
    }

    const BankState &bank(std::uint32_t rank, std::uint32_t b) const;
    const DramTiming &timing() const { return timing_; }
    const DramOrganization &organization() const { return org_; }
    const StatGroup &stats() const { return stats_; }
    /** Energy accumulated by the commands issued so far. */
    const EnergyCounter &energy() const { return energy_; }

    /** Observability hook (nullptr disables emission). */
    void setTracer(obs::Tracer *tracer) { tracer_ = tracer; }

    /** Hardening hook: observer called on every issued command
     *  (nullptr disables). */
    void setCommandObserver(CommandObserver *observer)
    {
        observer_ = observer;
    }

    /** CPU-cycle timestamp used for emitted events. The controller
     *  refreshes this each DRAM tick so the trace timeline stays in
     *  one (CPU) clock domain. */
    void setCpuTime(Cycle cpu_now) { cpuNow_ = cpu_now; }

  private:
    struct RankState
    {
        std::vector<BankState> banks;
        std::deque<std::uint64_t> actWindow; ///< last ACT times (tFAW)
        std::uint64_t nextRead = 0;          ///< rank CAS constraints
        std::uint64_t nextWrite = 0;
        std::uint64_t refreshesDone = 0;
    };

    BankState &bankMut(std::uint32_t rank, std::uint32_t b);
    bool allBanksClosed(const RankState &rs) const;

    /** Data-bus availability for a burst from `rank` (adds tRTRS when
     *  the previous burst came from another rank). */
    std::uint64_t dataBusFreeFor(std::uint32_t rank) const;

    DramOrganization org_;
    DramTiming timing_;
    std::vector<RankState> ranks_;
    std::uint64_t cmdBusFreeAt_ = 0;  ///< next cycle command bus is free
    std::uint64_t dataBusFreeAt_ = 0; ///< next cycle data bus is free
    std::uint32_t lastDataRank_ = 0;  ///< rank of the last data burst
    EnergyCounter energy_;
    StatGroup stats_;
    obs::Tracer *tracer_ = nullptr;
    CommandObserver *observer_ = nullptr;
    Cycle cpuNow_ = 0;
};

} // namespace camo::dram

#endif // CAMO_DRAM_DEVICE_H
