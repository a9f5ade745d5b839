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
 *
 * The read-only queries the controller's schedulers call on every
 * scan (bank, isRowHit, isRowOpen, canIssue, earliestIssue) are
 * defined inline below the class so the scans see their bodies; each
 * still bounds-checks its rank and bank, with the panic kept out of
 * line. issue() changes state, runs a few times per hundred cycles,
 * and stays in device.cc.
 */

#ifndef CAMO_DRAM_DEVICE_H
#define CAMO_DRAM_DEVICE_H

#include <algorithm>
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
    static bool allBanksClosed(const RankState &rs);

    /** Cold path of bank()'s bounds check. */
    [[noreturn]] static void bankIndexOutOfRange(std::uint32_t rank,
                                                 std::uint32_t b);

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

inline const BankState &
DramDevice::bank(std::uint32_t rank, std::uint32_t b) const
{
    if (rank >= ranks_.size() || b >= ranks_[rank].banks.size())
        [[unlikely]] bankIndexOutOfRange(rank, b);
    return ranks_[rank].banks[b];
}

inline BankState &
DramDevice::bankMut(std::uint32_t rank, std::uint32_t b)
{
    return const_cast<BankState &>(bank(rank, b));
}

inline bool
DramDevice::isRowHit(const DramAddress &da) const
{
    const BankState &bs = bank(da.rank, da.bank);
    return bs.open && bs.openRow == da.row;
}

inline bool
DramDevice::isRowOpen(const DramAddress &da) const
{
    return bank(da.rank, da.bank).open;
}

inline bool
DramDevice::allBanksClosed(const RankState &rs)
{
    return std::none_of(rs.banks.begin(), rs.banks.end(),
                        [](const BankState &b) { return b.open; });
}

inline std::uint64_t
DramDevice::dataBusFreeFor(std::uint32_t rank) const
{
    return rank == lastDataRank_ ? dataBusFreeAt_
                                 : dataBusFreeAt_ + timing_.tRTRS;
}

inline bool
DramDevice::canIssue(Cmd cmd, const DramAddress &da, std::uint64_t now) const
{
    const BankState &bs = bank(da.rank, da.bank);
    if (now < cmdBusFreeAt_)
        return false;
    const RankState &rs = ranks_[da.rank];

    switch (cmd) {
      case Cmd::ACT: {
        if (bs.open || now < bs.nextAct)
            return false;
        // tFAW: at most 4 ACTs per rank in any tFAW window.
        if (rs.actWindow.size() >= 4 &&
            now < rs.actWindow.front() + timing_.tFAW) {
            return false;
        }
        // tRRD against the most recent ACT on this rank.
        if (!rs.actWindow.empty() &&
            now < rs.actWindow.back() + timing_.tRRD) {
            return false;
        }
        return true;
      }
      case Cmd::PRE:
        return bs.open && now >= bs.nextPre;
      case Cmd::RD:
        if (!isRowHit(da) || now < bs.nextRead || now < rs.nextRead)
            return false;
        // Data burst must not overlap the previous one on the bus
        // (plus tRTRS when switching ranks).
        return now + timing_.tCL >= dataBusFreeFor(da.rank);
      case Cmd::WR:
        if (!isRowHit(da) || now < bs.nextWrite || now < rs.nextWrite)
            return false;
        return now + timing_.tCWL >= dataBusFreeFor(da.rank);
      case Cmd::REF:
        // All banks precharged and past their tRP before REF.
        if (!allBanksClosed(rs))
            return false;
        for (const BankState &b : rs.banks) {
            if (now < b.nextAct)
                return false;
        }
        return true;
    }
    return false;
}

inline std::uint64_t
DramDevice::earliestIssue(Cmd cmd, const DramAddress &da) const
{
    // Mirrors canIssue exactly: every check there is a monotone
    // threshold test `now >= X` (or a state predicate independent of
    // `now`), so the earliest legal cycle is the max of the
    // thresholds -- and canIssue(cmd, da, earliestIssue(cmd, da)) is
    // true whenever the result is not kNever.
    const BankState &bs = bank(da.rank, da.bank);
    const RankState &rs = ranks_[da.rank];
    std::uint64_t at = cmdBusFreeAt_;

    switch (cmd) {
      case Cmd::ACT: {
        if (bs.open)
            return kNever;
        at = std::max(at, bs.nextAct);
        if (rs.actWindow.size() >= 4)
            at = std::max(at, rs.actWindow.front() + timing_.tFAW);
        if (!rs.actWindow.empty())
            at = std::max(at, rs.actWindow.back() + timing_.tRRD);
        return at;
      }
      case Cmd::PRE:
        return bs.open ? std::max(at, bs.nextPre) : kNever;
      case Cmd::RD: {
        if (!isRowHit(da))
            return kNever;
        at = std::max({at, bs.nextRead, rs.nextRead});
        const std::uint64_t bus = dataBusFreeFor(da.rank);
        if (bus > timing_.tCL)
            at = std::max(at, bus - timing_.tCL);
        return at;
      }
      case Cmd::WR: {
        if (!isRowHit(da))
            return kNever;
        at = std::max({at, bs.nextWrite, rs.nextWrite});
        const std::uint64_t bus = dataBusFreeFor(da.rank);
        if (bus > timing_.tCWL)
            at = std::max(at, bus - timing_.tCWL);
        return at;
      }
      case Cmd::REF: {
        if (!allBanksClosed(rs))
            return kNever;
        for (const BankState &b : rs.banks)
            at = std::max(at, b.nextAct);
        return at;
      }
    }
    return kNever;
}

} // namespace camo::dram

#endif // CAMO_DRAM_DEVICE_H
