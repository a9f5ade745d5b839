#include "src/dram/device.h"

#include <algorithm>
#include <iterator>

#include "src/common/logging.h"

namespace camo::dram {

const char *
cmdName(Cmd cmd)
{
    switch (cmd) {
      case Cmd::ACT: return "ACT";
      case Cmd::PRE: return "PRE";
      case Cmd::RD:  return "RD";
      case Cmd::WR:  return "WR";
      case Cmd::REF: return "REF";
    }
    return "?";
}

namespace {

/** Per-command counter names ("cmd." + cmdName), indexed by Cmd. */
constexpr StatName kCmdStat[] = {"cmd.ACT", "cmd.PRE", "cmd.RD",
                                 "cmd.WR", "cmd.REF"};
static_assert(std::size(kCmdStat) ==
              static_cast<std::size_t>(Cmd::REF) + 1);

} // namespace

DramDevice::DramDevice(const DramOrganization &org, const DramTiming &timing)
    : org_(org), timing_(timing)
{
    ranks_.resize(org.ranksPerChannel);
    for (auto &rank : ranks_)
        rank.banks.resize(org.banksPerRank);
}

const BankState &
DramDevice::bank(std::uint32_t rank, std::uint32_t b) const
{
    camo_assert(rank < ranks_.size() && b < ranks_[rank].banks.size(),
                "bank index out of range: rank=", rank, " bank=", b);
    return ranks_[rank].banks[b];
}

BankState &
DramDevice::bankMut(std::uint32_t rank, std::uint32_t b)
{
    return const_cast<BankState &>(bank(rank, b));
}

bool
DramDevice::isRowHit(const DramAddress &da) const
{
    const BankState &bs = bank(da.rank, da.bank);
    return bs.open && bs.openRow == da.row;
}

bool
DramDevice::isRowOpen(const DramAddress &da) const
{
    return bank(da.rank, da.bank).open;
}

bool
DramDevice::allBanksClosed(const RankState &rs) const
{
    return std::none_of(rs.banks.begin(), rs.banks.end(),
                        [](const BankState &b) { return b.open; });
}

bool
DramDevice::refreshDue(std::uint32_t rank, std::uint64_t now) const
{
    return refreshDebt(rank, now) > 0;
}

std::uint64_t
DramDevice::refreshDebt(std::uint32_t rank, std::uint64_t now) const
{
    camo_assert(rank < ranks_.size(), "rank out of range");
    const std::uint64_t owed = now / timing_.tREFI;
    const std::uint64_t done = ranks_[rank].refreshesDone;
    return owed > done ? owed - done : 0;
}

std::uint64_t
DramDevice::dataBusFreeFor(std::uint32_t rank) const
{
    return rank == lastDataRank_ ? dataBusFreeAt_
                                 : dataBusFreeAt_ + timing_.tRTRS;
}

bool
DramDevice::canIssue(Cmd cmd, const DramAddress &da, std::uint64_t now) const
{
    if (now < cmdBusFreeAt_)
        return false;
    camo_assert(da.rank < ranks_.size(), "rank out of range");
    const RankState &rs = ranks_[da.rank];
    const BankState &bs = bank(da.rank, da.bank);

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

std::uint64_t
DramDevice::earliestIssue(Cmd cmd, const DramAddress &da) const
{
    // Mirrors canIssue exactly: every check there is a monotone
    // threshold test `now >= X` (or a state predicate independent of
    // `now`), so the earliest legal cycle is the max of the
    // thresholds -- and canIssue(cmd, da, earliestIssue(cmd, da)) is
    // true whenever the result is not kNever.
    camo_assert(da.rank < ranks_.size(), "rank out of range");
    const RankState &rs = ranks_[da.rank];
    const BankState &bs = bank(da.rank, da.bank);
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

IssueResult
DramDevice::issue(Cmd cmd, const DramAddress &da, std::uint64_t now)
{
    camo_assert(canIssue(cmd, da, now), "illegal ", cmdName(cmd),
                " to ", da.toString(), " at DRAM cycle ", now);
    if (observer_)
        observer_->onCommand(cmd, da, now);
    RankState &rs = ranks_[da.rank];
    BankState &bs = bankMut(da.rank, da.bank);
    IssueResult result;
    cmdBusFreeAt_ = now + 1;
    stats_.inc(kCmdStat[static_cast<std::size_t>(cmd)]);

    if (tracer_ && tracer_->enabled()) {
        obs::EventType type = obs::EventType::DramActivate;
        switch (cmd) {
          case Cmd::ACT: type = obs::EventType::DramActivate; break;
          case Cmd::PRE: type = obs::EventType::DramPrecharge; break;
          case Cmd::RD: type = obs::EventType::DramRead; break;
          case Cmd::WR: type = obs::EventType::DramWrite; break;
          case Cmd::REF: type = obs::EventType::DramRefresh; break;
        }
        CAMO_TRACE_EVENT(tracer_, .at = cpuNow_, .type = type,
                         .addr = da.row,
                         .arg = (static_cast<std::uint64_t>(da.rank)
                                 << 16) |
                                da.bank);
    }

    switch (cmd) {
      case Cmd::ACT: {
        energy_.onActivate();
        bs.open = true;
        bs.openRow = da.row;
        bs.nextRead = now + timing_.tRCD;
        bs.nextWrite = now + timing_.tRCD;
        bs.nextPre = std::max<std::uint64_t>(bs.nextPre, now + timing_.tRAS);
        bs.nextAct = now + timing_.tRC;
        rs.actWindow.push_back(now);
        while (rs.actWindow.size() > 4)
            rs.actWindow.pop_front();
        break;
      }
      case Cmd::PRE: {
        bs.open = false;
        bs.nextAct = std::max<std::uint64_t>(bs.nextAct, now + timing_.tRP);
        break;
      }
      case Cmd::RD: {
        energy_.onRead();
        result.rowHit = true;
        const std::uint64_t data_start = now + timing_.tCL;
        const std::uint64_t data_end = data_start + timing_.dataCycles();
        dataBusFreeAt_ = data_end;
        lastDataRank_ = da.rank;
        result.dataDoneCycle = data_end;
        bs.nextPre = std::max<std::uint64_t>(bs.nextPre,
                                             now + timing_.tRTP);
        rs.nextRead = std::max<std::uint64_t>(rs.nextRead,
                                              now + timing_.tCCD);
        rs.nextWrite = std::max<std::uint64_t>(rs.nextWrite,
                                               now + timing_.tRTW);
        break;
      }
      case Cmd::WR: {
        energy_.onWrite();
        result.rowHit = true;
        const std::uint64_t data_start = now + timing_.tCWL;
        const std::uint64_t data_end = data_start + timing_.dataCycles();
        dataBusFreeAt_ = data_end;
        lastDataRank_ = da.rank;
        result.dataDoneCycle = data_end;
        bs.nextPre = std::max<std::uint64_t>(bs.nextPre,
                                             data_end + timing_.tWR);
        rs.nextWrite = std::max<std::uint64_t>(rs.nextWrite,
                                               now + timing_.tCCD);
        rs.nextRead = std::max<std::uint64_t>(rs.nextRead,
                                              data_end + timing_.tWTR);
        break;
      }
      case Cmd::REF: {
        energy_.onRefresh();
        for (BankState &b : rs.banks) {
            b.nextAct = std::max<std::uint64_t>(b.nextAct,
                                                now + timing_.tRFC);
        }
        ++rs.refreshesDone;
        break;
      }
    }
    return result;
}

} // namespace camo::dram
