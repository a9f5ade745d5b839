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

void
DramDevice::bankIndexOutOfRange(std::uint32_t rank, std::uint32_t b)
{
    camo_panic("bank index out of range: rank=", rank, " bank=", b);
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
