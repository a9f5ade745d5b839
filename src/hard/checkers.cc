#include "src/hard/checkers.h"

#include <sstream>

#include "src/hard/error.h"

namespace camo::hard {

DramProtocolChecker::DramProtocolChecker(
    const dram::DramOrganization &org, const dram::DramTiming &timing)
    : timing_(timing)
{
    ranks_.resize(org.ranksPerChannel);
    for (Rank &r : ranks_)
        r.banks.resize(org.banksPerRank);
}

void
DramProtocolChecker::fail(dram::Cmd cmd, const dram::DramAddress &da,
                          std::uint64_t now,
                          const std::string &why) const
{
    std::ostringstream os;
    os << "DRAM protocol violation: " << why << " (" << cmdName(cmd)
       << " to rank " << da.rank << " bank " << da.bank << " row "
       << da.row << " at DRAM cycle " << now << ")";
    throw InvariantViolation(os.str());
}

void
DramProtocolChecker::onCommand(dram::Cmd cmd,
                               const dram::DramAddress &da,
                               std::uint64_t now)
{
    ++checked_;
    if (da.rank >= ranks_.size())
        fail(cmd, da, now, "rank index out of range");
    Rank &rank = ranks_[da.rank];
    if (cmd != dram::Cmd::REF && da.bank >= rank.banks.size())
        fail(cmd, da, now, "bank index out of range");

    switch (cmd) {
      case dram::Cmd::ACT: {
        Bank &bank = rank.banks[da.bank];
        if (bank.open)
            fail(cmd, da, now, "ACT to a bank with an open row");
        if (now < bank.nextAct) {
            std::ostringstream os;
            os << "tRC/tRP not met (earliest legal ACT is "
               << bank.nextAct << ")";
            fail(cmd, da, now, os.str());
        }
        if (!rank.actTimes.empty() &&
            now < rank.actTimes.back() + timing_.tRRD) {
            std::ostringstream os;
            os << "tRRD not met (previous ACT at "
               << rank.actTimes.back() << ")";
            fail(cmd, da, now, os.str());
        }
        if (rank.actTimes.size() >= 4 &&
            now < rank.actTimes[rank.actTimes.size() - 4] +
                      timing_.tFAW) {
            std::ostringstream os;
            os << "tFAW not met (fifth ACT within " << timing_.tFAW
               << " cycles of the ACT at "
               << rank.actTimes[rank.actTimes.size() - 4] << ")";
            fail(cmd, da, now, os.str());
        }
        bank.open = true;
        bank.openRow = da.row;
        bank.actAt = now;
        bank.nextAct = now + timing_.tRC;
        rank.actTimes.push_back(now);
        if (rank.actTimes.size() > 4)
            rank.actTimes.erase(rank.actTimes.begin());
        break;
      }
      case dram::Cmd::PRE: {
        Bank &bank = rank.banks[da.bank];
        if (!bank.open)
            fail(cmd, da, now, "PRE to an already-closed bank");
        if (now < bank.actAt + timing_.tRAS) {
            std::ostringstream os;
            os << "tRAS not met (row opened at " << bank.actAt << ")";
            fail(cmd, da, now, os.str());
        }
        bank.open = false;
        bank.nextAct =
            std::max<std::uint64_t>(bank.nextAct, now + timing_.tRP);
        break;
      }
      case dram::Cmd::RD:
      case dram::Cmd::WR: {
        Bank &bank = rank.banks[da.bank];
        if (!bank.open)
            fail(cmd, da, now, "column command to a closed bank");
        if (bank.openRow != da.row) {
            std::ostringstream os;
            os << "column command to row " << da.row
               << " while row " << bank.openRow << " is open";
            fail(cmd, da, now, os.str());
        }
        if (now < bank.actAt + timing_.tRCD) {
            std::ostringstream os;
            os << "tRCD not met (row opened at " << bank.actAt << ")";
            fail(cmd, da, now, os.str());
        }
        break;
      }
      case dram::Cmd::REF: {
        for (std::size_t b = 0; b < rank.banks.size(); ++b) {
            if (rank.banks[b].open) {
                std::ostringstream os;
                os << "REF with bank " << b << " open";
                fail(cmd, da, now, os.str());
            }
        }
        for (Bank &bank : rank.banks) {
            bank.nextAct = std::max<std::uint64_t>(
                bank.nextAct, now + timing_.tRFC);
        }
        break;
      }
    }
}

void
RequestLifecycleTracker::onIssue(ReqId id, CoreId core, Cycle now)
{
    const auto [it, inserted] = inflight_.emplace(id, Entry{core, now});
    if (!inserted) {
        std::ostringstream os;
        os << "request id " << id << " (core " << core
           << ") issued at cycle " << now
           << " while already in flight since cycle "
           << it->second.issuedAt;
        throw InvariantViolation(os.str());
    }
    ++issued_;
}

void
RequestLifecycleTracker::onRetire(ReqId id, CoreId core, Cycle now)
{
    const auto it = inflight_.find(id);
    if (it == inflight_.end()) {
        std::ostringstream os;
        os << "response id " << id << " (core " << core
           << ") delivered at cycle " << now
           << " for a request that was never issued or was already "
              "retired (duplicate response)";
        throw InvariantViolation(os.str());
    }
    inflight_.erase(it);
    ++retired_;
}

std::vector<LeakedRequest>
RequestLifecycleTracker::leaked(Cycle now, Cycle min_age) const
{
    std::vector<LeakedRequest> out;
    for (const auto &[id, entry] : inflight_) {
        if (now >= entry.issuedAt + min_age)
            out.push_back({id, entry.core, entry.issuedAt});
    }
    return out;
}

std::uint64_t
ShaperContract::totalCredits() const
{
    std::uint64_t total = 0;
    for (const std::uint32_t c : credits)
        total += c;
    return total;
}

void
ShaperConservationChecker::setContract(CoreId core,
                                       const ShaperContract &contract)
{
    PerCore &pc = cores_[core];
    pc.contract = contract;
    // The budget window restarts under the new contract; release/push
    // accounting carries across reconfigurations.
    pc.windowStart = kNoCycle;
    pc.windowCount = 0;
}

void
ShaperConservationChecker::onShaperRelease(CoreId core, Cycle now)
{
    (void)now;
    const auto it = cores_.find(core);
    if (it != cores_.end())
        ++it->second.releases;
}

std::string
ShaperConservationChecker::onBusPush(CoreId core, Cycle now,
                                     bool is_fake, bool fakes_enabled)
{
    const auto it = cores_.find(core);
    if (it == cores_.end())
        return {};
    PerCore &pc = it->second;

    ++pc.pushes;
    if (pc.pushes > pc.releases) {
        std::ostringstream os;
        os << "core " << core << ": transaction reached the shared "
           << "channel without passing the shaper at cycle " << now
           << " (" << pc.pushes << " bus pushes vs " << pc.releases
           << " shaper releases)";
        // Resync so one leaked transaction reports exactly once.
        pc.releases = pc.pushes;
        return os.str();
    }

    if (is_fake && !fakes_enabled) {
        std::ostringstream os;
        os << "core " << core << ": fake transaction on the bus at "
           << "cycle " << now << " while fake generation is disabled";
        return os.str();
    }

    if (pc.lastPush != kNoCycle) {
        const Cycle gap = now - pc.lastPush;
        bool credited = false;
        for (std::size_t j = 0; j < pc.contract.edges.size(); ++j) {
            if (pc.contract.edges[j] <= gap &&
                pc.contract.credits[j] > 0) {
                credited = true;
                break;
            }
        }
        if (!credited) {
            std::ostringstream os;
            os << "core " << core << ": inter-arrival gap " << gap
               << " at cycle " << now
               << " lands in no credited bin of the programmed "
                  "schedule";
            pc.lastPush = now;
            return os.str();
        }
    }
    pc.lastPush = now;

    const Cycle period = pc.contract.replenishPeriod;
    if (period > 0) {
        if (pc.windowStart == kNoCycle) {
            pc.windowStart = now;
        } else if (now >= pc.windowStart + period) {
            pc.windowStart +=
                ((now - pc.windowStart) / period) * period;
            pc.windowCount = 0;
        }
        ++pc.windowCount;
        // A window can straddle one replenishment boundary, so up to
        // two periods' budgets are legitimately visible; the small
        // slack absorbs randomized-timing stragglers.
        const std::uint64_t budget =
            2 * pc.contract.totalCredits() + 8;
        if (pc.windowCount > budget) {
            std::ostringstream os;
            os << "core " << core << ": " << pc.windowCount
               << " releases within one replenishment period at cycle "
               << now << " exceed the credit budget ("
               << pc.contract.totalCredits() << " per period)";
            return os.str();
        }
    }
    return {};
}

std::string
ShaperConservationChecker::onCreditState(
    CoreId core, const std::vector<std::uint32_t> &live)
{
    const auto it = cores_.find(core);
    if (it == cores_.end())
        return {};
    const PerCore &pc = it->second;
    if (live.size() != pc.contract.credits.size()) {
        std::ostringstream os;
        os << "core " << core << ": live credit register count "
           << live.size() << " differs from the programmed bin count "
           << pc.contract.credits.size();
        return os.str();
    }
    for (std::size_t i = 0; i < live.size(); ++i) {
        if (live[i] > pc.contract.credits[i]) {
            std::ostringstream os;
            os << "core " << core << ": live credit register " << i
               << " holds " << live[i]
               << ", exceeding the programmed replenishment amount "
               << pc.contract.credits[i];
            return os.str();
        }
    }
    return {};
}

std::uint64_t
ShaperConservationChecker::releasesSeen(CoreId core) const
{
    const auto it = cores_.find(core);
    return it == cores_.end() ? 0 : it->second.releases;
}

CheckerSet::CheckerSet(const CheckerConfig &cfg) : cfg_(cfg) {}

DramProtocolChecker *
CheckerSet::addProtocolChecker(const dram::DramOrganization &org,
                               const dram::DramTiming &timing)
{
    protocol_.push_back(
        std::make_unique<DramProtocolChecker>(org, timing));
    return protocol_.back().get();
}

} // namespace camo::hard
