#include "src/mem/schedulers.h"

#include <algorithm>

#include "src/common/logging.h"

namespace camo::mem {

void
Scheduler::onCasIssued(CoreId core, std::uint64_t now)
{
    (void)core;
    (void)now;
}

std::uint64_t
Scheduler::earliestPick(const SchedView &view) const
{
    // Dense ticking: always a sound (if useless) lower bound.
    return view.now + 1;
}

namespace {

dram::Cmd
casCmdFor(const Transaction &txn)
{
    return txn.req.isWrite ? dram::Cmd::WR : dram::Cmd::RD;
}

/**
 * The command FrFcfsScheduler / FcfsScheduler would try to move `txn`
 * forward: CAS when its row is open, PRE when another row occupies the
 * bank, ACT when the bank is closed. The branch condition always
 * satisfies the command's state precondition, so earliestIssue never
 * returns kNever through this mapping.
 */
std::uint64_t
earliestProgress(const dram::DramDevice &dev, const Transaction &txn)
{
    if (dev.isRowHit(txn.da))
        return dev.earliestIssue(casCmdFor(txn), txn.da);
    if (dev.isRowOpen(txn.da))
        return dev.earliestIssue(dram::Cmd::PRE, txn.da);
    return dev.earliestIssue(dram::Cmd::ACT, txn.da);
}

} // namespace

/**
 * FR-FCFS over pool[begin, end): first an issuable row-hit CAS
 * (oldest first), then ACT/PRE to unblock the oldest transaction whose
 * bank allows progress.
 */
bool
FrFcfsScheduler::pickSegment(const SchedView &view, std::size_t begin,
                             std::size_t end, Decision &out)
{
    const auto &dev = *view.device;

    // Pass 1: first-ready — oldest issuable row-hit column command.
    for (std::size_t i = begin; i < end; ++i) {
        const Transaction &txn = *view.pool[i];
        if (dev.isRowHit(txn.da) &&
            dev.canIssue(casCmdFor(txn), txn.da, view.now)) {
            out = {Decision::Kind::Cas, i};
            return true;
        }
    }

    // Pass 2: structural progress for the oldest blocked transactions.
    // Track banks already claimed by an older transaction so a younger
    // request to the same bank cannot close its row (row-hit respect).
    claimed_.clear();
    auto bank_key = [](const dram::DramAddress &da) {
        return (static_cast<std::uint64_t>(da.rank) << 32) | da.bank;
    };
    for (std::size_t i = begin; i < end; ++i) {
        const Transaction &txn = *view.pool[i];
        const auto key = bank_key(txn.da);
        if (std::find(claimed_.begin(), claimed_.end(), key) !=
            claimed_.end()) {
            continue;
        }
        claimed_.push_back(key);
        if (dev.isRowHit(txn.da))
            continue; // CAS constrained (tCCD etc.); just wait
        if (dev.isRowOpen(txn.da)) {
            if (dev.canIssue(dram::Cmd::PRE, txn.da, view.now)) {
                out = {Decision::Kind::Pre, i};
                return true;
            }
        } else if (dev.canIssue(dram::Cmd::ACT, txn.da, view.now)) {
            out = {Decision::Kind::Act, i};
            return true;
        }
    }
    return false;
}

bool
FrFcfsScheduler::pick(const SchedView &view, Decision &out)
{
    const std::size_t fake_start =
        std::min(view.fakeStart, view.pool.size());
    // Boosted reals preempt normal reals, which preempt fakes.
    if (view.boostedCount > 0 &&
        pickSegment(view, 0, view.boostedCount, out)) {
        return true;
    }
    if (pickSegment(view, view.boostedCount, fake_start, out))
        return true;
    return pickSegment(view, fake_start, view.pool.size(), out);
}

std::uint64_t
FrFcfsScheduler::earliestPick(const SchedView &view) const
{
    // Min over every transaction's progress command. This candidate
    // set is a superset of what pick() actually tries (segmentation
    // and claimed-bank filtering only *remove* candidates), so the
    // minimum can only be early -- a spurious wake, never a missed
    // one. Priority boosts reorder segments but do not change the set.
    std::uint64_t at = dram::DramDevice::kNever;
    for (const Transaction *txn : view.pool) {
        at = std::min(at, earliestProgress(*view.device, *txn));
        if (at <= view.now + 1)
            break; // cannot get earlier than the next DRAM tick
    }
    return at;
}

bool
FcfsScheduler::pick(const SchedView &view, Decision &out)
{
    const std::size_t fake_start =
        std::min(view.fakeStart, view.pool.size());
    // Work on the single oldest transaction of the foremost
    // non-empty segment; issue whatever command moves it forward.
    const std::size_t segments[3][2] = {
        {0, view.boostedCount},
        {view.boostedCount, fake_start},
        {fake_start, view.pool.size()},
    };
    for (const auto &seg : segments) {
        if (seg[0] >= seg[1])
            continue;
        const std::size_t i = seg[0];
        const Transaction &txn = *view.pool[i];
        const auto &dev = *view.device;
        const auto cas =
            txn.req.isWrite ? dram::Cmd::WR : dram::Cmd::RD;
        if (dev.isRowHit(txn.da)) {
            if (dev.canIssue(cas, txn.da, view.now)) {
                out = {Decision::Kind::Cas, i};
                return true;
            }
        } else if (dev.isRowOpen(txn.da)) {
            if (dev.canIssue(dram::Cmd::PRE, txn.da, view.now)) {
                out = {Decision::Kind::Pre, i};
                return true;
            }
        } else if (dev.canIssue(dram::Cmd::ACT, txn.da, view.now)) {
            out = {Decision::Kind::Act, i};
            return true;
        }
        return false; // strictly in order: wait for the head
    }
    return false;
}

std::uint64_t
FcfsScheduler::earliestPick(const SchedView &view) const
{
    // Only the head of the foremost non-empty segment can ever issue;
    // its progress command's threshold is exact for this policy. The
    // head identity depends on boost segmentation, so any boost change
    // must re-derive this bound (the system wakes the controller when
    // it grants or drains priority tokens).
    const std::size_t fake_start =
        std::min(view.fakeStart, view.pool.size());
    const std::size_t segments[3][2] = {
        {0, view.boostedCount},
        {view.boostedCount, fake_start},
        {fake_start, view.pool.size()},
    };
    for (const auto &seg : segments) {
        if (seg[0] >= seg[1])
            continue;
        return earliestProgress(*view.device, *view.pool[seg[0]]);
    }
    return dram::DramDevice::kNever;
}

TemporalPartitionScheduler::TemporalPartitionScheduler(const TpConfig &cfg)
    : cfg_(cfg)
{
    camo_assert(cfg_.numDomains >= 1, "TP needs at least one domain");
    camo_assert(cfg_.deadTime < cfg_.turnLength,
                "TP dead time must leave usable turn cycles");
}

std::uint32_t
TemporalPartitionScheduler::domainAt(std::uint64_t now) const
{
    return static_cast<std::uint32_t>((now / cfg_.turnLength) %
                                      cfg_.numDomains);
}

std::uint64_t
TemporalPartitionScheduler::usableRemaining(std::uint64_t now) const
{
    const std::uint64_t into_turn = now % cfg_.turnLength;
    const std::uint64_t usable = cfg_.turnLength - cfg_.deadTime;
    return into_turn >= usable ? 0 : usable - into_turn;
}

bool
TemporalPartitionScheduler::pick(const SchedView &view, Decision &out)
{
    if (usableRemaining(view.now) == 0)
        return false; // dead time: let in-flight activity drain

    const std::uint32_t domain = domainAt(view.now);

    // Restrict the pool to the security domain owning this turn.
    // Domain assignment is core id modulo domain count.
    SchedView turn_view;
    turn_view.now = view.now;
    turn_view.device = view.device;
    turn_view.isWritePool = view.isWritePool;
    std::vector<std::size_t> original_index;
    for (std::size_t i = 0; i < view.pool.size(); ++i) {
        const Transaction &txn = *view.pool[i];
        const CoreId core = txn.req.core;
        const std::uint32_t d =
            core == kNoCore ? 0 : core % cfg_.numDomains;
        if (d == domain) {
            turn_view.pool.push_back(view.pool[i]);
            original_index.push_back(i);
        }
    }
    turn_view.boostedCount = 0; // TP admits no cross-domain priorities

    Decision inner_out;
    if (!inner_.pick(turn_view, inner_out))
        return false;
    out = {inner_out.kind, original_index[inner_out.txnIndex]};
    return true;
}

std::uint64_t
TemporalPartitionScheduler::earliestPick(const SchedView &view) const
{
    // The turn boundary always re-derives the bound: a new domain's
    // candidates become eligible there, and the dead-time gate lifts.
    const std::uint64_t next_turn =
        (view.now / cfg_.turnLength + 1) * cfg_.turnLength;
    if (usableRemaining(view.now) == 0)
        return next_turn;

    SchedView turn_view;
    turn_view.now = view.now;
    turn_view.device = view.device;
    turn_view.isWritePool = view.isWritePool;
    const std::uint32_t domain = domainAt(view.now);
    for (const Transaction *txn : view.pool) {
        const CoreId core = txn->req.core;
        const std::uint32_t d =
            core == kNoCore ? 0 : core % cfg_.numDomains;
        if (d == domain)
            turn_view.pool.push_back(txn);
    }
    if (turn_view.pool.empty())
        return next_turn;
    // An inner bound landing in this turn's dead time wakes the
    // controller to a pick() that declines; the re-derived bound then
    // lands on the turn boundary. Spurious, not missed.
    return std::min(inner_.earliestPick(turn_view), next_turn);
}

FixedServiceScheduler::FixedServiceScheduler(const FsConfig &cfg)
    : cfg_(cfg), nextService_(cfg.numCores, 0)
{
    camo_assert(cfg_.servicePeriod >= 1, "FS period must be >= 1");
    camo_assert(cfg_.numCores >= 1, "FS needs at least one core");
}

std::uint64_t
FixedServiceScheduler::nextSlot(CoreId core) const
{
    camo_assert(core < nextService_.size(), "FS core out of range");
    return nextService_[core];
}

bool
FixedServiceScheduler::coreDue(CoreId core, std::uint64_t now) const
{
    if (core == kNoCore)
        return true; // coreless traffic is unregulated (e.g. scrub)
    camo_assert(core < nextService_.size(), "FS core out of range");
    return now >= nextService_[core];
}

bool
FixedServiceScheduler::pick(const SchedView &view, Decision &out)
{
    // Only cores whose constant-rate slot has arrived may be served.
    SchedView due_view;
    due_view.now = view.now;
    due_view.device = view.device;
    due_view.isWritePool = view.isWritePool;
    std::vector<std::size_t> original_index;
    for (std::size_t i = 0; i < view.pool.size(); ++i) {
        if (coreDue(view.pool[i]->req.core, view.now)) {
            due_view.pool.push_back(view.pool[i]);
            original_index.push_back(i);
        }
    }
    due_view.boostedCount = 0; // FS has no priority classes

    Decision inner_out;
    if (!inner_.pick(due_view, inner_out))
        return false;
    out = {inner_out.kind, original_index[inner_out.txnIndex]};
    return true;
}

std::uint64_t
FixedServiceScheduler::earliestPick(const SchedView &view) const
{
    // Cores already due stay due (nextService_ only advances when a
    // CAS issues, which re-derives the bound); cores not yet due
    // become candidates exactly at their constant-rate slot.
    SchedView due_view;
    due_view.now = view.now;
    due_view.device = view.device;
    due_view.isWritePool = view.isWritePool;
    std::uint64_t at = dram::DramDevice::kNever;
    for (const Transaction *txn : view.pool) {
        const CoreId core = txn->req.core;
        if (coreDue(core, view.now))
            due_view.pool.push_back(txn);
        else
            at = std::min(at, nextService_[core]);
    }
    if (!due_view.pool.empty())
        at = std::min(at, inner_.earliestPick(due_view));
    return at;
}

void
FixedServiceScheduler::onCasIssued(CoreId core, std::uint64_t now)
{
    if (core == kNoCore || core >= nextService_.size())
        return;
    // The next slot is one full period after the *scheduled* slot so a
    // backlogged core still gets exactly 1/servicePeriod rate.
    const std::uint64_t slot = std::max(nextService_[core], now);
    nextService_[core] = slot + cfg_.servicePeriod;
}

} // namespace camo::mem
