/**
 * @file
 * Runtime invariant checkers for the System tick path.
 *
 * Three independent layers, all observe-only on the happy path (they
 * read component state, never mutate it, so enabling them keeps runs
 * bit-exact):
 *
 *  - DramProtocolChecker re-derives the DRAM timing rules (bank
 *    open/close state, tRCD, tRP, tRAS/tRC, tRRD, tFAW) from its own
 *    mirror of bank state and throws InvariantViolation on any
 *    command the protocol forbids — independently of the device's
 *    bookkeeping, so a device-model bug is caught too.
 *
 *  - RequestLifecycleTracker enforces issued-exactly-once-retired for
 *    real read requests, and reports leaked (never-retired) requests
 *    on drain.
 *
 *  - ShaperConservationChecker enforces the shaper contract at the
 *    shared-channel boundary: nothing reaches the bus without passing
 *    the shaper, live credits never exceed the programmed amounts,
 *    fakes appear only while fake generation is enabled, shaped
 *    inter-arrivals land in a credited bin, and the per-period
 *    release count respects the credit budget.
 *
 * Violations return a description string (conservation) or throw
 * (protocol); the System decides throw-vs-degrade policy per
 * CheckerConfig::recoverShaper.
 */

#ifndef CAMO_HARD_CHECKERS_H
#define CAMO_HARD_CHECKERS_H

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/common/stats.h"
#include "src/common/types.h"
#include "src/dram/device.h"
#include "src/dram/timing.h"

namespace camo::hard {

/** Which checkers run, and what happens when the shaper trips one. */
struct CheckerConfig
{
    bool protocol = true;     ///< DRAM timing-protocol checker
    bool lifecycle = true;    ///< request issued-once-retired tracker
    bool conservation = true; ///< shaper credit/schedule conservation
    /**
     * Shaper-violation policy: false = throw InvariantViolation
     * (fail-stop); true = degrade the offending core's shapers to the
     * fail-secure constant-rate schedule and continue (fail-stall).
     */
    bool recoverShaper = false;
    /** A tracked request older than this at drain time is a leak. */
    Cycle leakAge = 100000;
};

/** Independent re-derivation of the DRAM command protocol. */
class DramProtocolChecker : public dram::CommandObserver
{
  public:
    DramProtocolChecker(const dram::DramOrganization &org,
                        const dram::DramTiming &timing);

    /** Throws InvariantViolation on any protocol breach. */
    void onCommand(dram::Cmd cmd, const dram::DramAddress &da,
                   std::uint64_t now) override;

    std::uint64_t commandsChecked() const { return checked_; }

  private:
    struct Bank
    {
        bool open = false;
        std::uint32_t openRow = 0;
        std::uint64_t actAt = 0;   ///< cycle of the opening ACT
        std::uint64_t nextAct = 0; ///< earliest legal ACT (tRC/tRP)
    };

    struct Rank
    {
        std::vector<Bank> banks;
        std::vector<std::uint64_t> actTimes; ///< tFAW/tRRD window
    };

    [[noreturn]] void fail(dram::Cmd cmd, const dram::DramAddress &da,
                           std::uint64_t now,
                           const std::string &why) const;

    dram::DramTiming timing_;
    std::vector<Rank> ranks_;
    std::uint64_t checked_ = 0;
};

/** A request that was issued but never retired. */
struct LeakedRequest
{
    ReqId id = 0;
    CoreId core = kNoCore;
    Cycle issuedAt = 0;
};

/** Issued-exactly-once-retired accounting for real read requests. */
class RequestLifecycleTracker
{
  public:
    /** A real read request entered the shared request channel.
     *  Throws InvariantViolation if the id is already in flight. */
    void onIssue(ReqId id, CoreId core, Cycle now);

    /** A real read response reached delivery. Throws
     *  InvariantViolation if the id was never issued (or was already
     *  retired — a duplicate response). */
    void onRetire(ReqId id, CoreId core, Cycle now);

    std::size_t inFlight() const { return inflight_.size(); }
    std::uint64_t issued() const { return issued_; }
    std::uint64_t retired() const { return retired_; }

    /** In-flight requests older than `min_age` at cycle `now`. */
    std::vector<LeakedRequest> leaked(Cycle now, Cycle min_age) const;

  private:
    struct Entry
    {
        CoreId core = kNoCore;
        Cycle issuedAt = 0;
    };

    std::unordered_map<ReqId, Entry> inflight_;
    std::uint64_t issued_ = 0;
    std::uint64_t retired_ = 0;
};

/** The schedule a shaper is supposed to enforce (a BinConfig's
 *  payload, kept as raw vectors so camo_hard does not depend on
 *  camo_shaper). */
struct ShaperContract
{
    std::vector<Cycle> edges;
    std::vector<std::uint32_t> credits;
    Cycle replenishPeriod = 0;

    std::uint64_t totalCredits() const;
};

/**
 * Conservation checks at one shared-channel boundary (request or
 * response side). Check methods return an empty string when the
 * invariant holds or the core has no contract, else a one-line
 * violation description — the caller picks throw vs degrade.
 */
class ShaperConservationChecker
{
  public:
    /** (Re)program the contract the core's shaper should enforce. */
    void setContract(CoreId core, const ShaperContract &contract);

    /** The shaper released a transaction this cycle. */
    void onShaperRelease(CoreId core, Cycle now);

    /**
     * A transaction for `core` reached the shared channel. Checks
     * shaper bypass (more bus pushes than shaper releases), fakes
     * while disabled, bin membership of the inter-arrival gap, and
     * the per-period budget.
     */
    std::string onBusPush(CoreId core, Cycle now, bool is_fake,
                          bool fakes_enabled);

    /** Live credit registers must never exceed the programmed
     *  amounts. */
    std::string onCreditState(CoreId core,
                              const std::vector<std::uint32_t> &live);

    std::uint64_t releasesSeen(CoreId core) const;

  private:
    struct PerCore
    {
        ShaperContract contract;
        Cycle lastPush = kNoCycle;
        std::uint64_t releases = 0;
        std::uint64_t pushes = 0;
        Cycle windowStart = 0;
        std::uint64_t windowCount = 0;
    };

    std::unordered_map<CoreId, PerCore> cores_;
};

/** The full checker bundle a System owns when hardening is on. */
class CheckerSet
{
  public:
    explicit CheckerSet(const CheckerConfig &cfg);

    const CheckerConfig &config() const { return cfg_; }

    /** Create (and own) one protocol checker per DRAM channel. */
    DramProtocolChecker *
    addProtocolChecker(const dram::DramOrganization &org,
                       const dram::DramTiming &timing);

    RequestLifecycleTracker &lifecycle() { return lifecycle_; }
    const RequestLifecycleTracker &lifecycle() const
    {
        return lifecycle_;
    }

    ShaperConservationChecker &reqConservation()
    {
        return reqConservation_;
    }
    ShaperConservationChecker &respConservation()
    {
        return respConservation_;
    }

    StatGroup &stats() { return stats_; }
    const StatGroup &stats() const { return stats_; }

  private:
    CheckerConfig cfg_;
    std::vector<std::unique_ptr<DramProtocolChecker>> protocol_;
    RequestLifecycleTracker lifecycle_;
    ShaperConservationChecker reqConservation_;
    ShaperConservationChecker respConservation_;
    StatGroup stats_;
};

} // namespace camo::hard

#endif // CAMO_HARD_CHECKERS_H
