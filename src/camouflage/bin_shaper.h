/**
 * @file
 * The bin-based credit engine shared by request and response shapers
 * (paper §III-A1/2).
 *
 * Three registers per bin, as in the paper's hardware sketch:
 * current credits, replenishment amount (in BinConfig), and unused
 * credits latched at each replenishment for fake-traffic generation.
 *
 * Issue rule: a transaction whose inter-arrival gap is Δ may consume a
 * credit from any bin whose interval lower edge is <= Δ ("a bin that
 * represents lower or equal to the memory transaction's inter-arrival
 * time"); we consume from the highest such bin so short-gap credits
 * are preserved for genuinely bursty traffic. If no eligible bin has
 * credits the transaction stalls until Δ grows into a credited bin or
 * credits are replenished.
 */

#ifndef CAMO_CAMOUFLAGE_BIN_SHAPER_H
#define CAMO_CAMOUFLAGE_BIN_SHAPER_H

#include <cstdint>
#include <vector>

#include "src/camouflage/bin_config.h"
#include "src/common/stats.h"
#include "src/common/types.h"
#include "src/obs/tracer.h"

namespace camo::shaper {

/** Credit accounting for one Camouflage hardware unit. */
class BinShaper
{
  public:
    explicit BinShaper(const BinConfig &cfg);

    /** Advance to CPU cycle `now`, applying replenishment boundaries.
     *  Must be called with non-decreasing `now`. */
    void tick(Cycle now);

    /** Could a real transaction issue at `now` (some eligible bin has
     *  a credit for the current gap)? */
    bool canIssueReal(Cycle now) const;

    /**
     * Consume a credit for a real transaction issuing at `now`.
     * @return the bin index charged, or -1 if it must stall.
     */
    int consumeReal(Cycle now);

    /**
     * Consume an unused credit for a fake transaction at `now`.
     * Fake issues only charge the bin exactly matching the current
     * gap, so the generated traffic lands in the intended bins.
     * @return the bin index charged, or -1.
     */
    int consumeFake(Cycle now);

    /** Is a fake issue possible right now? */
    bool canIssueFake(Cycle now) const;

    /** Next replenishment boundary (tick() mutates state there). */
    Cycle nextReplenish() const { return nextReplenish_; }

    /**
     * Earliest cycle >= `from` at which canIssueReal() could hold,
     * assuming no issue or replenishment happens before it (the caller
     * bounds the answer by nextReplenish()). kNoCycle when no bin has
     * credits.
     */
    Cycle nextRealEligible(Cycle from) const;

    /**
     * Earliest cycle >= `from` at which canIssueFake() could hold
     * under the same assumptions. kNoCycle when no unused credit can
     * match any reachable gap.
     */
    Cycle nextFakeEligible(Cycle from) const;

    /** Inter-arrival gap if something issued at `now`. */
    Cycle gapAt(Cycle now) const { return now - lastIssue_; }

    Cycle lastIssue() const { return lastIssue_; }

    /** Sum of unused-credit registers (RespC's warning payload). */
    std::uint32_t unusedTotal() const;

    /** Unused credits latched at the most recent replenishment. */
    const std::vector<std::uint32_t> &unused() const { return unused_; }
    /** Live credit registers. */
    const std::vector<std::uint32_t> &credits() const { return credits_; }

    /** Replace the configuration (GA reconfiguration); resets credit
     *  state at the next replenishment boundary semantics: credits are
     *  reloaded immediately, unused cleared. */
    void reconfigure(const BinConfig &cfg);

    const BinConfig &config() const { return cfg_; }
    std::uint64_t realIssued() const { return realIssued_; }
    std::uint64_t fakeIssued() const { return fakeIssued_; }
    std::uint64_t replenishments() const { return replenishments_; }
    const StatGroup &stats() const { return stats_; }

    /** Live credits summed over all bins (interval bin occupancy). */
    std::uint32_t creditsTotal() const;

    /**
     * Fault-injection hook (hardening layer): overwrite every live
     * credit register with `value`. Models bit-rot in the credit
     * state the conservation checker must catch.
     */
    void injectLiveCredits(std::uint32_t value);

    /**
     * Fault-injection hook: zero all credit state and stick the
     * replenishment counter (models a dead replenishment timer). The
     * shaper can never issue again — the watchdog's job to detect.
     */
    void injectStarvation();

    /** Set by the writes that can break the credit contract
     *  (construction, reconfigure(), the inject hooks; not replenish or
     *  consume); the credit audit clears it once the registers pass. */
    bool auditPending() const { return auditPending_; }
    void setAuditPending(bool on) { auditPending_ = on; }

    /** Observability hook; `core` labels the emitted events. */
    void
    setTracer(obs::Tracer *tracer, CoreId core)
    {
        tracer_ = tracer;
        traceCore_ = core;
    }

  private:
    int eligibleRealBin(Cycle now) const;

    BinConfig cfg_;
    std::vector<std::uint32_t> credits_;
    std::vector<std::uint32_t> unused_;
    Cycle lastIssue_ = 0;
    Cycle nextReplenish_ = 0;
    std::uint64_t realIssued_ = 0;
    std::uint64_t fakeIssued_ = 0;
    std::uint64_t replenishments_ = 0;
    bool auditPending_ = true;
    StatGroup stats_;
    obs::Tracer *tracer_ = nullptr;
    CoreId traceCore_ = kNoCore;
};

} // namespace camo::shaper

#endif // CAMO_CAMOUFLAGE_BIN_SHAPER_H
