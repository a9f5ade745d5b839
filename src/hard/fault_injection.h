/**
 * @file
 * Seed-deterministic fault-injection engine.
 *
 * A FaultPlan is parsed from a compact spec string (camosim --inject)
 * and drives a FaultInjector the System consults at its hook points:
 * response routing (drop / delay / duplicate), shaper credit state
 * (corrupt / starve), the hypervisor ConfigPort (malformed register
 * image), the request path (shaper wedge, shaper bypass, forced
 * fake), and the parallel engine (worker kill / stall).
 *
 * Determinism: stochastic draws happen only on the simulation thread
 * (one seeded Rng, consulted in tick order); worker-fault decisions
 * are pure functions of (job index, attempt), never of thread
 * scheduling. Counters are atomics so the summary is exact even when
 * worker faults fire concurrently.
 */

#ifndef CAMO_HARD_FAULT_INJECTION_H
#define CAMO_HARD_FAULT_INJECTION_H

#include <array>
#include <atomic>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/common/types.h"
#include "src/mem/request.h"

namespace camo::hard {

/** Every fault the engine can inject. */
enum class FaultKind
{
    DropResponse,      ///< a DRAM read response vanishes
    DelayResponse,     ///< a response is held for `param` cycles
    DuplicateResponse, ///< a response is delivered twice
    CorruptCredits,    ///< shaper live credits overwritten with garbage
    StarveCredits,     ///< credits zeroed and replenishment stuck
    MalformedConfig,   ///< corrupted register image via ConfigPort
    WedgeReqShaper,    ///< request shaper stops being ticked
    WedgeRespShaper,   ///< response shaper stops being ticked
    LeakRequest,       ///< a real request bypasses the shaper
    ForceFake,         ///< a fake issued outside the shaper's schedule
    WorkerKill,        ///< a parallel job dies with a transient fault
    WorkerStall,       ///< a parallel job stalls mid-run
};

inline constexpr std::size_t kNumFaultKinds = 12;

/** Stable spec-string token for each kind (e.g. "drop-resp"). */
const char *faultKindName(FaultKind kind);

/** Matches any job index / core in a FaultSpec. */
inline constexpr std::uint64_t kAnyIndex =
    std::numeric_limits<std::uint64_t>::max();

/** One configured fault. */
struct FaultSpec
{
    FaultKind kind = FaultKind::DropResponse;
    /** Stochastic faults: per-opportunity probability (0 = off). */
    double rate = 0.0;
    /**
     * Scheduled faults: first cycle at which the fault is armed
     * (kNoCycle = unscheduled). One-shot kinds fire once at the first
     * opportunity >= `at`; wedge kinds are persistent from `at` on.
     */
    Cycle at = kNoCycle;
    /** Restrict to one core (kNoCore = any). */
    CoreId core = kNoCore;
    /**
     * Kind-specific magnitude: DelayResponse hold cycles (default
     * 5000), WorkerKill failing attempts (default 1), WorkerStall
     * sleep in milliseconds (default 20).
     */
    std::uint64_t param = 0;
    /** Worker faults: job index to hit (kAnyIndex = every job). */
    std::uint64_t index = kAnyIndex;
};

/** A full injection campaign: seed + fault list. */
struct FaultPlan
{
    std::uint64_t seed = 1;
    std::vector<FaultSpec> faults;

    bool empty() const { return faults.empty(); }

    /**
     * Parse a spec string: comma-separated faults, each a kind token
     * followed by colon-separated key=value fields, e.g.
     *   "drop-resp:rate=0.001,corrupt-credits:at=80000:core=0"
     * Keys: rate, at, core, param, index. Throws ConfigError on any
     * unknown kind/key or malformed value.
     */
    static FaultPlan parse(const std::string &spec, std::uint64_t seed);
};

/** Runtime fault decisions, consulted at the System's hook points. */
class FaultInjector
{
  public:
    explicit FaultInjector(const FaultPlan &plan);

    /** What to do with a response leaving the memory controller. */
    enum class RespAction
    {
        Pass,
        Drop,
        Delay,     ///< hold for *delay cycles
        Duplicate, ///< deliver twice
    };

    /** Simulation-thread hook: response routing. */
    RespAction onResponse(Cycle now, const MemRequest &resp,
                          Cycle *delay);

    /** Persistent from their scheduled cycle on. */
    bool reqShaperWedged(CoreId core, Cycle now) const;
    bool respShaperWedged(CoreId core, Cycle now) const;

    /** One-shot triggers (latched after the first true return). */
    bool corruptCreditsDue(CoreId core, Cycle now);
    bool starveCreditsDue(CoreId core, Cycle now);
    bool malformedConfigDue(CoreId core, Cycle now);
    bool leakRequestDue(CoreId core, Cycle now);
    bool forceFakeDue(CoreId core, Cycle now);

    /**
     * Worker-thread hook, called at the top of every parallel job
     * attempt. Deterministic in (index, attempt). WorkerKill throws
     * TransientFault while attempt < param; WorkerStall sleeps
     * `param` milliseconds and returns.
     */
    void maybeWorkerFault(std::size_t index, unsigned attempt);

    /**
     * Earliest cycle >= `from` at which a scheduled (at=) fault still
     * needs a tick to arm or fire — one-shots not yet latched, wedges
     * not yet armed. Lets the System's idle fast-forward stop exactly
     * at each fault's programmed cycle. kNoCycle when none remain.
     */
    Cycle nextScheduledCycle(Cycle from) const;

    /** Times each kind actually fired. */
    std::uint64_t count(FaultKind kind) const;
    /** Total faults fired across all kinds. */
    std::uint64_t totalFired() const;
    /** One line per kind that fired (empty string if none did). */
    std::string summary() const;

    const FaultPlan &plan() const { return plan_; }

  private:
    bool wedged(FaultKind kind, CoreId core, Cycle now) const;
    bool oneShotDue(FaultKind kind, CoreId core, Cycle now);
    void fired(FaultKind kind);

    FaultPlan plan_;
    Rng rng_;
    std::vector<bool> latched_; ///< per-spec one-shot latch
    std::array<std::atomic<std::uint64_t>, kNumFaultKinds> counts_;
};

} // namespace camo::hard

#endif // CAMO_HARD_FAULT_INJECTION_H
