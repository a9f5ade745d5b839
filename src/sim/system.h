/**
 * @file
 * Full-system assembly: cores + caches + Camouflage shapers + shared
 * channels + memory system + DRAM, in the paper's Figure 5 topology.
 *
 * Construction instantiates N cores x M memory channels from a
 * compiled SystemPlan (src/sim/plan.h) and lays them, with the glue
 * stations of src/sim/stations.h, into one ordered ComponentGraph
 * (src/sim/component.h). run() drives that graph on the event kernel:
 * a wake table holds each component's next cycle, seeded from its
 * nextEventCycle() bound; the kernel jumps the clock to the table's
 * minimum, ticks the components due there in topology order, and
 * replays skipped idle accounting lazily and bit-exactly.
 * README.md has the architecture diagram, DESIGN.md §11 the component
 * contract and §13 the event kernel.
 */

#ifndef CAMO_SIM_SYSTEM_H
#define CAMO_SIM_SYSTEM_H

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/cache/hierarchy.h"
#include "src/camouflage/bin_config.h"
#include "src/camouflage/monitor.h"
#include "src/camouflage/request_shaper.h"
#include "src/camouflage/response_shaper.h"
#include "src/common/stats.h"
#include "src/common/types.h"
#include "src/core/core.h"
#include "src/hard/checkers.h"
#include "src/hard/fault_injection.h"
#include "src/hard/watchdog.h"
#include "src/mem/memory_system.h"
#include "src/noc/channel.h"
#include "src/obs/interval.h"
#include "src/obs/json.h"
#include "src/obs/leakmon.h"
#include "src/obs/prof.h"
#include "src/obs/registry.h"
#include "src/obs/tracer.h"
#include "src/security/covert_receiver.h"
#include "src/sim/component.h"

namespace camo::sim {

/** The protection scheme deployed on the system. */
enum class Mitigation
{
    None,  ///< unprotected FR-FCFS baseline
    CS,    ///< constant-rate request shaping (Ascend / Fletcher'14)
    ReqC,  ///< Request Camouflage
    RespC, ///< Response Camouflage
    BDC,   ///< Bi-directional Camouflage
    TP,    ///< Temporal Partitioning [Wang'14]
    FS,    ///< Fixed Service + bank partitioning [Shafiee'15]
};

const char *mitigationName(Mitigation m);

/** Whole-system configuration. Defaults reproduce Table II. */
struct SystemConfig
{
    std::uint32_t numCores = 4;
    core::CoreConfig core;
    cache::HierarchyConfig cache;
    mem::ControllerConfig mc;
    noc::ChannelConfig noc;

    Mitigation mitigation = Mitigation::None;
    shaper::BinConfig reqBins = shaper::BinConfig::desired();
    shaper::BinConfig respBins = shaper::BinConfig::desired();
    /** Per-core overrides (empty = every core uses reqBins/respBins).
     *  The online GA produces per-core configurations. */
    std::vector<shaper::BinConfig> reqBinsPerCore;
    std::vector<shaper::BinConfig> respBinsPerCore;
    /** CS baseline: one request per this many cycles. */
    Cycle csInterval = 90;
    bool fakeTraffic = true;
    /** SIV-B4 hardening: random slack within each credit interval. */
    bool randomizeTiming = false;
    /** Extension: sequential fake addresses (row-hit-like fakes). */
    bool fakeSequential = false;
    /** Extension: fraction of fakes issued as posted writes. */
    double fakeWriteFrac = 0.0;
    /**
     * Which cores get shapers under ReqC/RespC/BDC/CS (empty = all).
     * Fig. 10 shapes only the ADVERSARY's responses, for example.
     */
    std::vector<bool> shapeCore;

    std::uint64_t seed = 1;
    bool recordLatencies = false; ///< per-core latency logs
    bool recordTraffic = false;   ///< full traffic event logs

    /**
     * Event-driven execution in run(): the kernel ticks components
     * only at the cycles in their wake-table entries and jumps the
     * clock directly between them, batch-applying the per-cycle
     * accounting the skipped ticks would have produced. Bit-exact
     * with the per-cycle reference loop (tests pin this); disable to
     * force the plain validation loop when debugging.
     */
    bool fastForward = true;
};

/**
 * A complete machine description: the one artifact a run needs.
 * Loadable from JSON (src/sim/topology.h, camosim --config=FILE).
 */
struct TopologyConfig
{
    SystemConfig system;
    /** One workload name per core (see trace::compileWorkload). */
    std::vector<std::string> workloads;
};

class SystemPlan;
struct PerCore;
struct Pipeline;

/**
 * Per-run knobs of SystemPlan::instantiate(). Everything the sweep
 * and GA loops vary between runs of one plan; unset fields keep the
 * plan's values.
 */
struct PlanOverrides
{
    /** Replaces SystemConfig::seed (sweep repetitions, GA children). */
    std::optional<std::uint64_t> seed;
    /** Replace the per-core shaper configurations (GA candidates).
     *  Size must be numCores or empty. */
    std::optional<std::vector<shaper::BinConfig>> reqBinsPerCore;
    std::optional<std::vector<shaper::BinConfig>> respBinsPerCore;
};

/** The structural checks SystemPlan and System (after applying
 *  PlanOverrides) run: core count (1..kMaxCores), channel count
 *  (1..kMaxChannels), per-core vector sizes.
 *  @throws hard::ConfigError */
void validateSystemConfig(const SystemConfig &cfg,
                          std::size_t num_workloads);

/** The simulated machine. */
class System final : public WakeSink
{
  public:
    /**
     * Build the machine a compiled plan (src/sim/plan.h) describes,
     * with `overrides` applied. The plan may be a temporary: the
     * System shares the compiled workloads it needs.
     * @throws hard::ConfigError when an override is malformed.
     */
    explicit System(const SystemPlan &plan,
                    const PlanOverrides &overrides = {});
    ~System();

    System(const System &) = delete;
    System &operator=(const System &) = delete;

    /** Advance `cycles` CPU cycles on the event-driven kernel (or,
     *  with cfg.fastForward off, the per-cycle reference oracle: one
     *  full iteration over the graph per cycle, which the kernel is
     *  bit-exact with). */
    void run(Cycle cycles);

    // ----- WakeSink (the event kernel's scheduling funnel) ---------

    /**
     * Schedule component `id` (graph index) to run no later than
     * `at` (a min-merge into the wake table). Called by components
     * and subscribed wires; resolves in-flight cycles with the same
     * visibility order the topology-ordered tick loop has: a wake at
     * or before the cycle being processed runs this cycle when `id`
     * comes later in the order, and next cycle when it comes
     * earlier. The component being ticked ignores its own such wake,
     * since its bound re-arms it after the tick. No-op outside an
     * event-driven run.
     */
    void wakeAt(std::uint32_t id, Cycle at) override;
    void catchUp(std::uint32_t id, Cycle through) override;
    void catchUpAhead(std::uint32_t id, Cycle through) override;

    Cycle now() const { return now_; }
    std::uint32_t numCores() const
    {
        return static_cast<std::uint32_t>(cores_.size());
    }

    /**
     * The ordered component graph the tick loop iterates. Exposed so
     * callers can inspect the topology or append components via
     * addComponent().
     */
    const ComponentGraph &graph() const { return graph_; }

    /**
     * Register an extra component at the end of the tick order. It
     * immediately participates in ticking, fast-forward bounds,
     * idle-cycle batching, epoch reset, stat registration, and tracer
     * attachment — no other wiring required.
     */
    Component &addComponent(std::unique_ptr<Component> component);

    const core::Core &coreAt(std::uint32_t i) const;
    core::Core &coreAt(std::uint32_t i);
    /** The (possibly multi-channel) memory system. */
    mem::MemorySystem &memory() { return *mem_; }
    const mem::MemorySystem &memory() const { return *mem_; }

    /** nullptr when the mitigation gives this core no such shaper. */
    shaper::RequestShaper *requestShaper(std::uint32_t i);
    shaper::ResponseShaper *responseShaper(std::uint32_t i);

    /** Intrinsic LLC-miss traffic monitor (always present). */
    const shaper::DistributionMonitor &
    intrinsicMonitor(std::uint32_t i) const;
    /** What actually went onto the shared request channel. */
    const shaper::DistributionMonitor &busMonitor(std::uint32_t i) const;
    /** Responses as delivered to the core (post everything). */
    const shaper::DistributionMonitor &
    responseMonitor(std::uint32_t i) const;

    /** Per-core latency log (needs cfg.recordLatencies). */
    const std::vector<security::LatencySample> &
    latencyLog(std::uint32_t i) const;

    /** Real read responses delivered to core `i` since epoch start. */
    std::uint64_t servedReads(std::uint32_t i) const;
    /** Mean end-to-end read latency since epoch start. */
    double avgReadLatency(std::uint32_t i) const;
    /** Zero per-epoch counters on cores and service counters. */
    void clearEpochCounters();

    /** GA hook: swap every core's shaper configuration at run time. */
    void reconfigureShapers(const shaper::BinConfig &req_bins,
                            const shaper::BinConfig &resp_bins);

    /** GA hook: per-core reconfiguration (the paper's GA "optimizes
     *  all bins from all programs simultaneously", SIV-C). */
    void reconfigureShaper(std::uint32_t core,
                           const shaper::BinConfig &req_bins,
                           const shaper::BinConfig &resp_bins);

    /** GA hook: toggle fake generation on every shaper at run time. */
    void setFakeTraffic(bool on);

    const SystemConfig &config() const { return cfg_; }
    const StatGroup &stats() const { return stats_; }

    /**
     * The system-wide event tracer. Constructed disabled (near-zero
     * cost); callers enable it and attach a sink to record:
     *   sys.tracer().setSink(...); sys.tracer().setEnabled(true);
     */
    obs::Tracer &tracer() { return *tracer_; }
    const obs::Tracer &tracer() const { return *tracer_; }

    /**
     * Register every component's stat group under a dotted path:
     * core{i}, core{i}.cache, shaper.req.core{i} (+.bins),
     * shaper.resp.core{i} (+.bins), noc.req, noc.resp, mc.ch{c},
     * mc.ch{c}.dram, system. The registry borrows the groups; it must
     * not outlive this System.
     */
    void registerStats(obs::StatRegistry &reg) const;

    /**
     * Attach a host-time profiler (borrowed; nullptr detaches; must
     * outlive the runs it observes). The loop hooks then time every
     * kernel phase into its node tree: per-component tick,
     * per-component idle-skip, and watchdog polls. Profiled runs stay
     * bit-exact with unprofiled ones; the cost when detached is a
     * single pointer test per phase.
     */
    void setProfiler(obs::Profiler *prof);

    /**
     * Arm the online leakage monitor over cfg.core's intrinsic and
     * request-channel streams (turns on event logging for both). A
     * station.leakmon joins the graph and re-evaluates the sliding MI
     * window every cfg.checkPeriod cycles; on a sustained threshold
     * breach the run throws hard::LeakageAlert with a JSON
     * diagnostic (camosim exit code 6). Enable *before*
     * enableIntervalStats() to get the "leakmon.window_mi_bits"
     * interval column.
     */
    void enableLeakMonitor(const obs::LeakMonitorConfig &cfg);
    /** nullptr until enableLeakMonitor() is called. */
    obs::LeakMonitor *leakMonitor() { return leakmon_.get(); }
    const obs::LeakMonitor *leakMonitor() const
    {
        return leakmon_.get();
    }

    /** Start interval metrics: one snapshot row every `period`
     *  cycles (queue depths, per-core IPC, real/fake bus traffic,
     *  shaper credit occupancy). */
    void enableIntervalStats(Cycle period);
    /** nullptr until enableIntervalStats() is called. */
    const obs::IntervalCollector *intervalStats() const;

    // ----- Hardening layer (fail-secure operation) -----------------

    /**
     * Arm the runtime invariant checkers. Observe-only on the happy
     * path: with injection disabled, a run with checkers enabled is
     * bit-exact with one without (tests pin this). Protocol checkers
     * attach to every DRAM channel; shaper contracts are captured
     * from the shapers' current configurations (and re-captured on
     * degradeShaper()).
     */
    void enableCheckers(const hard::CheckerConfig &cfg);
    /** nullptr until enableCheckers() is called. */
    hard::CheckerSet *checkers() { return checkers_.get(); }
    const hard::CheckerSet *checkers() const { return checkers_.get(); }

    /** Attach a fault injector (borrowed; nullptr detaches); the
     *  stations consult it at their hook points.
     *  @throws hard::ConfigError if a fault's core= is not a core of
     *  this machine (the fault could never fire). */
    void setFaultInjector(hard::FaultInjector *injector);

    /** Arm the forward-progress watchdog; run() polls it and throws
     *  WatchdogTimeout (with a diagnostic dump) when it fires. */
    void enableWatchdog(const hard::WatchdogConfig &cfg);

    /** Stream receiving diagnostic dumps when a checker or the
     *  watchdog fires (default stderr; nullptr silences them). */
    void setDiagnosticStream(std::ostream *os) { diagStream_ = os; }

    /**
     * Directory receiving diagnostic dump *files*. When set, each
     * firing writes its JSON dump to a uniquely-named file
     * (camo-diag-p<pid>-i<instance>-<seq>-<tag>.json; the instance id
     * is process-unique per System, so concurrent Systems in one
     * process never overwrite each other's dumps) instead of the
     * diagnostic stream, and the thrown error's dumpPath() names the
     * file. Empty (the default) keeps the stream behaviour. The
     * directory is created if missing; if it cannot be created,
     * dumps fall back to the stream.
     */
    void setDiagnosticDir(const std::string &dir);
    const std::string &diagnosticDir() const { return diagDir_; }

    /**
     * Structured diagnostic snapshot: reason, cycle, per-queue
     * occupancy, the full stats tree, and the trace tail (when the
     * tracer is enabled).
     */
    obs::json::Value diagnosticJson(const std::string &reason) const;

    /**
     * Fail-secure degradation: swap core `i`'s shapers to the
     * most-conservative constant-rate schedule derived from their
     * current configuration (BinConfig::failSecure). Stall-only —
     * fake generation is never suppressed, so degradation can only
     * reduce what the schedule reveals, never widen it. Idempotent.
     */
    void degradeShaper(std::uint32_t i);
    bool shaperDegraded(std::uint32_t i) const;

    /**
     * End-of-run lifecycle audit: throws InvariantViolation listing
     * the leaked (issued, never retired) requests older than
     * CheckerConfig::leakAge. No-op when the lifecycle checker is
     * off.
     */
    void checkForLeaks() const;

  private:
    void buildTopology(const SystemPlan &plan);
    /** run() body (run() adds the profiler's root scope). */
    void runLoop(Cycle cycles);
    /** Tick graph component `i` at `cycle`; with `rearm` (the
     *  kernel) also return its re-arm bound nextEventCycle(cycle + 1),
     *  else kNoCycle (the oracle). When a profiler is attached, tick
     *  and bound are one span under tick/<name>, less the catch-ups
     *  of other components it makes (those count under skip/). */
    Cycle tickComponent(std::size_t i, Cycle cycle, bool rearm);
    /** Extend the cached per-component profiler node ids. */
    void syncProfiler();
    void onLeakageAlert(const std::string &msg);

    // ----- event kernel internals ----------------------------------

    /** (Re)attach every component to the kernel and seed the wake
     *  table from the components' nextEventCycle() bounds. Called at
     *  every event-driven run() entry, so inter-run mutation (oracle
     *  runs, GA reconfiguration, added components, injected state)
     *  needs no incremental bookkeeping. */
    void rebuildWakes();
    /** Process every component due at `cycle` in topology order. */
    void processCycle(Cycle cycle);
    /** Min-merge: component `id` runs no later than `at`. */
    void
    arm(std::size_t id, Cycle at)
    {
        if (at < wake_[id])
            wake_[id] = at;
    }
    /** Bring the machine to the exact state the per-cycle loop would
     *  show at the current point (used before diagnostic dumps). */
    void syncForDiagnostic();

    // Hardening internals.
    void onShaperViolation(std::uint32_t core, const std::string &msg);
    /** Poll the watchdog at now_ with the graph's bound fold; both
     *  loops call it at every cycle watchdog_->due() accepts. */
    void pollWatchdog();
    /** Contract core `i`'s shapers to their current configurations. */
    void setContracts(std::uint32_t i);

    SystemConfig cfg_;
    Cycle now_ = 0;

    std::vector<std::unique_ptr<PerCore>> cores_;
    std::unique_ptr<noc::SharedChannel> reqChannel_;
    std::unique_ptr<noc::SharedChannel> respChannel_;
    std::unique_ptr<mem::MemorySystem> mem_;
    /** What the glue stations share (src/sim/stations.h). */
    std::unique_ptr<Pipeline> pipe_;
    /** Tick-ordered graph over the subsystems + stations above. */
    ComponentGraph graph_;
    StatGroup stats_;
    std::unique_ptr<obs::Tracer> tracer_;
    std::unique_ptr<obs::LeakMonitor> leakmon_;

    // Host-time profiler (borrowed) + cached node ids, one per
    // graph component, extended lazily as the graph grows.
    obs::Profiler *prof_ = nullptr;
    obs::Profiler::NodeId profTickNode_ = obs::Profiler::kNoNode;
    obs::Profiler::NodeId profSkipNode_ = obs::Profiler::kNoNode;
    obs::Profiler::NodeId profWatchdogNode_ = obs::Profiler::kNoNode;
    std::vector<obs::Profiler::NodeId> profTickIds_;
    std::vector<obs::Profiler::NodeId> profSkipIds_;
    /** Every skip/ nanosecond added so far; tickComponent subtracts
     *  the part recorded during its span. */
    std::uint64_t profSkipNs_ = 0;

    // ----- event kernel state --------------------------------------
    // Valid between rebuildWakes() (event-driven run() entry) and
    // run() exit; oracle runs bypass it and the next run() rebuilds.

    /** Wake table: the cycle component i next runs, kNoCycle while
     *  it sleeps. Indexed by graph id, so a scan in ascending id is a
     *  scan in topology order. */
    std::vector<Cycle> wake_;
    /** Cycle through which component i is fully accounted (ticked or
     *  idle-skipped). Lazy: non-due components fall behind and are
     *  caught up in one skipIdleCycles() batch on demand. */
    std::vector<Cycle> lastSync_;
    bool kernelActive_ = false; ///< inside an event-driven run()
    bool inCycle_ = false;      ///< inside processCycle() (at now_)
    std::size_t procIdx_ = 0;   ///< graph index being ticked

    /**
     * Write the diagnostic dump for `tag` and return where it went:
     * a uniquely-named file under diagDir_ (its path is returned for
     * the error's dumpPath()) or the diagnostic stream (empty
     * return). Never throws — a failing dump must not mask the error
     * being raised.
     */
    std::string emitDiagnostic(const std::string &tag,
                               const std::string &dump) const;

    std::unique_ptr<hard::CheckerSet> checkers_;
    std::unique_ptr<hard::Watchdog> watchdog_;
    std::ostream *diagStream_; ///< defaults to &std::cerr (ctor)
    std::string diagDir_;      ///< empty = dump to diagStream_
    const std::uint64_t diagInstance_; ///< process-unique System id
    mutable std::uint64_t diagSeq_ = 0; ///< per-instance dump counter
};

} // namespace camo::sim

#endif // CAMO_SIM_SYSTEM_H
