/**
 * @file
 * The in-process workloads: paper-busy, idle-probe and ga-offline.
 * Each runs rounds of identical work (the inputs come from --seed
 * alone), checks every round's outputs, and reports over the rounds
 * (reportEndToEnd). A traced run alternates untraced rounds with the
 * same rounds under the profiler, recording spans.
 */

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "perfbench/bench.h"
#include "perfbench/layers.h"
#include "src/ga/genetic.h"
#include "src/security/mutual_information.h"
#include "src/sim/parallel.h"
#include "src/sim/plan.h"
#include "src/sim/presets.h"

namespace perfbench {

using namespace camo;
using sim::Mitigation;

namespace {

// ----- sizes --------------------------------------------------------

/** paper-busy: measured cycles and warm-up of every simulation, the
 *  lengths the Figure 13 benchmark runs (bench/fig13_bdc.cc). */
constexpr Cycle kBusyCycles = 300000;
constexpr Cycle kBusyWarmup = 30000;
/** The shaped core whose MI paper-busy reports (a victim astar). */
constexpr std::uint32_t kMiCore = 1;
/** idle-probe: window of every simulation. */
constexpr Cycle kIdleCycles = 10000000;
/** Per-cycle oracle prefix for the event-kernel cross-check. */
constexpr Cycle kBusyOraclePrefix = 20000;
constexpr Cycle kIdleOraclePrefix = 1000000;
/** ga-offline: generations per search and epoch length. */
constexpr std::size_t kGaGenerations = 4;
constexpr Cycle kGaEpoch = 20000;
/** Rounds every run makes at least. */
constexpr std::size_t kMinRounds = 3;

/** Simulator seed streams, one per workload. */
enum SeedStream : std::uint64_t
{
    kBusyStream = 1,
    kIdleStream = 2,
    kGaStream = 3,
};

const char *const kAdversaries[] = {"mcf", "libqt", "bzip", "apache"};

/** The sparse bins of the idle-probe BDC half (probe every 2000). */
shaper::BinConfig
sparseBins()
{
    shaper::BinConfig b;
    b.edges = {0, 500, 1000, 2000, 4000};
    b.credits = {0, 4, 8, 4, 1};
    b.replenishPeriod = 30000;
    return b;
}

/** One simulation the benchmark owns: its plan, the System, and how
 *  long set-up and the run took. */
struct Sim
{
    std::unique_ptr<sim::SystemPlan> plan;
    std::unique_ptr<sim::System> sys;
    sim::RunMetrics m;
    double setupS = 0.0;
    double runS = 0.0;
};

/** Compile, instantiate and run one simulation, with spans around
 *  each public call and the profiler attached when given. */
Sim
simulate(const sim::SystemConfig &cfg, const std::vector<std::string> &mix,
         Cycle cycles, Cycle warmup, Spans &spans, int parent,
         obs::Profiler *prof)
{
    Sim s;
    const auto t0 = Clock::now();
    {
        SpanScope span(spans, "sim.plan.compile", parent);
        s.plan = std::make_unique<sim::SystemPlan>(cfg, mix);
    }
    {
        SpanScope span(spans, "sim.plan.instantiate", parent);
        s.sys = s.plan->instantiate();
    }
    s.setupS = secondsSince(t0);
    s.sys->setProfiler(prof);
    const std::string run_name =
        cfg.mitigation == Mitigation::None ? "sim.run.none" : "sim.run.bdc";
    const auto t1 = Clock::now();
    {
        SpanScope span(spans, run_name, parent);
        s.m = sim::runAndMeasure(*s.sys, cycles, warmup);
    }
    s.runS = secondsSince(t1);
    return s;
}

/** Event kernel vs the per-cycle oracle over a short prefix. */
void
checkOracle(Report &report, sim::SystemConfig cfg,
            const std::vector<std::string> &mix, Cycle prefix,
            const std::string &label)
{
    cfg.recordTraffic = false;
    try {
        cfg.fastForward = true;
        const std::string fast = metricsText(
            sim::runAndMeasure(*sim::SystemPlan(cfg, mix).instantiate(),
                               prefix, 0));
        cfg.fastForward = false;
        const std::string oracle = metricsText(
            sim::runAndMeasure(*sim::SystemPlan(cfg, mix).instantiate(),
                               prefix, 0));
        report.op(fast == oracle,
                  label + ": event kernel differs from the per-cycle "
                          "oracle over the first " +
                      std::to_string(prefix) + " cycles");
    } catch (const std::exception &e) {
        report.op(false, label + ": oracle check threw: " + e.what());
    }
}

/** Cycles one Sim simulated, warm-up included. */
double
simulated(const Sim &s)
{
    return static_cast<double>(s.sys->now());
}

/** Shared loop of paper-busy and idle-probe: rounds for the time
 *  budget, untraced, or alternating with traced ones. */
template <typename RoundFn>
void
runSingleThread(const Options &opt, Report &report, RoundFn &&round)
{
    Trace untraced(false);
    if (!opt.trace) {
        const std::vector<Round> rounds = roundsFor(
            opt.seconds, kMinRounds, [&] { return round(untraced); });
        // Set-up is too small a part of a round for the rounds fastest
        // by wall to hold the fastest set-ups: taken from them, its
        // median moved 24-40% between sets of runs as the host slowed
        // by 9%. The fastest tenth of every round's sample is kept, as
        // on ga-offline, where it moved 1%.
        std::vector<double> setup;
        for (const Round &r : rounds)
            setup.push_back(r.setupS);
        const std::vector<double> lat = fastestJobLatencies(rounds);
        reportEndToEnd(report, fastestRounds(rounds), lat, lat,
                       fastestShare(std::move(setup)), 0.0);
        return;
    }
    // Traced: untraced rounds, traced rounds and timer calibrations
    // alternate, so host drift hits every side of the ratios alike.
    std::vector<TimerCost> costs;
    Trace trace(true);
    std::vector<Round> plain;
    std::vector<Round> traced;
    const auto t0 = Clock::now();
    while (plain.size() < 2 || secondsSince(t0) < opt.seconds) {
        plain.push_back(round(untraced));
        traced.push_back(round(trace));
        costs.push_back(calibrateTimer());
    }
    const TimerCost cost = medianCost(costs);
    PlainRunNs plain_ns;
    for (const Round &r : plain) {
        plain_ns.none += r.runNoneS * 1e9;
        plain_ns.shaped += (r.runS - r.runNoneS) * 1e9;
    }
    const auto wall = [](const Round &r) { return r.wallS; };
    reportTrace(opt, report, trace, cost, plain_ns,
                medianOf(traced, wall) / medianOf(plain, wall));
}

} // namespace

// ----- paper-busy ---------------------------------------------------

void
runPaperBusy(const Options &opt, Report &report)
{
    sim::SystemConfig base = sim::paperConfig();
    base.seed = simSeed(opt.seed, kBusyStream);
    base.recordTraffic = true; // X and Y of the MI estimate
    sim::SystemConfig bdc = base;
    bdc.mitigation = Mitigation::BDC;
    const Histogram quantizer = security::makeMiQuantizer();
    OutputCheck outputs(opt, "paper-busy");

    for (const char *adv : kAdversaries) {
        const auto mix = sim::adversaryMix(adv, "astar");
        checkOracle(report, base, mix, kBusyOraclePrefix,
                    std::string(adv) + "/none");
        checkOracle(report, bdc, mix, kBusyOraclePrefix,
                    std::string(adv) + "/bdc");
    }

    runSingleThread(opt, report, [&](Trace &trace) {
        Round r;
        const auto t0 = Clock::now();
        const int round_span = trace.spans.begin("round");
        for (const char *adv : kAdversaries) {
            const auto job0 = Clock::now();
            const int op_span =
                trace.spans.begin(std::string("op.") + adv, round_span);
            const auto mix = sim::adversaryMix(adv, "astar");
            std::string why;
            bool ok = true;
            try {
                const Sim none =
                    simulate(base, mix, kBusyCycles, kBusyWarmup, trace.spans,
                             op_span, trace.profFor(Mitigation::None));
                const Sim shaped =
                    simulate(bdc, mix, kBusyCycles, kBusyWarmup, trace.spans,
                             op_span, trace.profFor(Mitigation::BDC));
                const double slowdown = sim::maxSlowdownVs(none.m, shaped.m);
                security::ShapingMiResult mi;
                {
                    SpanScope span(trace.spans, "security.mi", op_span);
                    mi = security::computeShapingMi(
                        none.sys->intrinsicMonitor(kMiCore).events(),
                        shaped.sys->requestShaper(kMiCore)
                            ->postMonitor()
                            .events(),
                        quantizer);
                }
                r.setupS += none.setupS + shaped.setupS;
                r.runS += none.runS + shaped.runS;
                r.runNoneS += none.runS;
                r.simCycles += simulated(none) + simulated(shaped);
                r.sims += 2;
                if (trace.on()) {
                    trace.record(*none.sys, simulated(none));
                    trace.record(*shaped.sys, simulated(shaped));
                }
                const std::string a(adv);
                ok = std::isfinite(slowdown) && slowdown > 0.0 &&
                     std::isfinite(mi.miBits) && mi.pairs > 0;
                if (!ok)
                    why = a + ": slowdown or MI out of range";
                // Every digest is checked (and printed) even after a
                // mismatch, so one run reports all of them.
                const bool none_ok = outputs.check(
                    a + "/none", digest(metricsText(none.m)), &why);
                const bool bdc_ok = outputs.check(
                    a + "/bdc", digest(metricsText(shaped.m)), &why);
                const bool mi_ok = outputs.check(
                    a + "/mi",
                    digest(fullText(mi.miBits) + ";" + fullText(slowdown)),
                    &why);
                ok = ok && none_ok && bdc_ok && mi_ok;
            } catch (const std::exception &e) {
                ok = false;
                why = std::string(adv) + ": " + e.what();
            }
            trace.spans.end(op_span);
            report.op(ok, "paper-busy " + why);
            r.jobLatMs.push_back(secondsSince(job0) * 1e3);
        }
        trace.spans.end(round_span);
        r.wallS = secondsSince(t0);
        return r;
    });
}

// ----- idle-probe ---------------------------------------------------

void
runIdleProbe(const Options &opt, Report &report)
{
    sim::SystemConfig base = sim::paperConfig();
    base.seed = simSeed(opt.seed, kIdleStream);
    base.reqBins = sparseBins();
    base.respBins = sparseBins();
    sim::SystemConfig bdc = base;
    bdc.mitigation = Mitigation::BDC;
    const std::vector<std::string> mix(4, "probe:2000");
    OutputCheck outputs(opt, "idle-probe");

    checkOracle(report, base, mix, kIdleOraclePrefix, "probe/none");
    checkOracle(report, bdc, mix, kIdleOraclePrefix, "probe/bdc");

    runSingleThread(opt, report, [&](Trace &trace) {
        Round r;
        const auto t0 = Clock::now();
        const int round_span = trace.spans.begin("round");
        std::string why;
        bool ok = true;
        try {
            for (const sim::SystemConfig *cfg : {&base, &bdc}) {
                const Sim s =
                    simulate(*cfg, mix, kIdleCycles, 0, trace.spans,
                             round_span, trace.profFor(cfg->mitigation));
                r.setupS += s.setupS;
                r.runS += s.runS;
                if (cfg->mitigation == Mitigation::None)
                    r.runNoneS += s.runS;
                r.simCycles += simulated(s);
                r.sims += 1;
                if (trace.on())
                    trace.record(*s.sys, simulated(s));
                const std::string key =
                    cfg->mitigation == Mitigation::None ? "probe/none"
                                                        : "probe/bdc";
                const bool pinned =
                    outputs.check(key, digest(metricsText(s.m)), &why);
                ok = ok && s.m.throughput() > 0.0 && pinned;
            }
        } catch (const std::exception &e) {
            ok = false;
            why = e.what();
        }
        trace.spans.end(round_span);
        report.op(ok, "idle-probe " + why);
        r.wallS = secondsSince(t0);
        r.jobLatMs.push_back(r.wallS * 1e3);
        return r;
    });
}

// ----- ga-offline ---------------------------------------------------

namespace {

/** The alone-rate configuration runOfflineGa measures with: open
 *  bins, no fakes. */
sim::SystemConfig
aloneConfig(sim::SystemConfig cfg)
{
    shaper::BinConfig open = cfg.reqBins;
    for (auto &c : open.credits)
        c = shaper::kMaxCreditsPerBin;
    cfg.reqBins = open;
    cfg.respBins = open;
    cfg.fakeTraffic = false;
    return cfg;
}

/** The per-child overrides evaluateGaChild instantiates with. */
sim::PlanOverrides
childOverrides(const sim::SystemConfig &cfg, const ga::Genome &genome,
               std::uint64_t generation, std::size_t child)
{
    sim::PlanOverrides ov;
    ov.seed = sim::deriveSeed(cfg.seed, generation + 1, child);
    ov.reqBinsPerCore.emplace();
    ov.respBinsPerCore.emplace();
    for (std::uint32_t c = 0; c < cfg.numCores; ++c) {
        ov.reqBinsPerCore->push_back(sim::gaReqBinsOf(cfg, genome, c));
        ov.respBinsPerCore->push_back(sim::gaRespBinsOf(cfg, genome, c));
    }
    return ov;
}

/** Generation-0 population of a search over `cfg`. */
std::vector<ga::Genome>
population(const sim::SystemConfig &cfg, const ga::GaConfig &ga_cfg)
{
    const std::size_t bins = cfg.reqBins.numBins();
    ga::GaConfig seg = ga_cfg;
    seg.budgetSegmentLen = bins;
    ga::GeneticOptimizer optimizer(seg, cfg.numCores * 2 * bins,
                                   cfg.seed + 17);
    return optimizer.population();
}

std::string
gaText(const sim::OnlineGaResult &res)
{
    std::string t = "best=" + fullText(res.bestFitness) + ";gens=";
    for (const double g : res.generationBest)
        t += fullText(g) + ",";
    auto bins = [&](const char *tag, const shaper::BinConfig &b) {
        t += std::string(";") + tag + "=";
        for (const auto e : b.edges)
            t += std::to_string(e) + ",";
        t += "/";
        for (const auto c : b.credits)
            t += std::to_string(c) + ",";
        t += "/" + std::to_string(b.replenishPeriod);
    };
    for (std::size_t c = 0; c < res.reqBinsPerCore.size(); ++c) {
        bins("req", res.reqBinsPerCore[c]);
        bins("resp", res.respBinsPerCore[c]);
    }
    return t;
}

} // namespace

void
runGaOffline(const Options &opt, Report &report)
{
    sim::SystemConfig cfg = sim::paperConfig();
    cfg.mitigation = Mitigation::BDC;
    cfg.seed = simSeed(opt.seed, kGaStream);
    const auto mix = sim::adversaryMix("mcf", "astar");
    ga::GaConfig ga_cfg;
    ga_cfg.generations = kGaGenerations;
    const unsigned jobs = parallelJobs();
    const std::vector<ga::Genome> pop = population(cfg, ga_cfg);
    const double evals =
        static_cast<double>(ga_cfg.generations * ga_cfg.populationSize);
    OutputCheck outputs(opt, "ga-offline");

    auto search = [&] {
        Round r;
        const auto t0 = Clock::now();
        std::string why;
        bool ok = true;
        try {
            const sim::OnlineGaResult res =
                sim::runOfflineGa(cfg, mix, ga_cfg, kGaEpoch, jobs);
            r.wallS = secondsSince(t0);
            r.simCycles = static_cast<double>(res.configPhaseCycles);
            ok = std::isfinite(res.bestFitness) && res.bestFitness < 0.0 &&
                 res.reqBinsPerCore.size() == cfg.numCores;
            if (!ok)
                why = "best fitness or bins out of range";
            ok = ok && outputs.check("search", digest(gaText(res)), &why);
            // setup_s and the traced re-runs use a copy of the search's
            // set-up (aloneConfig, childOverrides, population); a change
            // in its shape must fail here rather than go unnoticed.
            const bool same_shape =
                res.generationBest.size() == ga_cfg.generations &&
                res.configPhaseCycles ==
                    (cfg.numCores + ga_cfg.generations * pop.size()) *
                        kGaEpoch;
            report.op(same_shape,
                      "ga-offline: runOfflineGa no longer runs "
                      "cores + generations x population epochs; update "
                      "the set-up copy in perfbench/workloads.cc");
        } catch (const std::exception &e) {
            ok = false;
            why = e.what();
            r.wallS = secondsSince(t0);
        }
        report.op(ok, "ga-offline " + why);
        r.runS = r.wallS;
        r.sims = evals;
        r.jobLatMs.push_back(r.wallS * 1e3);
        return r;
    };

    if (!opt.trace) {
        // Set-up as runOfflineGa pays it: both plans plus every
        // instantiate, timed from outside on a copy of its set-up
        // (src/ stays as it is; `search` checks the copy's shape).
        // One single-thread sample before every round, so the samples
        // span the run as the rounds do, and the fastest tenth is kept
        // (see fastestRounds): 15 samples taken back to back fell
        // within one host phase and split 0.0029 / 0.0039 s by run.
        std::vector<double> setup;
        const std::vector<Round> rounds =
            roundsFor(opt.seconds, kMinRounds, [&] {
                const auto t0 = Clock::now();
                const sim::SystemPlan alone(aloneConfig(cfg), mix);
                for (std::uint32_t c = 0; c < cfg.numCores; ++c) {
                    sim::PlanOverrides one;
                    one.seed = sim::deriveSeed(cfg.seed, 0, c);
                    (void)alone.instantiate(one);
                }
                const sim::SystemPlan plan(cfg, mix);
                for (std::size_t g = 0; g < ga_cfg.generations; ++g) {
                    for (std::size_t c = 0; c < pop.size(); ++c)
                        (void)plan.instantiate(
                            childOverrides(cfg, pop[c], g, c));
                }
                setup.push_back(secondsSince(t0));
                return search();
            });
        const std::vector<Round> fastest = fastestRounds(rounds);
        const std::vector<double> lat = jobLatencies(fastest);
        reportEndToEnd(report, fastest, lat, lat,
                       fastestShare(std::move(setup)), 0.0);
        return;
    }

    // Traced: one generation evaluated in parallel and serially (the
    // parallel engine's efficiency), then the same children re-run
    // unprofiled and profiled for the per-layer split.
    std::vector<TimerCost> costs;
    Trace trace(true);
    const sim::SystemPlan alone_plan(aloneConfig(cfg), mix);
    std::vector<double> alone_rate;
    for (std::uint32_t c = 0; c < cfg.numCores; ++c) {
        sim::PlanOverrides one;
        one.seed = sim::deriveSeed(cfg.seed, 0, c);
        const auto sys = alone_plan.instantiate(one);
        sys->memory().setHighestPriorityCore(static_cast<CoreId>(c));
        sys->run(kGaEpoch);
        alone_rate.push_back(static_cast<double>(sys->servedReads(c)) /
                             static_cast<double>(kGaEpoch));
    }
    std::unique_ptr<sim::SystemPlan> plan;
    {
        SpanScope span(trace.spans, "sim.plan.compile");
        plan = std::make_unique<sim::SystemPlan>(cfg, mix);
    }
    std::vector<double> efficiency;
    double plain_ns = 0.0;
    double profiled_ns = 0.0;
    const auto t_start = Clock::now();
    for (std::uint64_t gen = 0;
         gen < 2 || secondsSince(t_start) < opt.seconds; ++gen) {
        const auto tp = Clock::now();
        const std::vector<double> par = sim::evaluateGenerationParallel(
            *plan, pop, gen, alone_rate, kGaEpoch, jobs);
        const double par_s = secondsSince(tp);
        double serial_ns = 0.0;
        for (std::size_t c = 0; c < pop.size(); ++c) {
            const int id = trace.spans.begin("ga.child_eval");
            const double fit = sim::evaluateGaChild(*plan, pop[c], gen, c,
                                                    alone_rate, kGaEpoch);
            trace.spans.end(id);
            serial_ns += trace.spans.durationsNs("ga.child_eval").back();
            report.op(fit == par[c],
                      "ga-offline child " + std::to_string(c) +
                          ": serial fitness differs from parallel");
        }
        efficiency.push_back(serial_ns / (par_s * 1e9 * jobs));
        for (std::size_t c = 0; c < pop.size(); ++c) {
            const sim::PlanOverrides ov = childOverrides(cfg, pop[c], gen, c);
            {
                const auto sys = plan->instantiate(ov);
                const auto t0 = Clock::now();
                sys->run(kGaEpoch);
                plain_ns += secondsSince(t0) * 1e9;
            }
            std::unique_ptr<sim::System> sys;
            {
                SpanScope span(trace.spans, "sim.plan.instantiate");
                sys = plan->instantiate(ov);
            }
            sys->setProfiler(&trace.profShaped);
            const auto t0 = Clock::now();
            {
                SpanScope span(trace.spans, "sim.run.bdc");
                sys->run(kGaEpoch);
            }
            profiled_ns += secondsSince(t0) * 1e9;
            trace.record(*sys, static_cast<double>(kGaEpoch));
        }
        costs.push_back(calibrateTimer());
    }
    const TimerCost cost = medianCost(costs);
    reportTrace(opt, report, trace, cost, PlainRunNs{0.0, plain_ns},
                profiled_ns / plain_ns);
    report.metric("sim.parallel.efficiency", median(efficiency), "ratio");
    report.metric("ga.child_eval_ms",
                  median(trace.spans.durationsNs("ga.child_eval")) / 1e6,
                  "ms");
    report.metric("ga.evals", evals, "count");
}

} // namespace perfbench
