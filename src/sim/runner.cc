#include "src/sim/runner.h"

#include <algorithm>

#include "src/camouflage/phase_detector.h"

#include "src/common/logging.h"
#include "src/hard/error.h"
#include "src/security/leakage_bound.h"
#include "src/sim/parallel.h"
#include "src/sim/plan.h"

namespace camo::sim {

namespace {

/** The checks both GA entry points run before building an optimizer.
 *  @throws hard::ConfigError naming the bad value */
void
checkGaInputs(const char *which, const SystemConfig &cfg,
              const ga::GaConfig &ga_cfg)
{
    if (cfg.mitigation != Mitigation::BDC &&
        cfg.mitigation != Mitigation::ReqC &&
        cfg.mitigation != Mitigation::RespC) {
        throw hard::ConfigError(
            detail::fmt(which, " GA needs a Camouflage mitigation "
                        "(ReqC, RespC, or BDC), got ",
                        mitigationName(cfg.mitigation)));
    }
    if (ga_cfg.populationSize < 2) {
        throw hard::ConfigError(detail::fmt(
            "GA population must be >= 2, got ", ga_cfg.populationSize));
    }
    if (ga_cfg.eliteCount >= ga_cfg.populationSize) {
        throw hard::ConfigError(detail::fmt(
            "GA elite count ", ga_cfg.eliteCount,
            " must be below the population ", ga_cfg.populationSize));
    }
    if (ga_cfg.tournamentSize < 1)
        throw hard::ConfigError("GA tournament size must be >= 1, got 0");
}

/**
 * Seed candidates 0/1 with the naive baselines so the GA never
 * regresses below them (elitism keeps them alive): a half-budget
 * uniform spread (fakes fill unused credits, so frugal is usually
 * closer to the optimum than the cap) and a front-loaded (bursty)
 * full-budget ramp.
 */
void
seedBaselineCandidates(ga::GeneticOptimizer &optimizer,
                       std::size_t genome_len, std::size_t bins)
{
    const ga::GaConfig &gc = optimizer.config();
    const auto per_bin = static_cast<std::uint32_t>(std::max<std::uint64_t>(
        1, gc.maxTotalCredits / (2 * bins)));
    ga::Genome uniform(genome_len, per_bin);
    optimizer.seedCandidate(0, std::move(uniform));
    ga::Genome ramp(genome_len, 0);
    for (std::size_t seg = 0; seg < genome_len / bins; ++seg) {
        std::uint32_t remaining = gc.maxTotalCredits;
        for (std::size_t i = 0; i < bins && remaining > 0; ++i) {
            const auto c =
                std::min(gc.maxGeneValue,
                         std::max<std::uint32_t>(1, remaining / 2));
            ramp[seg * bins + i] = c;
            remaining -= c;
        }
    }
    if (gc.populationSize > 1)
        optimizer.seedCandidate(1, std::move(ramp));
}

} // namespace

double
RunMetrics::throughput() const
{
    double sum = 0.0;
    for (const double v : ipc)
        sum += v;
    return sum;
}

RunMetrics
runAndMeasure(System &system, Cycle cycles, Cycle warmup)
{
    if (warmup > 0) {
        system.run(warmup);
        system.clearEpochCounters();
    }
    system.run(cycles);

    RunMetrics m;
    m.cycles = cycles;
    for (std::uint32_t i = 0; i < system.numCores(); ++i) {
        const auto &core = system.coreAt(i);
        m.ipc.push_back(core.ipc());
        m.retired.push_back(core.retired());
        m.servedReads.push_back(system.servedReads(i));
        m.avgReadLatency.push_back(system.avgReadLatency(i));
        m.alpha.push_back(core.alpha());
    }
    return m;
}

RunMetrics
runConfig(const SystemConfig &cfg,
          const std::vector<std::string> &workloads, Cycle cycles,
          Cycle warmup)
{
    System system(SystemPlan(cfg, workloads));
    return runAndMeasure(system, cycles, warmup);
}

std::vector<double>
slowdownVs(const RunMetrics &baseline, const RunMetrics &test)
{
    camo_assert(baseline.ipc.size() == test.ipc.size(),
                "mismatched core counts");
    std::vector<double> slow;
    slow.reserve(baseline.ipc.size());
    for (std::size_t i = 0; i < baseline.ipc.size(); ++i) {
        slow.push_back(test.ipc[i] > 0.0 ? baseline.ipc[i] / test.ipc[i]
                                         : 1.0);
    }
    return slow;
}

double
maxSlowdownVs(const RunMetrics &baseline, const RunMetrics &test)
{
    double worst = 1.0;
    for (const double s : slowdownVs(baseline, test))
        worst = std::max(worst, s);
    return worst;
}

std::vector<shaper::TrafficEvent>
unshapedIntrinsicEvents(const SystemConfig &cfg,
                        const std::vector<std::string> &workloads,
                        std::uint32_t core, Cycle cycles)
{
    SystemConfig ref = cfg;
    ref.mitigation = Mitigation::None;
    ref.recordTraffic = true;
    System system(SystemPlan(ref, workloads));
    system.run(cycles);
    return system.intrinsicMonitor(core).events();
}

shaper::BinConfig
binsFromMonitor(const shaper::DistributionMonitor &monitor,
                Cycle observed_cycles, Cycle period, double headroom)
{
    if (observed_cycles == 0 || period == 0) {
        throw hard::ConfigError(
            detail::fmt("binsFromMonitor needs positive cycle counts "
                        "(observed_cycles=",
                        observed_cycles, ", period=", period, ")"));
    }
    if (headroom <= 0.0) {
        throw hard::ConfigError(detail::fmt(
            "binsFromMonitor headroom must be positive, got ",
            headroom));
    }
    const Histogram &hist = monitor.histogram();

    shaper::BinConfig cfg;
    cfg.replenishPeriod = period;
    for (std::size_t i = 0; i < hist.numBins(); ++i)
        cfg.edges.push_back(hist.lowerEdge(i));

    const double rate = static_cast<double>(hist.totalCount()) /
                        static_cast<double>(observed_cycles);
    const double total = rate * static_cast<double>(period) * headroom;
    std::uint64_t granted = 0;
    for (const double p : hist.pmf()) {
        const auto c = static_cast<std::uint32_t>(p * total + 0.5);
        cfg.credits.push_back(
            std::min(c, shaper::kMaxCreditsPerBin));
        granted += cfg.credits.back();
    }
    if (granted == 0)
        cfg.credits[0] = 1; // stay valid for silent streams
    cfg.validate();
    return cfg;
}

shaper::BinConfig
gaReqBinsOf(const SystemConfig &cfg, const ga::Genome &g,
            std::size_t core)
{
    const std::size_t bins = cfg.reqBins.numBins();
    const std::size_t slices =
        cfg.mitigation == Mitigation::BDC ? 2 : 1;
    return ga::genomeToBinConfig(g, core * slices * bins, cfg.reqBins);
}

shaper::BinConfig
gaRespBinsOf(const SystemConfig &cfg, const ga::Genome &g,
             std::size_t core)
{
    if (cfg.mitigation != Mitigation::BDC)
        return cfg.respBins;
    const std::size_t bins = cfg.reqBins.numBins();
    return ga::genomeToBinConfig(g, core * 2 * bins + bins,
                                 cfg.respBins);
}

OnlineGaResult
runOnlineGa(const SystemConfig &cfg,
            const std::vector<std::string> &workloads,
            const ga::GaConfig &ga_cfg, Cycle epoch_cycles)
{
    System system(SystemPlan(cfg, workloads));
    return tuneOnline(system, cfg, ga_cfg, epoch_cycles);
}

OnlineGaResult
tuneOnline(System &system, const SystemConfig &cfg,
           const ga::GaConfig &ga_cfg, Cycle epoch_cycles)
{
    checkGaInputs("online", cfg, ga_cfg);
    const bool both = cfg.mitigation == Mitigation::BDC;
    const std::size_t bins = cfg.reqBins.numBins();
    const std::size_t slices = both ? 2 : 1;

    const std::size_t cores = system.numCores();
    // Genome layout: for each core, its request bins then (for BDC)
    // its response bins; each 10-gene slice carries its own budget.
    const std::size_t genome_len = cores * slices * bins;

    ga::GaConfig ga_cfg_seg = ga_cfg;
    ga_cfg_seg.budgetSegmentLen = bins;
    ga::GeneticOptimizer optimizer(ga_cfg_seg, genome_len,
                                   cfg.seed + 17);
    seedBaselineCandidates(optimizer, genome_len, bins);

    // Decode a genome into per-core request/response configurations.
    auto req_of = [&](const ga::Genome &g, std::size_t core) {
        return gaReqBinsOf(cfg, g, core);
    };
    auto resp_of = [&](const ga::Genome &g, std::size_t core) {
        return gaRespBinsOf(cfg, g, core);
    };
    auto apply = [&](const ga::Genome &g) {
        for (std::uint32_t c = 0; c < cores; ++c)
            system.reconfigureShaper(c, req_of(g, c), resp_of(g, c));
    };

    OnlineGaResult result;

    // Wide-open shaper configuration for alone-rate measurement: the
    // MISE "alone" service rate must reflect the unshaped program.
    shaper::BinConfig open = cfg.reqBins;
    for (auto &c : open.credits)
        c = shaper::kMaxCreditsPerBin;

    std::vector<double> alone_rate(cores, 0.0);

    for (std::size_t gen = 0; gen < ga_cfg.generations; ++gen) {
        // Highest-priority-mode epochs: each program's alone rate,
        // with shapers effectively disabled -- including their fake
        // generators, which would otherwise flood the channel when
        // handed a wide-open credit set.
        system.reconfigureShapers(open, open);
        system.setFakeTraffic(false);
        for (std::uint32_t c = 0; c < cores; ++c) {
            system.memory().setHighestPriorityCore(c);
            system.clearEpochCounters();
            system.run(epoch_cycles);
            alone_rate[c] = static_cast<double>(system.servedReads(c)) /
                            static_cast<double>(epoch_cycles);
        }
        system.memory().setHighestPriorityCore(std::nullopt);
        system.setFakeTraffic(cfg.fakeTraffic);

        // Evaluate each child configuration for one epoch.
        double generation_best = -1e300;
        for (std::size_t child = 0;
             child < optimizer.population().size(); ++child) {
            apply(optimizer.population()[child]);
            system.clearEpochCounters();
            system.run(epoch_cycles);
            const double fitness =
                epochMiseFitness(system, alone_rate, epoch_cycles);
            optimizer.setFitness(child, fitness);
            generation_best = std::max(generation_best, fitness);
        }
        result.generationBest.push_back(generation_best);
        if (gen + 1 < ga_cfg.generations)
            optimizer.nextGeneration();
    }

    // Select from the final generation's measurements rather than the
    // historical max: with a noisy fitness the all-time best is
    // biased toward lucky outliers.
    const ga::Genome &best = optimizer.bestOfCurrentGeneration();
    for (std::uint32_t c = 0; c < cores; ++c) {
        result.reqBinsPerCore.push_back(req_of(best, c));
        result.respBinsPerCore.push_back(resp_of(best, c));
    }
    apply(best); // leave the live system on the tuned configuration
    result.reqBins = result.reqBinsPerCore.front();
    result.respBins = result.respBinsPerCore.front();
    result.bestFitness = optimizer.bestFitnessOfCurrentGeneration();
    result.configPhaseCycles = system.now();
    result.configPhaseLeakBoundBits =
        security::gaConfigPhaseLeakBoundBits(ga_cfg.generations,
                                             ga_cfg.populationSize);
    return result;
}

OnlineGaResult
runOfflineGa(const SystemConfig &cfg,
             const std::vector<std::string> &workloads,
             const ga::GaConfig &ga_cfg, Cycle epoch_cycles,
             unsigned jobs)
{
    checkGaInputs("offline", cfg, ga_cfg);
    const std::size_t bins = cfg.reqBins.numBins();
    const bool both = cfg.mitigation == Mitigation::BDC;
    const std::size_t slices = both ? 2 : 1;
    const std::size_t cores = cfg.numCores;
    const std::size_t genome_len = cores * slices * bins;

    ga::GaConfig ga_cfg_seg = ga_cfg;
    ga_cfg_seg.budgetSegmentLen = bins;
    ga::GeneticOptimizer optimizer(ga_cfg_seg, genome_len,
                                   cfg.seed + 17);
    seedBaselineCandidates(optimizer, genome_len, bins);

    // Alone service rates, one fresh highest-priority system per
    // core (stream 0 of the seed space; generations use stream
    // gen + 1). Fresh systems restart from cycle 0 every epoch, so
    // unlike the live online loop there is no phase drift to track
    // and one up-front measurement serves every generation.
    SystemConfig alone_cfg = cfg;
    shaper::BinConfig open = cfg.reqBins;
    for (auto &c : open.credits)
        c = shaper::kMaxCreditsPerBin;
    alone_cfg.reqBins = open;
    alone_cfg.respBins = open;
    alone_cfg.reqBinsPerCore.clear();
    alone_cfg.respBinsPerCore.clear();
    alone_cfg.fakeTraffic = false;
    const SystemPlan alone_plan(alone_cfg, workloads);
    const std::vector<double> alone_rate =
        parallelMap(cores, jobs, [&](std::size_t c) {
            PlanOverrides one;
            one.seed = deriveSeed(cfg.seed, 0, c);
            const std::unique_ptr<System> system =
                alone_plan.instantiate(one);
            system->memory().setHighestPriorityCore(
                static_cast<CoreId>(c));
            system->run(epoch_cycles);
            return static_cast<double>(
                       system->servedReads(
                           static_cast<std::uint32_t>(c))) /
                   static_cast<double>(epoch_cycles);
        });

    // One plan for the whole search: every child evaluation is a
    // PlanOverrides instantiation.
    const SystemPlan plan(cfg, workloads);

    OnlineGaResult result;
    for (std::size_t gen = 0; gen < ga_cfg.generations; ++gen) {
        const std::vector<double> fitness = evaluateGenerationParallel(
            plan, optimizer.population(), gen, alone_rate,
            epoch_cycles, jobs);
        double generation_best = -1e300;
        for (std::size_t child = 0; child < fitness.size(); ++child) {
            optimizer.setFitness(child, fitness[child]);
            generation_best = std::max(generation_best, fitness[child]);
        }
        result.generationBest.push_back(generation_best);
        if (gen + 1 < ga_cfg.generations)
            optimizer.nextGeneration();
    }

    const ga::Genome &best = optimizer.bestOfCurrentGeneration();
    for (std::uint32_t c = 0; c < cores; ++c) {
        result.reqBinsPerCore.push_back(gaReqBinsOf(cfg, best, c));
        result.respBinsPerCore.push_back(gaRespBinsOf(cfg, best, c));
    }
    result.reqBins = result.reqBinsPerCore.front();
    result.respBins = result.respBinsPerCore.front();
    result.bestFitness = optimizer.bestFitnessOfCurrentGeneration();
    // Total cycles *simulated* across every throwaway system (the
    // online field reports the live system's clock instead).
    result.configPhaseCycles =
        static_cast<std::uint64_t>(
            cores + ga_cfg.generations * optimizer.population().size()) *
        epoch_cycles;
    result.configPhaseLeakBoundBits = 0.0; // searched before deployment
    return result;
}

AdaptiveResult
runAdaptive(const SystemConfig &cfg,
            const std::vector<std::string> &workloads,
            Cycle total_cycles, const AdaptiveConfig &adaptive)
{
    AdaptiveResult result;
    System system(SystemPlan(cfg, workloads));

    // Initial CONFIG_PHASE.
    tuneOnline(system, cfg, adaptive.ga, adaptive.epochCycles);
    ++result.reconfigurations;
    result.reconfigAt.push_back(system.now());

    std::vector<shaper::PhaseDetector> detectors;
    for (std::uint32_t c = 0; c < system.numCores(); ++c)
        detectors.emplace_back(0.25, adaptive.detectorThreshold);

    const Cycle run_start = system.now();
    system.clearEpochCounters();
    std::vector<std::uint64_t> prev_served(system.numCores(), 0);

    while (system.now() - run_start < total_cycles) {
        system.run(adaptive.epochCycles);

        bool phase_change = false;
        for (std::uint32_t c = 0; c < system.numCores(); ++c) {
            const std::uint64_t served = system.servedReads(c);
            const double rate =
                static_cast<double>(served - prev_served[c]) /
                static_cast<double>(adaptive.epochCycles);
            prev_served[c] = served;
            phase_change = detectors[c].sample(rate) || phase_change;
        }
        if (!phase_change)
            continue;
        ++result.phaseChangesDetected;
        if (result.reconfigurations >= adaptive.maxReconfigs)
            continue; // leakage budget spent: hold the configuration

        tuneOnline(system, cfg, adaptive.ga, adaptive.epochCycles);
        ++result.reconfigurations;
        result.reconfigAt.push_back(system.now());
        // The config phase perturbed the counters the detectors and
        // metrics rely on.
        system.clearEpochCounters();
        std::fill(prev_served.begin(), prev_served.end(), 0);
        for (auto &d : detectors)
            d = shaper::PhaseDetector(0.25, adaptive.detectorThreshold);
    }

    for (std::uint32_t i = 0; i < system.numCores(); ++i) {
        const auto &core = system.coreAt(i);
        result.metrics.ipc.push_back(core.ipc());
        result.metrics.retired.push_back(core.retired());
        result.metrics.servedReads.push_back(system.servedReads(i));
        result.metrics.avgReadLatency.push_back(system.avgReadLatency(i));
        result.metrics.alpha.push_back(core.alpha());
    }
    result.metrics.cycles = system.now() - run_start;
    result.leakBoundBits =
        static_cast<double>(result.reconfigurations) *
        security::gaConfigPhaseLeakBoundBits(adaptive.ga.generations,
                                             adaptive.ga.populationSize);
    return result;
}

obs::json::Value
summaryJson(const System &system,
            const std::vector<std::string> &workloads,
            bool tracer_section)
{
    obs::StatRegistry reg;
    system.registerStats(reg);

    obs::json::Value root = obs::json::Value::makeObject();
    root["mitigation"] =
        obs::json::Value(mitigationName(system.config().mitigation));
    root["cycles"] = obs::json::Value(system.now());
    root["seed"] = obs::json::Value(system.config().seed);
    obs::json::Value wl = obs::json::Value::makeArray();
    for (const auto &w : workloads)
        wl.push(obs::json::Value(w));
    root["workloads"] = std::move(wl);
    root["stats"] = reg.toJson();
    if (tracer_section) {
        obs::json::Value t = obs::json::Value::makeObject();
        t["emitted"] = obs::json::Value(system.tracer().emitted());
        t["dropped"] = obs::json::Value(system.tracer().dropped());
        root["tracer"] = std::move(t);
    }
    if (const obs::IntervalCollector *iv = system.intervalStats())
        root["intervals"] = iv->toJson();
    return root;
}

} // namespace camo::sim
