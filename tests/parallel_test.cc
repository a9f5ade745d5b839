/**
 * @file
 * Tests for the parallel experiment engine (src/sim/parallel.h):
 * thread-safety of concurrent Systems, the submission-order +
 * index-derived-seed determinism contract (parallel output must be
 * byte-identical to sequential), and the offline GA's reproducibility.
 */

#include <gtest/gtest.h>

#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "src/hard/error.h"
#include "src/obs/registry.h"
#include "src/sim/parallel.h"
#include "src/sim/plan.h"
#include "src/sim/presets.h"
#include "src/sim/runner.h"

using namespace camo;

namespace {

constexpr Cycle kCycles = 40000;

std::string
statsJsonOf(sim::System &system, Cycle cycles)
{
    system.run(cycles);
    obs::StatRegistry reg;
    system.registerStats(reg);
    return reg.toJson().dump(2);
}

std::string
statsJsonOf(const sim::SystemConfig &cfg,
            const std::vector<std::string> &mix, Cycle cycles)
{
    sim::System system(sim::SystemPlan(cfg, mix));
    return statsJsonOf(system, cycles);
}

bool
sameMetrics(const sim::RunMetrics &a, const sim::RunMetrics &b)
{
    return a.cycles == b.cycles && a.ipc == b.ipc &&
           a.retired == b.retired && a.servedReads == b.servedReads &&
           a.avgReadLatency == b.avgReadLatency && a.alpha == b.alpha;
}

} // namespace

TEST(DeriveSeed, DeterministicDistinctAndNonZero)
{
    EXPECT_EQ(sim::deriveSeed(1, 2, 3), sim::deriveSeed(1, 2, 3));
    std::set<std::uint64_t> seen;
    for (std::uint64_t base : {0ull, 1ull, 42ull}) {
        for (std::uint64_t stream = 0; stream < 4; ++stream) {
            for (std::uint64_t idx = 0; idx < 8; ++idx) {
                const std::uint64_t s =
                    sim::deriveSeed(base, stream, idx);
                EXPECT_NE(s, 0u);
                seen.insert(s);
            }
        }
    }
    EXPECT_EQ(seen.size(), 3u * 4u * 8u) << "seed collision";
}

/** The engine's seed streams must never collide: stream 0 (sweep
 *  jobs / GA alone-rate), streams generation+1 (GA children),
 *  and kRetrySeedStream (daemon retry re-derivation) each own a
 *  disjoint seed space. */
TEST(DeriveSeed, StreamIdsAreDisjointAcrossEngineUses)
{
    const std::uint64_t streams[] = {
        0,    // sweep jobs and the GA's alone-rate runs
        1,    // GA generation 0 children
        2,    // GA generation 1 children
        9,    // a later generation
        sim::kRetrySeedStream,
    };
    constexpr std::uint64_t kIndices = 64;
    for (const std::uint64_t base : {1ull, 0x9E3779B97F4A7C15ull}) {
        std::set<std::uint64_t> seen;
        for (const std::uint64_t stream : streams) {
            for (std::uint64_t idx = 0; idx < kIndices; ++idx)
                seen.insert(sim::deriveSeed(base, stream, idx));
        }
        EXPECT_EQ(seen.size(), std::size(streams) * kIndices)
            << "stream collision under base " << base;
    }
    // And the streams are pinned constants — a renumbering would
    // silently re-seed published experiments.
    EXPECT_EQ(sim::kRetrySeedStream, 0xFA117u);
}

TEST(ParallelMap, ResultsInSubmissionOrder)
{
    const auto out = sim::parallelMap(100, 4, [](std::size_t i) {
        return i * i;
    });
    ASSERT_EQ(out.size(), 100u);
    for (std::size_t i = 0; i < out.size(); ++i)
        EXPECT_EQ(out[i], i * i);
}

TEST(ParallelMap, PropagatesExceptions)
{
    EXPECT_THROW(sim::parallelMap(8, 4,
                                  [](std::size_t i) -> int {
                                      if (i == 5)
                                          throw std::runtime_error("x");
                                      return 0;
                                  }),
                 std::runtime_error);
}

TEST(ParallelMap, PoolIsReusableAcrossBatches)
{
    sim::WorkerPool pool(4);
    for (int round = 0; round < 3; ++round) {
        std::vector<int> out(64, -1);
        pool.forEachIndex(out.size(), [&](std::size_t i) {
            out[i] = round * 1000 + static_cast<int>(i);
        });
        for (std::size_t i = 0; i < out.size(); ++i)
            EXPECT_EQ(out[i], round * 1000 + static_cast<int>(i));
    }
}

/** Two Systems ticking concurrently must not interfere: each run's
 *  full stats tree must match the same run done alone. */
TEST(ParallelSystems, ConcurrentRunsMatchSequentialByteForByte)
{
    sim::SystemConfig a = sim::paperConfig();
    a.mitigation = sim::Mitigation::BDC;
    a.seed = 7;
    sim::SystemConfig b = sim::paperConfig();
    b.mitigation = sim::Mitigation::ReqC;
    b.seed = 9;
    const auto mix_a = sim::adversaryMix("mcf", "astar");
    const auto mix_b = sim::adversaryMix("probe", "apache");

    const std::string seq_a = statsJsonOf(a, mix_a, kCycles);
    const std::string seq_b = statsJsonOf(b, mix_b, kCycles);

    std::string par_a, par_b;
    std::thread ta([&] { par_a = statsJsonOf(a, mix_a, kCycles); });
    std::thread tb([&] { par_b = statsJsonOf(b, mix_b, kCycles); });
    ta.join();
    tb.join();

    EXPECT_EQ(seq_a, par_a);
    EXPECT_EQ(seq_b, par_b);
}

TEST(RunConfigsParallel, MatchesSequentialExactly)
{
    std::vector<sim::SimJob> batch;
    std::size_t k = 0;
    for (const char *adv : {"mcf", "libqt", "bzip"}) {
        for (const auto mit :
             {sim::Mitigation::None, sim::Mitigation::BDC}) {
            sim::SystemConfig cfg = sim::paperConfig();
            cfg.mitigation = mit;
            cfg.seed = sim::deriveSeed(1, 0, k++);
            batch.push_back(
                {cfg, sim::adversaryMix(adv, "astar"), kCycles, 5000});
        }
    }

    // Reference: a plain sequential loop.
    std::vector<sim::RunMetrics> seq;
    for (const auto &job : batch)
        seq.push_back(sim::runConfig(job.cfg, job.workloads,
                                     job.cycles, job.warmup));

    const auto one = sim::runConfigsParallel(batch, 1);
    const auto four = sim::runConfigsParallel(batch, 4);
    ASSERT_EQ(one.size(), batch.size());
    ASSERT_EQ(four.size(), batch.size());
    for (std::size_t i = 0; i < batch.size(); ++i) {
        EXPECT_TRUE(sameMetrics(seq[i], one[i])) << "job " << i;
        EXPECT_TRUE(sameMetrics(seq[i], four[i])) << "job " << i;
    }
}

TEST(RunConfigsParallel, ConfigErrorSurfacesToCaller)
{
    std::vector<sim::SimJob> batch;
    for (std::size_t k = 0; k < 3; ++k) {
        sim::SystemConfig cfg = sim::paperConfig();
        cfg.seed = 1 + k;
        batch.push_back(
            {cfg, sim::adversaryMix("mcf", "astar"), 10000, 1000});
    }
    // Poison the middle job: the worker's ConfigError must reach the
    // caller with its original text, not as a generic failure.
    batch[1].workloads[1] = "webdiurnal:9";
    try {
        (void)sim::runConfigsParallel(batch, 2);
        FAIL() << "poisoned batch was accepted";
    } catch (const hard::ConfigError &e) {
        EXPECT_NE(std::string(e.what()).find(
                      "bad day length (instructions >= 24)"),
                  std::string::npos)
            << e.what();
    }
}

TEST(OfflineGa, ReproducibleAndJobCountInvariant)
{
    sim::SystemConfig cfg = sim::paperConfig();
    cfg.mitigation = sim::Mitigation::BDC;
    ga::GaConfig ga_cfg;
    ga_cfg.generations = 2;
    ga_cfg.populationSize = 6;
    const auto mix = sim::adversaryMix("bzip", "astar");

    const auto one =
        sim::runOfflineGa(cfg, mix, ga_cfg, /*epoch=*/10000, 1);
    const auto four =
        sim::runOfflineGa(cfg, mix, ga_cfg, /*epoch=*/10000, 4);

    EXPECT_EQ(one.bestFitness, four.bestFitness);
    EXPECT_EQ(one.generationBest, four.generationBest);
    ASSERT_EQ(one.reqBinsPerCore.size(), four.reqBinsPerCore.size());
    for (std::size_t c = 0; c < one.reqBinsPerCore.size(); ++c) {
        EXPECT_EQ(one.reqBinsPerCore[c].toString(),
                  four.reqBinsPerCore[c].toString());
        EXPECT_EQ(one.respBinsPerCore[c].toString(),
                  four.respBinsPerCore[c].toString());
    }
    EXPECT_EQ(one.configPhaseLeakBoundBits, 0.0);
}

TEST(EvaluateGenerationParallel, JobCountInvariant)
{
    sim::SystemConfig cfg = sim::paperConfig();
    cfg.mitigation = sim::Mitigation::ReqC;
    const auto mix = sim::adversaryMix("mcf", "astar");

    // A handful of hand-rolled genomes (10 request genes per core).
    const std::size_t genome_len = cfg.numCores * 10;
    std::vector<ga::Genome> children;
    for (std::uint32_t v : {1u, 2u, 4u})
        children.push_back(ga::Genome(genome_len, v));

    const std::vector<double> alone_rate(cfg.numCores, 0.01);
    const sim::SystemPlan plan(cfg, mix);
    const auto one = sim::evaluateGenerationParallel(
        plan, children, /*generation=*/0, alone_rate, /*epoch=*/10000,
        1);
    const auto four = sim::evaluateGenerationParallel(
        plan, children, /*generation=*/0, alone_rate, /*epoch=*/10000,
        4);
    EXPECT_EQ(one, four);
    ASSERT_EQ(one.size(), children.size());
}

// ---------------------------------------------------------------
// SystemPlan: a plan is reusable, and every instantiation of it is
// bit-exact with a fresh plan's
// ---------------------------------------------------------------

TEST(SystemPlan, ReusedPlanMatchesFreshPlanByteForByte)
{
    sim::SystemConfig cfg = sim::paperConfig();
    cfg.mitigation = sim::Mitigation::BDC;
    cfg.seed = 11;
    // Include a trace-replay workload so the shared trace items are
    // exercised, not just the synthetic models.
    const std::vector<std::string> mix = {"mcf", "dramsim2:@sample",
                                          "astar", "astar"};

    const sim::SystemPlan plan(cfg, mix);
    const std::string first = statsJsonOf(*plan.instantiate(), kCycles);
    // Built only after the first machine ran: running must not leak
    // state back into the plan.
    const std::string second = statsJsonOf(*plan.instantiate(), kCycles);
    const std::string fresh = statsJsonOf(cfg, mix, kCycles);
    EXPECT_EQ(first, second);
    EXPECT_EQ(first, fresh);
}

TEST(SystemPlan, SeedOverrideMatchesRebuiltConfig)
{
    sim::SystemConfig cfg = sim::paperConfig();
    cfg.mitigation = sim::Mitigation::ReqC;
    const auto mix = sim::adversaryMix("bzip", "astar");

    sim::SystemConfig reseeded = cfg;
    reseeded.seed = sim::deriveSeed(cfg.seed, 0, 3);
    const std::string rebuilt = statsJsonOf(reseeded, mix, kCycles);

    const sim::SystemPlan plan(cfg, mix);
    sim::PlanOverrides ov;
    ov.seed = sim::deriveSeed(cfg.seed, 0, 3);
    EXPECT_EQ(rebuilt, statsJsonOf(*plan.instantiate(ov), kCycles));
}

TEST(SystemPlan, RejectsMalformedInputsLikeSystemDoes)
{
    sim::SystemConfig cfg = sim::paperConfig();
    // Bad workload name fails compilation at plan build.
    EXPECT_THROW(sim::SystemPlan(cfg, {"mcf", "nope", "astar", "astar"}),
                 hard::ConfigError);

    // Wrong-size per-core overrides fail at instantiate.
    const sim::SystemPlan plan(cfg, sim::adversaryMix("mcf", "astar"));
    sim::PlanOverrides ov;
    ov.reqBinsPerCore =
        std::vector<shaper::BinConfig>(cfg.numCores + 1);
    EXPECT_THROW((void)plan.instantiate(ov), hard::ConfigError);

    sim::PlanOverrides resp;
    resp.respBinsPerCore =
        std::vector<shaper::BinConfig>(cfg.numCores - 1);
    sim::SystemConfig overridden = cfg;
    overridden.respBinsPerCore = *resp.respBinsPerCore;
    std::string expected;
    try {
        sim::validateSystemConfig(overridden, cfg.numCores);
    } catch (const hard::ConfigError &e) {
        expected = e.what();
    }
    EXPECT_EQ(expected, "respBinsPerCore has 3 entries but numCores is 4");
    try {
        (void)plan.instantiate(resp);
        FAIL() << "accepted a wrong-size respBinsPerCore override";
    } catch (const hard::ConfigError &e) {
        EXPECT_EQ(std::string(e.what()), expected);
    }

    // A request id carries its core in 16 bits, so 2^16 cores is the
    // largest machine; core 2^16 would reuse core 0's ids.
    sim::SystemConfig wide = cfg;
    wide.numCores = 65536;
    EXPECT_NO_THROW(sim::validateSystemConfig(wide, 65536));
    wide.numCores = 65537;
    EXPECT_THROW(sim::validateSystemConfig(wide, 65537),
                 hard::ConfigError);

    // An empty per-core override means "use the shared bins".
    sim::PlanOverrides empty;
    empty.reqBinsPerCore = std::vector<shaper::BinConfig>{};
    empty.respBinsPerCore = std::vector<shaper::BinConfig>{};
    EXPECT_NO_THROW((void)plan.instantiate(empty));
}
