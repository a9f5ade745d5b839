/** @file Tests for the genetic optimizer and MISE estimation. */

#include <cstdint>
#include <numeric>
#include <vector>

#include <gtest/gtest.h>

#include "src/ga/genetic.h"
#include "src/ga/mise.h"

namespace camo::ga {
namespace {

GaConfig
smallCfg()
{
    GaConfig cfg;
    cfg.populationSize = 16;
    cfg.generations = 15;
    cfg.maxGeneValue = 32;
    cfg.minTotalCredits = 4;
    cfg.maxTotalCredits = 100;
    return cfg;
}

std::uint64_t
total(const Genome &g)
{
    return std::accumulate(g.begin(), g.end(), std::uint64_t{0});
}

/** Drive the stepped API for cfg.generations generations, the loop
 *  the offline and online GA drivers run, and return best(). */
template <typename Fitness>
const Genome &
runGenerations(GeneticOptimizer &opt, const Fitness &fitness)
{
    const std::size_t generations = opt.config().generations;
    for (std::size_t gen = 0; gen < generations; ++gen) {
        for (std::size_t i = 0; i < opt.population().size(); ++i)
            opt.setFitness(i, fitness(opt.population()[i]));
        if (gen + 1 < generations)
            opt.nextGeneration();
    }
    return opt.best();
}

// ----------------------------------------------------------- optimizer

TEST(Ga, PopulationRespectsBudgetInvariant)
{
    GeneticOptimizer opt(smallCfg(), 10, 3);
    for (const Genome &g : opt.population()) {
        ASSERT_EQ(g.size(), 10u);
        EXPECT_GE(total(g), smallCfg().minTotalCredits);
        EXPECT_LE(total(g), smallCfg().maxTotalCredits);
    }
}

TEST(Ga, BudgetHoldsAcrossGenerations)
{
    GeneticOptimizer opt(smallCfg(), 10, 5);
    for (int gen = 0; gen < 5; ++gen) {
        for (std::size_t i = 0; i < opt.population().size(); ++i)
            opt.setFitness(i, static_cast<double>(i));
        opt.nextGeneration();
        for (const Genome &g : opt.population()) {
            EXPECT_GE(total(g), smallCfg().minTotalCredits);
            EXPECT_LE(total(g), smallCfg().maxTotalCredits);
        }
    }
    EXPECT_EQ(opt.generation(), 5u);
}

TEST(Ga, SegmentedBudget)
{
    GaConfig cfg = smallCfg();
    cfg.budgetSegmentLen = 10;
    GeneticOptimizer opt(cfg, 20, 7);
    for (const Genome &g : opt.population()) {
        std::uint64_t a = 0, b = 0;
        for (std::size_t i = 0; i < 10; ++i) {
            a += g[i];
            b += g[10 + i];
        }
        EXPECT_LE(a, cfg.maxTotalCredits);
        EXPECT_LE(b, cfg.maxTotalCredits);
        EXPECT_GE(a, cfg.minTotalCredits);
        EXPECT_GE(b, cfg.minTotalCredits);
    }
}

TEST(Ga, OptimizeFindsHighSum)
{
    // Fitness = sum of genes: the optimum saturates the budget cap.
    GeneticOptimizer opt(smallCfg(), 10, 11);
    const Genome &best = runGenerations(opt, [](const Genome &g) {
        return static_cast<double>(
            std::accumulate(g.begin(), g.end(), std::uint64_t{0}));
    });
    EXPECT_GE(total(best),
              static_cast<std::uint64_t>(
                  0.9 * smallCfg().maxTotalCredits));
}

TEST(Ga, OptimizeFindsTargetShape)
{
    // Fitness rewards matching a target vector: a harder landscape.
    const std::vector<std::uint32_t> target = {9, 1, 7, 2, 0,
                                               4, 0, 3, 1, 8};
    GaConfig cfg = smallCfg();
    cfg.generations = 40;
    cfg.populationSize = 30;
    GeneticOptimizer opt(cfg, 10, 13);
    const Genome &best = runGenerations(opt, [&target](const Genome &g) {
        double err = 0;
        for (std::size_t i = 0; i < g.size(); ++i) {
            const double d = static_cast<double>(g[i]) - target[i];
            err += d * d;
        }
        return -err;
    });
    double err = 0;
    for (std::size_t i = 0; i < best.size(); ++i) {
        const double d = static_cast<double>(best[i]) - target[i];
        err += d * d;
    }
    EXPECT_LT(err, 60.0) << "GA should approach the target shape";
}

TEST(Ga, BestFitnessMonotone)
{
    GeneticOptimizer opt(smallCfg(), 10, 17);
    double prev_best = -1e300;
    for (int gen = 0; gen < 10; ++gen) {
        for (std::size_t i = 0; i < opt.population().size(); ++i) {
            // Arbitrary stable fitness.
            opt.setFitness(i, -static_cast<double>(
                                  total(opt.population()[i])));
        }
        EXPECT_GE(opt.bestFitness(), prev_best);
        prev_best = opt.bestFitness();
        opt.nextGeneration();
    }
}

TEST(Ga, SeedCandidateSurvivesViaElitism)
{
    GaConfig cfg = smallCfg();
    cfg.eliteCount = 2;
    GeneticOptimizer opt(cfg, 10, 19);
    Genome seed(10, 10); // total 100 == cap
    opt.seedCandidate(0, seed);
    // Fitness = total: the seed is optimal and must never be lost.
    for (int gen = 0; gen < 5; ++gen) {
        for (std::size_t i = 0; i < opt.population().size(); ++i)
            opt.setFitness(
                i, static_cast<double>(total(opt.population()[i])));
        opt.nextGeneration();
    }
    EXPECT_EQ(total(opt.best()), 100u);
}

TEST(GaDeathTest, UnevaluatedGenerationPanics)
{
    GeneticOptimizer opt(smallCfg(), 10, 23);
    opt.setFitness(0, 1.0);
    EXPECT_DEATH(opt.nextGeneration(), "never evaluated");
}

TEST(Ga, GenomeToBinConfig)
{
    const auto templ = shaper::BinConfig::desired();
    Genome g(20, 0);
    for (std::size_t i = 0; i < 20; ++i)
        g[i] = static_cast<std::uint32_t>(i + 1);
    const auto req = genomeToBinConfig(g, 0, templ);
    const auto resp = genomeToBinConfig(g, 10, templ);
    EXPECT_EQ(req.credits[0], 1u);
    EXPECT_EQ(resp.credits[0], 11u);
    EXPECT_EQ(req.edges, templ.edges);
    EXPECT_EQ(req.replenishPeriod, templ.replenishPeriod);
}

TEST(Ga, GenomeToBinConfigAllZeroRepaired)
{
    const auto templ = shaper::BinConfig::desired();
    Genome g(10, 0);
    const auto cfg = genomeToBinConfig(g, 0, templ);
    EXPECT_GE(cfg.totalCredits(), 1u) << "kept valid";
}

// ---------------------------------------------------------------- MISE

TEST(Mise, NoStallMeansNoSlowdown)
{
    MiseSample s{0.0, 0.01, 0.001};
    EXPECT_DOUBLE_EQ(miseSlowdown(s), 1.0);
}

TEST(Mise, FullStallScalesWithRateRatio)
{
    MiseSample s{1.0, 0.01, 0.005};
    EXPECT_DOUBLE_EQ(miseSlowdown(s), 2.0);
}

TEST(Mise, InterpolatesWithAlpha)
{
    MiseSample s{0.5, 0.02, 0.01};
    // (1 - 0.5) + 0.5 * 2 = 1.5
    EXPECT_DOUBLE_EQ(miseSlowdown(s), 1.5);
}

TEST(Mise, FasterSharedRateClampsToOne)
{
    MiseSample s{0.8, 0.01, 0.02};
    EXPECT_DOUBLE_EQ(miseSlowdown(s), 1.0);
}

TEST(Mise, ZeroRatesMeanNoMemorySlowdown)
{
    MiseSample s{0.9, 0.0, 0.0};
    EXPECT_DOUBLE_EQ(miseSlowdown(s), 1.0);
}

TEST(Mise, AverageAcrossCores)
{
    // Slowdowns 2 and 1: fitness is minus their mean.
    const std::vector<MiseSample> samples = {{1.0, 0.02, 0.01},
                                             {0.0, 0.02, 0.01}};
    EXPECT_DOUBLE_EQ(miseFitness(samples), -1.5);
}

} // namespace
} // namespace camo::ga
