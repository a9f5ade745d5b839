#include "src/ga/genetic.h"

#include <algorithm>
#include <limits>

#include "src/common/logging.h"

namespace camo::ga {

GeneticOptimizer::GeneticOptimizer(const GaConfig &cfg,
                                   std::size_t genome_len,
                                   std::uint64_t seed)
    : cfg_(cfg),
      genomeLen_(genome_len),
      rng_(seed),
      bestFitness_(-std::numeric_limits<double>::infinity())
{
    camo_assert(genomeLen_ >= 1, "empty genome");
    camo_assert(cfg_.populationSize >= 2, "population too small");
    camo_assert(cfg_.eliteCount < cfg_.populationSize,
                "elite count must leave room for offspring");
    camo_assert(cfg_.tournamentSize >= 1, "tournament needs entrants");
    population_.reserve(cfg_.populationSize);
    for (std::size_t i = 0; i < cfg_.populationSize; ++i)
        population_.push_back(randomGenome());
    fitness_.assign(cfg_.populationSize, 0.0);
    evaluated_.assign(cfg_.populationSize, false);
    best_ = population_.front();
}

Genome
GeneticOptimizer::randomGenome()
{
    Genome g(genomeLen_);
    for (auto &gene : g)
        gene = static_cast<std::uint32_t>(
            rng_.below(cfg_.maxGeneValue + 1));
    repair(g);
    return g;
}

void
GeneticOptimizer::repair(Genome &g)
{
    const std::size_t seg_len =
        cfg_.budgetSegmentLen == 0 ? g.size() : cfg_.budgetSegmentLen;
    camo_assert(g.size() % seg_len == 0,
                "genome length must be a multiple of the segment");

    for (std::size_t base = 0; base < g.size(); base += seg_len) {
        std::uint64_t total = 0;
        for (std::size_t i = 0; i < seg_len; ++i)
            total += g[base + i];
        // Feasibility floor: the candidate must carry some traffic.
        while (total < cfg_.minTotalCredits) {
            auto &gene = g[base + rng_.below(seg_len)];
            if (gene < cfg_.maxGeneValue) {
                ++gene;
                ++total;
            }
        }
        // Security budget: never exceed the allotted bandwidth.
        while (total > cfg_.maxTotalCredits) {
            auto &gene = g[base + rng_.below(seg_len)];
            if (gene > 0) {
                --gene;
                --total;
            }
        }
    }
}

void
GeneticOptimizer::seedCandidate(std::size_t idx, Genome genome)
{
    camo_assert(idx < population_.size(), "seed index out of range");
    camo_assert(!evaluated_[idx],
                "cannot seed an already-evaluated candidate");
    camo_assert(genome.size() == genomeLen_, "seed genome length");
    repair(genome);
    population_[idx] = std::move(genome);
}

void
GeneticOptimizer::setFitness(std::size_t idx, double fitness)
{
    camo_assert(idx < population_.size(), "candidate out of range");
    fitness_[idx] = fitness;
    evaluated_[idx] = true;
    if (fitness > bestFitness_) {
        bestFitness_ = fitness;
        best_ = population_[idx];
    }
}

const Genome &
GeneticOptimizer::bestOfCurrentGeneration() const
{
    std::size_t best_idx = 0;
    for (std::size_t i = 0; i < population_.size(); ++i) {
        camo_assert(evaluated_[i], "candidate ", i, " not evaluated");
        if (fitness_[i] > fitness_[best_idx])
            best_idx = i;
    }
    return population_[best_idx];
}

double
GeneticOptimizer::bestFitnessOfCurrentGeneration() const
{
    double best = fitness_.empty() ? 0.0 : fitness_[0];
    for (std::size_t i = 0; i < population_.size(); ++i) {
        camo_assert(evaluated_[i], "candidate ", i, " not evaluated");
        best = std::max(best, fitness_[i]);
    }
    return best;
}

const Genome &
GeneticOptimizer::tournamentPick() const
{
    std::size_t winner = rng_.below(population_.size());
    for (std::size_t i = 1; i < cfg_.tournamentSize; ++i) {
        const std::size_t challenger = rng_.below(population_.size());
        if (fitness_[challenger] > fitness_[winner])
            winner = challenger;
    }
    return population_[winner];
}

void
GeneticOptimizer::nextGeneration()
{
    for (std::size_t i = 0; i < evaluated_.size(); ++i) {
        camo_assert(evaluated_[i],
                    "candidate ", i, " was never evaluated");
    }

    // Elitism: carry the best genomes over unchanged.
    std::vector<std::size_t> order(population_.size());
    for (std::size_t i = 0; i < order.size(); ++i)
        order[i] = i;
    std::sort(order.begin(), order.end(), [this](std::size_t a,
                                                 std::size_t b) {
        return fitness_[a] > fitness_[b];
    });

    std::vector<Genome> next;
    next.reserve(cfg_.populationSize);
    for (std::size_t i = 0; i < cfg_.eliteCount; ++i)
        next.push_back(population_[order[i]]);

    while (next.size() < cfg_.populationSize) {
        Genome child = tournamentPick();
        if (rng_.chance(cfg_.crossoverRate)) {
            const Genome &other = tournamentPick();
            for (std::size_t i = 0; i < genomeLen_; ++i) {
                if (rng_.chance(0.5))
                    child[i] = other[i];
            }
        }
        for (auto &gene : child) {
            if (rng_.chance(cfg_.mutationRate)) {
                gene = static_cast<std::uint32_t>(
                    rng_.below(cfg_.maxGeneValue + 1));
            }
        }
        repair(child);
        next.push_back(std::move(child));
    }

    population_ = std::move(next);
    std::fill(evaluated_.begin(), evaluated_.end(), false);
    ++generation_;
}

shaper::BinConfig
genomeToBinConfig(const Genome &genome, std::size_t offset,
                  const shaper::BinConfig &templ)
{
    camo_assert(offset + templ.numBins() <= genome.size(),
                "genome slice out of range");
    shaper::BinConfig cfg = templ;
    bool any = false;
    for (std::size_t i = 0; i < templ.numBins(); ++i) {
        cfg.credits[i] = genome[offset + i];
        any = any || cfg.credits[i] > 0;
    }
    if (!any)
        cfg.credits.back() = 1; // keep the config valid
    cfg.validate();
    return cfg;
}

} // namespace camo::ga
