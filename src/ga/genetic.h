/**
 * @file
 * Online genetic algorithm for bin-configuration search (paper §IV-C).
 *
 * A genome is one credit count per hardware bin (10 genes for a
 * one-sided shaper, 20 for BDC: requests then responses). The search
 * space is MAX_CREDITS^20 and non-convex, which is why the paper uses
 * a GA. The optimizer exposes a generation-stepped API so the caller
 * can evaluate children online (each child runs for an epoch in the
 * live system) exactly as in the paper's Figure 8.
 */

#ifndef CAMO_GA_GENETIC_H
#define CAMO_GA_GENETIC_H

#include <cstdint>
#include <vector>

#include "src/camouflage/bin_config.h"
#include "src/common/rng.h"

namespace camo::ga {

/** One candidate bin configuration (credit count per bin). */
using Genome = std::vector<std::uint32_t>;

/** GA hyper-parameters (paper: 20-30 children, 20-30 generations). */
struct GaConfig
{
    std::size_t populationSize = 24;
    std::size_t generations = 20;
    std::size_t tournamentSize = 3;
    std::size_t eliteCount = 2;
    double crossoverRate = 0.8;
    double mutationRate = 0.08;
    std::uint32_t maxGeneValue = 64;
    /** Feasibility floor: minimum total credits per segment, so every
     *  candidate sustains some bandwidth (repair bumps genes). */
    std::uint32_t minTotalCredits = 8;
    /**
     * Security budget: maximum total credits per segment. The GA
     * searches how to *distribute* a bandwidth budget across bins —
     * an unconstrained search would simply remove shaping. Repair
     * decrements random genes until the budget holds. Because unused
     * credits become fake traffic that occupies real DRAM bandwidth,
     * the cap should stay near the per-core fair share of the
     * channel (DDR3-1333 peak / 4 cores ~ 170 credits per 10k-cycle
     * window; 96 leaves headroom for responses and writebacks).
     */
    std::uint32_t maxTotalCredits = 96;
    /**
     * Genes per budget segment (e.g. 10 for one shaper; a BDC genome
     * has two segments: request bins then response bins). 0 treats
     * the whole genome as one segment.
     */
    std::size_t budgetSegmentLen = 0;
};

/** Generation-stepped genetic optimizer (fitness: higher is better). */
class GeneticOptimizer
{
  public:
    GeneticOptimizer(const GaConfig &cfg, std::size_t genome_len,
                     std::uint64_t seed);

    /** Current generation's candidates ("children" in the paper). */
    const std::vector<Genome> &population() const { return population_; }

    /**
     * Replace candidate `idx` with a known-good genome (after repair),
     * e.g. a hand-written baseline: the GA then never does worse than
     * its seeds thanks to elitism. Only valid before evaluation.
     */
    void seedCandidate(std::size_t idx, Genome genome);

    /** Record the measured fitness of candidate `idx`. */
    void setFitness(std::size_t idx, double fitness);

    /**
     * Breed the next generation from the recorded fitnesses
     * (elitism + tournament selection + uniform crossover +
     * per-gene mutation + feasibility repair).
     * @pre every candidate's fitness was set.
     */
    void nextGeneration();

    /** Historical best (max over every measurement ever made). With a
     *  noisy fitness this can be a lucky outlier; prefer
     *  bestOfCurrentGeneration() for final selection. */
    const Genome &best() const { return best_; }
    double bestFitness() const { return bestFitness_; }

    /** Best candidate of the most recently evaluated generation.
     *  @pre every candidate of the current generation was evaluated. */
    const Genome &bestOfCurrentGeneration() const;
    double bestFitnessOfCurrentGeneration() const;

    std::size_t generation() const { return generation_; }

    const GaConfig &config() const { return cfg_; }

  private:
    Genome randomGenome();
    void repair(Genome &g);
    const Genome &tournamentPick() const;

    GaConfig cfg_;
    std::size_t genomeLen_;
    mutable Rng rng_;
    std::vector<Genome> population_;
    std::vector<double> fitness_;
    std::vector<bool> evaluated_;
    Genome best_;
    double bestFitness_;
    std::size_t generation_ = 0;
};

/**
 * Build a BinConfig from a genome slice using `templ`'s edges and
 * period. @pre genome[offset..offset+bins) exists.
 */
shaper::BinConfig genomeToBinConfig(const Genome &genome,
                                    std::size_t offset,
                                    const shaper::BinConfig &templ);

} // namespace camo::ga

#endif // CAMO_GA_GENETIC_H
