/**
 * @file
 * MISE-style slowdown estimation (Subramanian et al., HPCA'13), used
 * by the paper's online GA as its fitness signal (§IV-C).
 *
 * slowdown = (1 - alpha) + alpha * (alone-rate / shared-rate)
 *
 * where alpha is the fraction of cycles the core stalls on memory and
 * the rates are memory request service rates measured with the core
 * in highest-priority mode (alone) vs normally scheduled (shared).
 */

#ifndef CAMO_GA_MISE_H
#define CAMO_GA_MISE_H

#include <cstdint>
#include <vector>

namespace camo::ga {

/** One epoch's measurements for one core. */
struct MiseSample
{
    double alpha = 0.0;       ///< memory-stall cycle fraction [0,1]
    double aloneRate = 0.0;   ///< requests/cycle at highest priority
    double sharedRate = 0.0;  ///< requests/cycle under sharing
};

/** Estimated slowdown (>= 1 when sharing hurts; 1 == no slowdown). */
double miseSlowdown(const MiseSample &sample);

/** GA fitness of one epoch: minus the mean slowdown over cores,
 *  summed in core order (the GA maximizes fitness). */
double miseFitness(const std::vector<MiseSample> &samples);

} // namespace camo::ga

#endif // CAMO_GA_MISE_H
