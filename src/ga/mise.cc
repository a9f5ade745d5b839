#include "src/ga/mise.h"

#include <algorithm>

#include "src/common/logging.h"

namespace camo::ga {

double
miseSlowdown(const MiseSample &sample)
{
    camo_assert(sample.alpha >= 0.0 && sample.alpha <= 1.0,
                "alpha out of range: ", sample.alpha);
    if (sample.sharedRate <= 0.0 || sample.aloneRate <= 0.0)
        return 1.0; // no memory activity: no memory slowdown
    const double ratio =
        std::max(1.0, sample.aloneRate / sample.sharedRate);
    return (1.0 - sample.alpha) + sample.alpha * ratio;
}

double
miseFitness(const std::vector<MiseSample> &samples)
{
    camo_assert(!samples.empty(), "no samples");
    double total = 0.0;
    for (const MiseSample &s : samples)
        total += miseSlowdown(s);
    return -total / static_cast<double>(samples.size());
}

} // namespace camo::ga
