#include "src/common/stats.h"

#include <cmath>

#include "src/common/logging.h"

namespace camo {

double
Scalar::stddev() const
{
    return std::sqrt(variance());
}

std::uint64_t
StatGroup::counter(const std::string &name) const
{
    auto it = counters_.find(name);
    return it == counters_.end() ? 0 : it->second;
}

const Scalar &
StatGroup::scalar(const std::string &name) const
{
    static const Scalar empty;
    auto it = scalars_.find(name);
    return it == scalars_.end() ? empty : it->second;
}

bool
StatGroup::hasScalar(const std::string &name) const
{
    return scalars_.count(name) > 0;
}

double
geomean(const std::vector<double> &values)
{
    if (values.empty())
        return 0.0;
    double log_sum = 0.0;
    for (double v : values) {
        camo_assert(v > 0.0, "geomean requires positive values, got ",
                    v);
        log_sum += std::log(v);
    }
    return std::exp(log_sum / static_cast<double>(values.size()));
}

} // namespace camo
