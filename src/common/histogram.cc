#include "src/common/histogram.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "src/common/logging.h"

namespace camo {

Histogram::Histogram(std::vector<std::uint64_t> lower_edges)
    : edges_(std::move(lower_edges)), counts_(edges_.size(), 0)
{
    camo_assert(!edges_.empty(), "histogram needs at least one bin");
    for (std::size_t i = 1; i < edges_.size(); ++i) {
        camo_assert(edges_[i] > edges_[i - 1],
                    "histogram edges must be strictly increasing");
    }
}

Histogram
Histogram::makeGeometric(std::size_t nbins, std::uint64_t base, double ratio)
{
    camo_assert(nbins >= 1 && base >= 1 && ratio > 1.0,
                "bad geometric histogram spec");
    std::vector<std::uint64_t> edges;
    edges.reserve(nbins);
    edges.push_back(0);
    double edge = static_cast<double>(base);
    for (std::size_t i = 1; i < nbins; ++i) {
        auto e = static_cast<std::uint64_t>(edge);
        if (!edges.empty() && e <= edges.back())
            e = edges.back() + 1;
        edges.push_back(e);
        edge *= ratio;
    }
    return Histogram(std::move(edges));
}

std::size_t
Histogram::binOf(std::uint64_t sample) const
{
    // First edge greater than the sample, minus one.
    auto it = std::upper_bound(edges_.begin(), edges_.end(), sample);
    if (it == edges_.begin())
        return 0; // sample below edge(0); clamp into the first bin
    return static_cast<std::size_t>(it - edges_.begin()) - 1;
}

void
Histogram::add(std::uint64_t sample)
{
    add(sample, 1);
}

void
Histogram::add(std::uint64_t sample, std::uint64_t weight)
{
    counts_[binOf(sample)] += weight;
    total_ += weight;
}

void
Histogram::clear()
{
    std::fill(counts_.begin(), counts_.end(), 0);
    total_ = 0;
}

std::vector<double>
Histogram::pmf() const
{
    std::vector<double> p(counts_.size(), 0.0);
    if (total_ == 0)
        return p;
    for (std::size_t i = 0; i < counts_.size(); ++i)
        p[i] = static_cast<double>(counts_[i]) / static_cast<double>(total_);
    return p;
}

double
Histogram::entropyBits() const
{
    double h = 0.0;
    for (double p : pmf()) {
        if (p > 0.0)
            h -= p * std::log2(p);
    }
    return h;
}

double
Histogram::totalVariationDistance(const Histogram &other) const
{
    camo_assert(numBins() == other.numBins(),
                "TVD requires identical binning");
    const auto p = pmf();
    const auto q = other.pmf();
    double tvd = 0.0;
    for (std::size_t i = 0; i < p.size(); ++i)
        tvd += std::abs(p[i] - q[i]);
    return tvd / 2.0;
}

std::string
Histogram::toAscii(std::size_t width) const
{
    std::ostringstream os;
    const auto p = pmf();
    for (std::size_t i = 0; i < numBins(); ++i) {
        os << "[" << edges_[i] << ", "
           << (i + 1 < numBins() ? std::to_string(edges_[i + 1]) : "inf")
           << ")\t" << counts_[i] << "\t";
        const auto bar = static_cast<std::size_t>(p[i] * width + 0.5);
        for (std::size_t b = 0; b < bar; ++b)
            os << '#';
        os << "\n";
    }
    return os.str();
}

} // namespace camo
