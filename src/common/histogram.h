/**
 * @file
 * Fixed-edge histogram used throughout Camouflage for inter-arrival
 * time distributions.
 *
 * Bin i covers the half-open interval [edge(i), edge(i+1)); the last
 * bin is unbounded above. Edges are strictly increasing and edge(0) is
 * the smallest representable sample (0 by default).
 */

#ifndef CAMO_COMMON_HISTOGRAM_H
#define CAMO_COMMON_HISTOGRAM_H

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/types.h"

namespace camo {

/** Histogram over uint64 samples with caller-provided bin edges. */
class Histogram
{
  public:
    /**
     * Build a histogram from explicit lower edges.
     * @param lower_edges strictly increasing lower edge per bin;
     *        lower_edges[0] is typically 0.
     */
    explicit Histogram(std::vector<std::uint64_t> lower_edges);

    /** Geometric edges: 0, base, base*ratio, ... (nbins total). */
    static Histogram makeGeometric(std::size_t nbins, std::uint64_t base,
                                   double ratio);

    /** Index of the bin a sample falls into. */
    std::size_t binOf(std::uint64_t sample) const;

    /** Record one sample. */
    void add(std::uint64_t sample);

    /** Record a sample with an explicit weight. */
    void add(std::uint64_t sample, std::uint64_t weight);

    /** Zero all counts (edges retained). */
    void clear();

    std::size_t numBins() const { return counts_.size(); }
    std::uint64_t count(std::size_t bin) const { return counts_.at(bin); }
    std::uint64_t totalCount() const { return total_; }
    std::uint64_t lowerEdge(std::size_t bin) const { return edges_.at(bin); }

    /** Per-bin probability mass; all zeros if the histogram is empty. */
    std::vector<double> pmf() const;

    /** Shannon entropy in bits of the pmf (0 if empty). */
    double entropyBits() const;

    /**
     * Total variation distance to another histogram's pmf.
     * @pre identical bin count.
     */
    double totalVariationDistance(const Histogram &other) const;

    /** Render an ASCII bar chart (for bench output). */
    std::string toAscii(std::size_t width = 50) const;

  private:
    std::vector<std::uint64_t> edges_;
    std::vector<std::uint64_t> counts_;
    std::uint64_t total_ = 0;
};

} // namespace camo

#endif // CAMO_COMMON_HISTOGRAM_H
