/**
 * @file
 * Online leakage monitor: runtime mutual-information estimation over
 * the traffic a core actually puts on the shared request channel.
 *
 * The offline analysis (security::computeShapingMi) pairs the k-th
 * real shaped event with the k-th intrinsic LLC-miss event and
 * measures I(intrinsic gap; shaped gap) after the run. This monitor
 * performs the *same* pairing incrementally while the simulation
 * runs, consuming the DistributionMonitor event logs through
 * cursors:
 *
 *  - a cumulative joint distribution, built with the identical
 *    algorithm, so cumulativeResult() equals the offline number
 *    exactly (tests pin this), and
 *  - a sliding window of recent (intrinsic-bin, shaped-bin) pairs,
 *    re-evaluated every checkPeriod cycles, giving a *windowed* MI
 *    time series that reacts to leakage transients (e.g. a fault that
 *    bypasses the shaper) instead of diluting them into a run-length
 *    average.
 *
 * When a configured alert threshold is breached on consecutive
 * window evaluations, poll() returns an alert message; the System
 * escalates it through the src/hard structured-error machinery
 * (hard::LeakageAlert, camosim exit code 6, JSON diagnostic).
 *
 * Motivated by treating leakage as a continuously measured quantity
 * (arxiv 1906.08957) rather than a one-shot offline number.
 */

#ifndef CAMO_OBS_LEAKMON_H
#define CAMO_OBS_LEAKMON_H

#include <cstdint>
#include <deque>
#include <limits>
#include <string>
#include <vector>

#include "src/camouflage/monitor.h"
#include "src/common/histogram.h"
#include "src/common/stats.h"
#include "src/common/types.h"
#include "src/security/mutual_information.h"

namespace camo::obs {

struct LeakMonitorConfig
{
    /** Core whose intrinsic/bus streams are monitored. */
    std::uint32_t core = 0;
    /** Sliding-window width in cycles. */
    Cycle windowCycles = 50000;
    /** Re-evaluate the window every this many cycles. */
    Cycle checkPeriod = 10000;
    /**
     * Windowed-MI alert threshold in bits; infinity (the default)
     * monitors without alerting.
     */
    double alertThresholdBits =
        std::numeric_limits<double>::infinity();
    /** Windows with fewer pairs than this never alert (an MI
     *  estimate over a handful of samples is noise). */
    std::uint64_t minWindowPairs = 64;
    /** Consecutive breaching windows required before alerting. */
    std::uint32_t consecutiveBreaches = 2;

    // Quantizer for inter-arrival gaps; defaults mirror
    // security::makeMiQuantizer.
    std::size_t quantBins = 32;
    Cycle quantBase = 8;
    double quantRatio = 1.6;

    bool
    alerting() const
    {
        return alertThresholdBits <
               std::numeric_limits<double>::infinity();
    }
};

/** One window evaluation, kept as a time series. */
struct LeakWindowSample
{
    Cycle at = 0;
    double miBits = 0.0;
    std::uint64_t pairs = 0;
    bool breach = false;
};

class LeakMonitor
{
  public:
    /**
     * @param intrinsic pre-shaper (LLC-miss) stream monitor
     * @param shaped what actually went onto the request channel
     * Both must have event logging enabled and outlive the monitor.
     */
    LeakMonitor(const LeakMonitorConfig &cfg,
                const shaper::DistributionMonitor &intrinsic,
                const shaper::DistributionMonitor &shaped);

    /**
     * Consume newly logged events and, when a check is due, evaluate
     * the window. Returns a non-empty alert message the first time
     * the breach-streak condition is met; the caller escalates.
     */
    std::string poll(Cycle now);

    /** Next cycle at which poll() will evaluate (fast-forward
     *  bound). */
    Cycle nextCheckAt() const { return nextCheckAt_; }

    const LeakMonitorConfig &config() const { return cfg_; }

    /** Most recent window evaluation (0 bits before the first). */
    double lastWindowMiBits() const { return lastMiBits_; }
    double peakWindowMiBits() const { return peakMiBits_; }
    const std::vector<LeakWindowSample> &history() const
    {
        return history_;
    }

    bool alerted() const { return alerted_; }
    Cycle alertAt() const { return alertAt_; }

    /**
     * Consume any remaining events and compute the cumulative MI over
     * everything observed so far. Equals
     * security::computeShapingMi(intrinsic.events(), shaped.events(),
     * quantizer) exactly — same pairing, same estimator.
     */
    security::ShapingMiResult cumulativeResult();

    const StatGroup &stats() const { return stats_; }

  private:
    void consume();
    std::string evaluate(Cycle now);
    std::size_t idleSymbol() const { return cfg_.quantBins; }

    LeakMonitorConfig cfg_;
    const shaper::DistributionMonitor *intrinsic_;
    const shaper::DistributionMonitor *shaped_;
    Histogram quantizer_;

    // Intrinsic-side cursor state.
    std::size_t xIdx_ = 0;
    bool haveX_ = false;
    Cycle lastX_ = 0;
    std::vector<std::size_t> xbins_; ///< gap bin per real ordinal
    Histogram intrinsicHist_;        ///< for H(X)

    // Shaped-side cursor state (mirrors computeShapingMi's walk).
    std::size_t yIdx_ = 0;
    bool haveY_ = false;
    Cycle lastY_ = 0;
    std::size_t realSeen_ = 0;
    std::uint64_t fakeEvents_ = 0;

    struct Pair
    {
        Cycle at;
        std::uint32_t x, y;
    };
    std::deque<Pair> window_;
    security::JointDistribution cumulative_;

    Cycle nextCheckAt_;
    double lastMiBits_ = 0.0;
    double peakMiBits_ = 0.0;
    std::vector<LeakWindowSample> history_;
    std::uint32_t breachStreak_ = 0;
    bool alerted_ = false;
    Cycle alertAt_ = 0;
    StatGroup stats_;
};

} // namespace camo::obs

#endif // CAMO_OBS_LEAKMON_H
