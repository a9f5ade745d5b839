/**
 * @file
 * Perf-trajectory report schema + regression diff.
 *
 * bench/perf_report emits one schema-versioned BENCH_ticks.json per
 * build (provenance-stamped via buildInfo()); diffBenchReports()
 * compares two such reports metric-by-metric and flags regressions
 * beyond a threshold. Ratio metrics (fast-forward speedup, sweep
 * parallel speedup) are machine-independent and *gated*; absolute
 * metrics (ticks/sec, wall seconds) vary with the host and are
 * informational unless gateAbsolute is set. tools/benchdiff wraps
 * this as the CI regression gate (exit 1 on any gated regression).
 */

#ifndef CAMO_OBS_BENCHDIFF_H
#define CAMO_OBS_BENCHDIFF_H

#include <string>
#include <vector>

#include "src/obs/json.h"

namespace camo::obs {

/** Schema version written by bench/perf_report. v3 added the "setup"
 *  section (compiled-plan construction cost). */
inline constexpr int kBenchSchemaVersion = 3;

/** buildInfo() as a JSON object ("git_sha", "git_dirty", "compiler",
 *  "build_type", "cxx_flags") — the provenance stamp every bench
 *  report carries. */
json::Value buildInfoJson();

/** One metric compared across two reports. */
struct MetricDelta
{
    std::string name;  ///< dotted path, e.g. "single_thread.bdc.speedup"
    double before = 0.0;
    double after = 0.0;
    bool higherIsBetter = true;
    bool gated = false; ///< counts toward the regression verdict

    /** Relative change in the "better" direction (negative = worse). */
    double
    relativeChange() const
    {
        if (before == 0.0)
            return 0.0;
        const double d = (after - before) / before;
        return higherIsBetter ? d : -d;
    }

    bool
    regressed(double threshold) const
    {
        return relativeChange() < -threshold;
    }
};

struct DiffOptions
{
    double threshold = 0.10; ///< relative regression tolerance
    bool gateAbsolute = false;
};

struct DiffReport
{
    std::vector<MetricDelta> metrics;
    /** Schema/shape issues (missing metrics, version mismatch). */
    std::vector<std::string> notes;
    double threshold = 0.10;

    /** Gated metrics that regressed beyond the threshold. */
    std::vector<const MetricDelta *> regressions() const;
    bool ok() const { return regressions().empty(); }

    /** Human-readable table + verdict. */
    std::string text() const;
};

/** Compare two perf reports (old baseline vs new run). */
DiffReport diffBenchReports(const json::Value &before,
                            const json::Value &after,
                            const DiffOptions &opts = {});

} // namespace camo::obs

#endif // CAMO_OBS_BENCHDIFF_H
