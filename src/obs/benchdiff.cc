#include "src/obs/benchdiff.h"

#include <cstdio>
#include <limits>

#include "src/common/build_info.h"

namespace camo::obs {

json::Value
buildInfoJson()
{
    const BuildInfo &b = buildInfo();
    json::Value v = json::Value::makeObject();
    v["git_sha"] = json::Value(b.gitSha);
    v["git_dirty"] = json::Value(b.gitDirty);
    v["compiler"] = json::Value(b.compiler);
    v["build_type"] = json::Value(b.buildType);
    v["cxx_flags"] = json::Value(b.cxxFlags);
    return v;
}

namespace {

/** Numeric field at doc[path0][path1]... or nullptr. */
const json::Value *
findPath(const json::Value &doc, const std::vector<std::string> &path)
{
    const json::Value *at = &doc;
    for (const std::string &key : path) {
        at = at->find(key);
        if (!at)
            return nullptr;
    }
    return at->isNumber() ? at : nullptr;
}

/** single_thread row for `mitigation`, or nullptr. */
const json::Value *
singleThreadRow(const json::Value &doc, const std::string &mitigation)
{
    const json::Value *rows = doc.find("single_thread");
    if (!rows || !rows->isArray())
        return nullptr;
    for (const json::Value &row : rows->asArray()) {
        const json::Value *m = row.find("mitigation");
        if (m && m->isString() && m->asString() == mitigation)
            return &row;
    }
    return nullptr;
}

struct MetricSpec
{
    std::string name;
    bool higherIsBetter;
    bool ratio; ///< machine-independent => gated by default
};

void
compareOne(DiffReport &report, const DiffOptions &opts,
           const std::string &name, const json::Value *before,
           const json::Value *after, bool higher_is_better, bool ratio)
{
    if (!before || !after) {
        report.notes.push_back("metric " + name + " missing in " +
                               (before ? "new" : "baseline") +
                               " report (skipped)");
        return;
    }
    MetricDelta d;
    d.name = name;
    d.before = before->asNumber();
    d.after = after->asNumber();
    d.higherIsBetter = higher_is_better;
    d.gated = ratio || opts.gateAbsolute;
    report.metrics.push_back(d);
}

int
schemaVersionOf(const json::Value &doc)
{
    const json::Value *v = doc.find("schema_version");
    const auto n = v ? json::toUnsigned(*v, std::numeric_limits<int>::max())
                     : std::nullopt;
    return static_cast<int>(n.value_or(1));
}

} // namespace

std::vector<const MetricDelta *>
DiffReport::regressions() const
{
    std::vector<const MetricDelta *> out;
    for (const MetricDelta &m : metrics) {
        if (m.gated && m.regressed(threshold))
            out.push_back(&m);
    }
    return out;
}

std::string
DiffReport::text() const
{
    std::string out;
    char buf[256];
    std::snprintf(buf, sizeof buf, "%-44s %12s %12s %8s  %s\n",
                  "metric", "baseline", "new", "change", "status");
    out += buf;
    for (const MetricDelta &m : metrics) {
        const double change = m.relativeChange() * 100.0;
        const char *status =
            !m.gated ? "info"
                     : (m.regressed(threshold) ? "REGRESSED" : "ok");
        std::snprintf(buf, sizeof buf,
                      "%-44s %12.4g %12.4g %+7.1f%%  %s\n",
                      m.name.c_str(), m.before, m.after, change,
                      status);
        out += buf;
    }
    for (const std::string &n : notes)
        out += "note: " + n + "\n";
    const auto bad = regressions();
    if (bad.empty()) {
        std::snprintf(buf, sizeof buf,
                      "OK: no gated metric regressed more than "
                      "%.0f%%\n", threshold * 100.0);
    } else {
        std::snprintf(buf, sizeof buf,
                      "FAIL: %zu gated metric(s) regressed more than "
                      "%.0f%%\n", bad.size(), threshold * 100.0);
    }
    out += buf;
    return out;
}

DiffReport
diffBenchReports(const json::Value &before, const json::Value &after,
                 const DiffOptions &opts)
{
    DiffReport report;
    report.threshold = opts.threshold;

    const int vb = schemaVersionOf(before);
    const int va = schemaVersionOf(after);
    if (vb != va) {
        report.notes.push_back(
            "schema versions differ (baseline v" + std::to_string(vb) +
            ", new v" + std::to_string(va) +
            "); comparing the common metrics");
    }

    static const std::vector<MetricSpec> kSingleThread = {
        {"ticks_per_sec_loop", true, false},
        {"ticks_per_sec_fastforward", true, false},
        {"speedup", true, true},
    };
    // Compare whatever mitigation rows the baseline carries (matched
    // by name in the new report), so adding or dropping a mitigation
    // is a note, not a hard failure.
    const json::Value *base_rows = before.find("single_thread");
    if (base_rows && base_rows->isArray()) {
        for (const json::Value &rb : base_rows->asArray()) {
            const json::Value *m = rb.find("mitigation");
            if (!m || !m->isString())
                continue;
            const std::string &mit = m->asString();
            const json::Value *ra = singleThreadRow(after, mit);
            if (!ra) {
                report.notes.push_back("single_thread row '" + mit +
                                       "' missing in new report "
                                       "(skipped)");
                continue;
            }
            for (const MetricSpec &spec : kSingleThread) {
                compareOne(report, opts,
                           "single_thread." + mit + "." + spec.name,
                           rb.find(spec.name), ra->find(spec.name),
                           spec.higherIsBetter, spec.ratio);
            }
        }
    } else {
        report.notes.push_back(
            "single_thread section missing in baseline report "
            "(skipped)");
    }

    // sweep.speedup is a ratio, but it is only meaningful when both
    // reports actually ran multi-worker with the same worker count:
    // at jobs=1 the "speedup" is pure scheduler/load noise, and
    // across differing worker counts it is apples to oranges.
    const json::Value *jobs_b = findPath(before, {"sweep", "jobs"});
    const json::Value *jobs_a = findPath(after, {"sweep", "jobs"});
    const bool gate_sweep = jobs_b && jobs_a &&
                            jobs_b->asNumber() == jobs_a->asNumber() &&
                            jobs_b->asNumber() > 1.0;
    if (!gate_sweep && (before.find("sweep") || after.find("sweep"))) {
        report.notes.push_back(
            "sweep.speedup not gated (worker counts unrecorded, "
            "unequal, or jobs<=1 makes the ratio load noise)");
    }
    // A report produced on a single-hardware-thread host says so
    // explicitly; surface that rather than leaving a silently absent
    // speedup metric.
    const auto note_skipped = [&report](const json::Value &doc,
                                        const char *which) {
        const json::Value *sw = doc.find("sweep");
        const json::Value *n = sw ? sw->find("note") : nullptr;
        if (n && n->isString() &&
            n->asString() == "skipped_parallel_speedup") {
            report.notes.push_back(
                std::string(which) +
                " report ran on a single-hardware-thread host "
                "(sweep.note=skipped_parallel_speedup): the parallel "
                "speedup was deliberately not recorded, wall-clocks "
                "compared informationally");
        }
    };
    note_skipped(before, "baseline");
    note_skipped(after, "new");
    static const std::vector<MetricSpec> kSweep = {
        {"wall_clock_jobs1_sec", false, false},
        {"wall_clock_jobsN_sec", false, false},
        {"speedup", true, true},
    };
    for (const MetricSpec &spec : kSweep) {
        compareOne(report, opts, "sweep." + spec.name,
                   findPath(before, {"sweep", spec.name}),
                   findPath(after, {"sweep", spec.name}),
                   spec.higherIsBetter, spec.ratio && gate_sweep);
    }

    // The compiled-plan setup cost (perf_report "setup" section,
    // schema v3). Per-sim wall-clocks are host absolutes; the
    // one-shot/reused-plan speedup is a same-host ratio and gated —
    // losing it means instantiation started re-doing per-run work the
    // SystemPlan layer exists to amortize.
    if (before.find("setup") || after.find("setup")) {
        static const std::vector<MetricSpec> kSetup = {
            {"sec_per_sim_oneshot", false, false},
            {"sec_per_sim_plan", false, false},
            {"speedup", true, true},
        };
        for (const MetricSpec &spec : kSetup) {
            compareOne(report, opts, "setup." + spec.name,
                       findPath(before, {"setup", spec.name}),
                       findPath(after, {"setup", spec.name}),
                       spec.higherIsBetter, spec.ratio);
        }
    }

    // The attack-scenario catalog (BENCH_scenarios.json). Rows are
    // matched by scenario name, like single_thread rows, so adding a
    // scenario is a note on old baselines rather than a failure. The
    // two indicator columns are simulated-time booleans and must stay
    // at 1.0 (the channel still opens unshaped; shaping still closes
    // it); slowdown is a simulated ratio and is gated too. Raw
    // BER/MI/capacity numbers shift with legitimate model tuning, so
    // they ride along informationally.
    const json::Value *scen_rows = before.find("scenarios");
    if (scen_rows && scen_rows->isArray()) {
        static const std::vector<MetricSpec> kScenario = {
            {"ber_open", false, false},
            {"ber_shaped", true, false},
            {"capacity_open_bits_per_pulse", true, false},
            {"capacity_shaped_bits_per_pulse", false, false},
            {"window_mi_open_bits", true, false},
            {"window_mi_shaped_bits", false, false},
            {"slowdown", false, true},
            {"channel_open", true, true},
            {"shaping_effective", true, true},
        };
        for (const json::Value &rb : scen_rows->asArray()) {
            const json::Value *nm = rb.find("name");
            if (!nm || !nm->isString())
                continue;
            const std::string &name = nm->asString();
            const json::Value *ra = nullptr;
            const json::Value *after_rows = after.find("scenarios");
            if (after_rows && after_rows->isArray()) {
                for (const json::Value &row : after_rows->asArray()) {
                    const json::Value *m = row.find("name");
                    if (m && m->isString() && m->asString() == name) {
                        ra = &row;
                        break;
                    }
                }
            }
            if (!ra) {
                report.notes.push_back("scenarios row '" + name +
                                       "' missing in new report "
                                       "(skipped)");
                continue;
            }
            for (const MetricSpec &spec : kScenario) {
                // Covert-only columns are absent from key-less rows;
                // skip silently rather than noting each.
                if (!rb.find(spec.name) && !ra->find(spec.name))
                    continue;
                compareOne(report, opts,
                           "scenarios." + name + "." + spec.name,
                           rb.find(spec.name), ra->find(spec.name),
                           spec.higherIsBetter, spec.ratio);
            }
        }
    }

    // The chaos-soak report (BENCH_server.json). Correctness ratios
    // (every job accounted, results byte-identical, clean drain) are
    // gated: they are machine-independent and must stay at 1.0.
    // Throughput and latency are machine-dependent absolutes, so
    // they stay informational rows.
    if (before.find("server")) {
        static const std::vector<MetricSpec> kServer = {
            {"jobs_per_sec", true, false},
            {"p99_latency_ms", false, false},
            {"accounted_ratio", true, true},
            {"byte_identical", true, true},
            {"clean_exit", true, true},
        };
        for (const MetricSpec &spec : kServer) {
            compareOne(report, opts, "server." + spec.name,
                       findPath(before, {"server", spec.name}),
                       findPath(after, {"server", spec.name}),
                       spec.higherIsBetter, spec.ratio);
        }
    }

    return report;
}

} // namespace camo::obs
