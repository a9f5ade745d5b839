/**
 * @file
 * Perf-trajectory diff tests: gated ratio metrics fail the report on
 * a >threshold regression, absolute host-dependent metrics stay
 * informational, improvements and identical reports pass, and shape
 * problems (missing metrics, schema drift) degrade to notes instead
 * of verdicts.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "src/obs/benchdiff.h"
#include "src/obs/json.h"

using namespace camo;
using obs::json::Value;

namespace {

Value
report(double speedup_bdc, double ticks_ff = 500000.0,
       double sweep_speedup = 3.0)
{
    Value root = Value::makeObject();
    root["schema_version"] = Value(obs::kBenchSchemaVersion);
    root["bench"] = Value("perf_report");

    Value rows = Value::makeArray();
    Value row = Value::makeObject();
    row["mitigation"] = Value("BDC");
    row["ticks_per_sec_loop"] = Value(250000.0);
    row["ticks_per_sec_fastforward"] = Value(ticks_ff);
    row["speedup"] = Value(speedup_bdc);
    rows.push(std::move(row));
    root["single_thread"] = std::move(rows);

    Value sweep = Value::makeObject();
    sweep["jobs"] = Value(std::uint64_t{4});
    sweep["wall_clock_jobs1_sec"] = Value(8.0);
    sweep["wall_clock_jobsN_sec"] = Value(2.0);
    sweep["speedup"] = Value(sweep_speedup);
    root["sweep"] = std::move(sweep);
    return root;
}

} // namespace

TEST(BenchDiff, IdenticalReportsPass)
{
    const Value r = report(2.0);
    const obs::DiffReport d = obs::diffBenchReports(r, r);
    EXPECT_TRUE(d.ok());
    EXPECT_TRUE(d.regressions().empty());
    EXPECT_NE(d.text().find("OK"), std::string::npos);
}

TEST(BenchDiff, TenPercentSpeedupRegressionFails)
{
    // 2.0 -> 1.7 is a 15% drop on a gated ratio metric.
    const obs::DiffReport d =
        obs::diffBenchReports(report(2.0), report(1.7));
    ASSERT_EQ(d.regressions().size(), 1u);
    EXPECT_EQ(d.regressions()[0]->name, "single_thread.BDC.speedup");
    EXPECT_FALSE(d.ok());
    EXPECT_NE(d.text().find("REGRESSED"), std::string::npos);
    EXPECT_NE(d.text().find("FAIL"), std::string::npos);
}

TEST(BenchDiff, RegressionWithinThresholdPasses)
{
    // 2.0 -> 1.9 is 5%: inside the default 10% tolerance.
    EXPECT_TRUE(obs::diffBenchReports(report(2.0), report(1.9)).ok());
    // ...but not inside a tightened 2% threshold.
    obs::DiffOptions tight;
    tight.threshold = 0.02;
    EXPECT_FALSE(
        obs::diffBenchReports(report(2.0), report(1.9), tight).ok());
}

TEST(BenchDiff, ImprovementPasses)
{
    EXPECT_TRUE(obs::diffBenchReports(report(2.0), report(3.0)).ok());
}

TEST(BenchDiff, AbsoluteMetricsAreInformationalUnlessGated)
{
    // Halved ticks/sec: host-dependent, not gated by default.
    const obs::DiffReport d = obs::diffBenchReports(
        report(2.0, 500000.0), report(2.0, 250000.0));
    EXPECT_TRUE(d.ok());

    obs::DiffOptions gate_abs;
    gate_abs.gateAbsolute = true;
    const obs::DiffReport g = obs::diffBenchReports(
        report(2.0, 500000.0), report(2.0, 250000.0), gate_abs);
    EXPECT_FALSE(g.ok());
}

TEST(BenchDiff, SweepSpeedupIsGated)
{
    const obs::DiffReport d = obs::diffBenchReports(
        report(2.0, 500000.0, 3.0), report(2.0, 500000.0, 2.0));
    ASSERT_EQ(d.regressions().size(), 1u);
    EXPECT_EQ(d.regressions()[0]->name, "sweep.speedup");
}

TEST(BenchDiff, SweepSpeedupNotGatedWithoutMatchingMultiJobCounts)
{
    // jobs=1 on either side: the "speedup" is load noise, so even a
    // big drop must stay informational (with a note saying why).
    auto with_jobs = [](double sweep_speedup, std::uint64_t jobs) {
        Value r = report(2.0, 500000.0, sweep_speedup);
        r["sweep"]["jobs"] = Value(jobs);
        return r;
    };
    const obs::DiffReport single = obs::diffBenchReports(
        with_jobs(3.0, 1), with_jobs(1.5, 1));
    EXPECT_TRUE(single.ok());
    EXPECT_FALSE(single.notes.empty());

    const obs::DiffReport unequal = obs::diffBenchReports(
        with_jobs(3.0, 4), with_jobs(1.5, 2));
    EXPECT_TRUE(unequal.ok());
}

TEST(BenchDiff, SetupSpeedupIsGatedAndWallClocksAreNot)
{
    auto with_setup = [](double oneshot, double plan) {
        Value r = report(2.0);
        Value setup = Value::makeObject();
        setup["sec_per_sim_oneshot"] = Value(oneshot);
        setup["sec_per_sim_plan"] = Value(plan);
        setup["speedup"] = Value(oneshot / plan);
        r["setup"] = std::move(setup);
        return r;
    };
    // 4x -> 1.5x plan speedup: a gated regression.
    const obs::DiffReport d = obs::diffBenchReports(
        with_setup(0.004, 0.001), with_setup(0.003, 0.002));
    ASSERT_EQ(d.regressions().size(), 1u);
    EXPECT_EQ(d.regressions()[0]->name, "setup.speedup");

    // Uniformly slower host, same ratio: absolutes stay informational.
    EXPECT_TRUE(obs::diffBenchReports(with_setup(0.004, 0.001),
                                      with_setup(0.008, 0.002))
                    .ok());
}

TEST(BenchDiff, SkippedParallelSpeedupGetsAnExplicitNote)
{
    Value one_core = report(2.0);
    one_core["sweep"]["jobs"] = Value(std::uint64_t{1});
    Value &sweep = one_core["sweep"];
    // A 1-core report records the note instead of the number.
    sweep["note"] = Value("skipped_parallel_speedup");

    const obs::DiffReport d =
        obs::diffBenchReports(report(2.0), one_core);
    EXPECT_TRUE(d.ok());
    bool found = false;
    for (const std::string &n : d.notes)
        found = found || n.find("skipped_parallel_speedup") !=
                             std::string::npos;
    EXPECT_TRUE(found) << "expected an explicit note naming "
                          "skipped_parallel_speedup";
}

TEST(BenchDiff, MissingMetricsBecomeNotesNotFailures)
{
    // v1-era report: no schema stamp, no sweep section, one row
    // missing its speedup field.
    Value stripped = Value::makeObject();
    Value rows = Value::makeArray();
    Value row = Value::makeObject();
    row["mitigation"] = Value("BDC");
    row["ticks_per_sec_loop"] = Value(250000.0);
    rows.push(std::move(row));
    stripped["single_thread"] = std::move(rows);
    const obs::DiffReport d =
        obs::diffBenchReports(report(2.0), stripped);
    EXPECT_TRUE(d.ok()) << "shape drift must not fail the gate";
    EXPECT_FALSE(d.notes.empty());
}

TEST(BenchDiff, BuildInfoJsonCarriesProvenanceFields)
{
    const Value b = obs::buildInfoJson();
    ASSERT_NE(b.find("git_sha"), nullptr);
    ASSERT_NE(b.find("compiler"), nullptr);
    ASSERT_NE(b.find("build_type"), nullptr);
    EXPECT_FALSE(b.find("git_sha")->asString().empty());
}
