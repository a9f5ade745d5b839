/**
 * @file
 * Simulator performance report (the perf-trajectory baseline).
 * Measures:
 *
 *  1. Single-thread simulation speed (CPU-cycles simulated per
 *     wall-clock second) with the idle-cycle fast-forward on vs off,
 *     per mitigation -- and asserts the two modes produce identical
 *     RunMetrics, since the fast-forward is contractually bit-exact.
 *  2. Wall-clock of a representative bench sweep at jobs=1 vs
 *     jobs=N (the parallel experiment engine), again asserting the
 *     results match exactly.
 *
 * Emits BENCH_ticks.json (override the path with argv[1]; argv[2]
 * scales the per-run cycle count), stamped with the schema version
 * and build provenance so tools/benchdiff can compare two reports
 * and CI can gate on regressions against the committed baseline.
 */

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "src/camouflage/bin_config.h"
#include "src/common/logging.h"
#include "src/obs/benchdiff.h"
#include "src/obs/json.h"
#include "src/sim/parallel.h"
#include "src/sim/plan.h"
#include "src/sim/presets.h"
#include "src/sim/runner.h"

using namespace camo;

namespace {

double
secondsSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

bool
sameMetrics(const sim::RunMetrics &a, const sim::RunMetrics &b)
{
    return a.cycles == b.cycles && a.ipc == b.ipc &&
           a.retired == b.retired && a.servedReads == b.servedReads &&
           a.avgReadLatency == b.avgReadLatency && a.alpha == b.alpha;
}

} // namespace

int
main(int argc, char **argv)
{
    const std::string out_path =
        argc > 1 ? argv[1] : "BENCH_ticks.json";
    const Cycle cycles =
        argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 400000;

    obs::json::Value root = obs::json::Value::makeObject();
    root["schema_version"] =
        obs::json::Value(obs::kBenchSchemaVersion);
    root["bench"] = obs::json::Value("perf_report");
    root["build"] = obs::buildInfoJson();
    root["cycles_per_run"] = obs::json::Value(cycles);

    // --- 1. tick-loop speed, fast-forward off vs on -------------
    const auto mix = sim::adversaryMix("mcf", "astar");
    obs::json::Value single = obs::json::Value::makeArray();
    std::printf("%-12s %14s %14s %9s\n", "mitigation",
                "ticks/s (loop)", "ticks/s (ff)", "speedup");
    for (const auto mit :
         {sim::Mitigation::None, sim::Mitigation::CS,
          sim::Mitigation::BDC, sim::Mitigation::TP}) {
        sim::SystemConfig cfg = sim::paperConfig();
        cfg.mitigation = mit;

        cfg.fastForward = false;
        auto t0 = std::chrono::steady_clock::now();
        const auto plain = sim::runConfig(cfg, mix, cycles);
        const double s_plain = secondsSince(t0);

        cfg.fastForward = true;
        t0 = std::chrono::steady_clock::now();
        const auto fast = sim::runConfig(cfg, mix, cycles);
        const double s_fast = secondsSince(t0);

        camo_assert(sameMetrics(plain, fast),
                    "fast-forward diverged for mitigation ",
                    sim::mitigationName(mit));

        const double tps_plain = static_cast<double>(cycles) / s_plain;
        const double tps_fast = static_cast<double>(cycles) / s_fast;
        std::printf("%-12s %14.0f %14.0f %8.2fx\n",
                    sim::mitigationName(mit), tps_plain, tps_fast,
                    tps_fast / tps_plain);

        obs::json::Value row = obs::json::Value::makeObject();
        row["mitigation"] =
            obs::json::Value(sim::mitigationName(mit));
        row["ticks_per_sec_loop"] = obs::json::Value(tps_plain);
        row["ticks_per_sec_fastforward"] = obs::json::Value(tps_fast);
        row["speedup"] = obs::json::Value(tps_fast / tps_plain);
        single.push(std::move(row));
    }
    // --- 1b. DRAM-idle-heavy configurations ---------------------
    // The event kernel's headline case (ISSUE 7): sparse receivers
    // probing every 2000 cycles, so almost every cycle is provably
    // idle. The BDC row programs a sparse shaped distribution to
    // match (the hypervisor's choice for a low-intensity victim) --
    // with the default desired() bins BDC saturates DRAM with fakes
    // and no kernel can skip that work. A longer window than the
    // busy rows keeps the event-kernel timing above clock
    // resolution; both modes run the same window, so the bit-exact
    // assert and the per-row normalization stay valid.
    const Cycle idle_cycles = cycles * 10;
    const std::vector<std::string> idle_mix(4, "probe:2000");
    shaper::BinConfig sparse_bins;
    sparse_bins.edges = {0, 500, 1000, 2000, 4000};
    sparse_bins.credits = {0, 4, 8, 4, 1};
    sparse_bins.replenishPeriod = 30000;
    for (const auto mit :
         {sim::Mitigation::None, sim::Mitigation::BDC}) {
        sim::SystemConfig cfg = sim::paperConfig();
        cfg.mitigation = mit;
        cfg.reqBins = sparse_bins;
        cfg.respBins = sparse_bins;

        cfg.fastForward = false;
        auto t0 = std::chrono::steady_clock::now();
        const auto plain = sim::runConfig(cfg, idle_mix, idle_cycles);
        const double s_plain = secondsSince(t0);

        cfg.fastForward = true;
        t0 = std::chrono::steady_clock::now();
        const auto fast = sim::runConfig(cfg, idle_mix, idle_cycles);
        const double s_fast = secondsSince(t0);

        camo_assert(sameMetrics(plain, fast),
                    "event kernel diverged for idle-probe ",
                    sim::mitigationName(mit));

        const std::string label =
            std::string(sim::mitigationName(mit)) + "/idle-probe";
        const double tps_plain =
            static_cast<double>(idle_cycles) / s_plain;
        const double tps_fast =
            static_cast<double>(idle_cycles) / s_fast;
        std::printf("%-22s %14.0f %14.0f %8.2fx\n", label.c_str(),
                    tps_plain, tps_fast, tps_fast / tps_plain);

        obs::json::Value row = obs::json::Value::makeObject();
        row["mitigation"] = obs::json::Value(label);
        row["ticks_per_sec_loop"] = obs::json::Value(tps_plain);
        row["ticks_per_sec_fastforward"] = obs::json::Value(tps_fast);
        row["speedup"] = obs::json::Value(tps_fast / tps_plain);
        single.push(std::move(row));
    }
    root["single_thread"] = std::move(single);

    // --- 2. per-sim setup cost: one-shot plan vs reused plan ----
    // A single run builds a plan and instantiates it once, paying
    // the workload-name parsing and trace-file loads every time; a
    // sweep compiles its plan once and instantiates it per job. The
    // reused-plan figure includes that one-time compilation.
    {
        const std::vector<std::string> setup_mix = {
            "mcf", "dramsim2:@sample", "astar", "astar"};
        sim::SystemConfig setup_cfg = sim::paperConfig();
        setup_cfg.mitigation = sim::Mitigation::BDC;
        constexpr int kBuilds = 64;

        auto t0 = std::chrono::steady_clock::now();
        for (int i = 0; i < kBuilds; ++i)
            (void)sim::SystemPlan(setup_cfg, setup_mix).instantiate();
        const double per_oneshot = secondsSince(t0) / kBuilds;

        t0 = std::chrono::steady_clock::now();
        const sim::SystemPlan plan(setup_cfg, setup_mix);
        for (int i = 0; i < kBuilds; ++i)
            (void)plan.instantiate();
        const double per_plan = secondsSince(t0) / kBuilds;

        std::printf("\nsetup: %.3f ms/sim one-shot, %.3f ms/sim "
                    "planned (%.2fx)\n",
                    per_oneshot * 1e3, per_plan * 1e3,
                    per_oneshot / per_plan);

        obs::json::Value setup = obs::json::Value::makeObject();
        setup["num_builds"] = obs::json::Value(
            static_cast<std::uint64_t>(kBuilds));
        setup["sec_per_sim_oneshot"] = obs::json::Value(per_oneshot);
        setup["sec_per_sim_plan"] = obs::json::Value(per_plan);
        setup["speedup"] =
            obs::json::Value(per_oneshot / per_plan);
        root["setup"] = std::move(setup);
    }

    // --- 3. sweep wall-clock, jobs=1 vs jobs=N ------------------
    std::vector<sim::SimJob> jobs;
    for (const char *adv : {"mcf", "libqt", "bzip", "apache"}) {
        for (const auto mit :
             {sim::Mitigation::None, sim::Mitigation::BDC}) {
            sim::SystemConfig cfg = sim::paperConfig();
            cfg.mitigation = mit;
            jobs.push_back(
                {cfg, sim::adversaryMix(adv, "astar"), cycles, 0});
        }
    }
    const unsigned fan = sim::defaultJobs();

    auto t0 = std::chrono::steady_clock::now();
    const auto serial = sim::runConfigsParallel(jobs, 1);
    const double s_serial = secondsSince(t0);

    t0 = std::chrono::steady_clock::now();
    const auto parallel = sim::runConfigsParallel(jobs, fan);
    const double s_parallel = secondsSince(t0);

    for (std::size_t i = 0; i < jobs.size(); ++i) {
        camo_assert(sameMetrics(serial[i], parallel[i]),
                    "parallel sweep diverged at job ", i);
    }

    std::printf("\nsweep of %zu sims: jobs=1 %.2fs, jobs=%u %.2fs "
                "(%.2fx)\n",
                jobs.size(), s_serial, fan, s_parallel,
                s_serial / s_parallel);

    obs::json::Value sweep = obs::json::Value::makeObject();
    sweep["num_sims"] = obs::json::Value(
        static_cast<std::uint64_t>(jobs.size()));
    sweep["jobs"] = obs::json::Value(
        static_cast<std::uint64_t>(fan));
    sweep["jobs_effective"] = obs::json::Value(
        static_cast<std::uint64_t>(fan));
    sweep["wall_clock_jobs1_sec"] = obs::json::Value(s_serial);
    sweep["wall_clock_jobsN_sec"] = obs::json::Value(s_parallel);
    // On a single-hardware-thread host jobs=N degenerates to serial
    // execution plus thread overhead: a "speedup" figure would be
    // noise around 1.0, so record a note instead of the number. The
    // determinism assert above still ran either way.
    if (fan <= 1) {
        sweep["note"] =
            obs::json::Value("skipped_parallel_speedup");
    } else {
        sweep["speedup"] = obs::json::Value(s_serial / s_parallel);
    }
    // jobs=1 and jobs=N were asserted metric-identical above.
    sweep["results_identical"] = obs::json::Value(true);
    root["sweep"] = std::move(sweep);

    std::ofstream os(out_path);
    if (!os)
        camo_fatal("cannot open ", out_path);
    os << root.dump(2) << "\n";
    std::printf("wrote %s\n", out_path.c_str());
    return 0;
}
