/**
 * @file
 * perfbench — runs one benchmark workload and prints, as the
 * last line of standard output, one JSON object:
 *
 *   {"correct": ..., "attempted": N, "failed": N, "metrics": {...}}
 *
 * With --trace 0 the metrics are the end-to-end ones; with --trace 1
 * the per-layer ones. Progress and failures go to standard error.
 *
 *   perfbench --workload paper-busy --seed 1 --seconds 25 \
 *       --trace 0 --daemon BUILD/camosimd --pins perfbench/pins.json \
 *       --out BUILD/out
 *
 * perfbench/run.py builds this program and passes the paths.
 */

#include <cstdio>
#include <cstdlib>
#include <map>
#include <set>
#include <string>

#include "perfbench/bench.h"
#include "perfbench/layers.h"

using namespace perfbench;

namespace {

bool
parseArgs(int argc, char **argv, Options *opt, std::string *err)
{
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--print-digests") {
            opt->printDigests = true;
            continue;
        }
        if (i + 1 >= argc) {
            *err = "missing value for " + arg;
            return false;
        }
        const std::string value = argv[++i];
        char *end = nullptr;
        if (arg == "--workload") {
            opt->workload = value;
        } else if (arg == "--seed") {
            opt->seed = std::strtoull(value.c_str(), &end, 10);
        } else if (arg == "--seconds") {
            opt->seconds = std::strtod(value.c_str(), &end);
        } else if (arg == "--trace") {
            opt->trace = value == "1";
            if (value != "0" && value != "1") {
                *err = "--trace takes 0 or 1";
                return false;
            }
        } else if (arg == "--daemon") {
            opt->daemon = value;
        } else if (arg == "--pins") {
            opt->pins = value;
        } else if (arg == "--out") {
            opt->outDir = value;
        } else {
            *err = "unknown option " + arg;
            return false;
        }
        if (end && (*end != '\0' || value.empty())) {
            *err = "bad number for " + arg + ": " + value;
            return false;
        }
    }
    if (opt->workload.empty() || opt->pins.empty() || opt->outDir.empty() ||
        !(opt->seconds > 0.0)) {
        *err = "need --workload, --pins, --out and a positive --seconds";
        return false;
    }
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    std::string err;
    if (!parseArgs(argc, argv, &opt, &err)) {
        std::fprintf(stderr, "perfbench: %s\n", err.c_str());
        return 2;
    }
    const std::map<std::string, void (*)(const Options &, Report &)> kRun = {
        {"paper-busy", runPaperBusy},
        {"idle-probe", runIdleProbe},
        {"ga-offline", runGaOffline},
        {"daemon-uncached", runDaemonUncached},
    };
    const auto it = kRun.find(opt.workload);
    if (it == kRun.end()) {
        std::fprintf(stderr, "perfbench: unknown workload %s\n",
                     opt.workload.c_str());
        return 2;
    }
    if (opt.workload == "daemon-uncached" && opt.daemon.empty()) {
        std::fprintf(stderr, "perfbench: daemon-uncached needs "
                             "--daemon\n");
        return 2;
    }

    Report report;
    try {
        it->second(opt, report);
    } catch (const std::exception &e) {
        report.op(false, opt.workload + " threw: " + e.what());
    }

    if (opt.trace) {
        // Every traced run prints the whole per-layer set; a layer the
        // workload does not run reads 0.
        std::set<std::string> known;
        for (const auto &[name, unit] : perLayerMetrics()) {
            known.insert(name);
            if (!report.hasMetric(name))
                report.metric(name, 0.0, unit);
        }
        for (const std::string &name : report.metricNames()) {
            if (known.count(name) == 0)
                report.op(false, "metric " + name + " is not per-layer");
        }
    }
    std::printf("%s\n", report.json().c_str());
    return 0;
}
