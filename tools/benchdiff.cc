/**
 * @file
 * benchdiff — compare two perf reports and gate on regressions.
 *
 *   benchdiff [--threshold=F] [--gate-absolute] BASELINE.json NEW.json
 *
 * Prints a metric-by-metric table (see src/obs/benchdiff.h for which
 * metrics are gated vs informational) and exits 1 when any gated
 * metric regressed beyond the threshold (default 0.10 = 10%), so CI
 * can track the simulator's performance trajectory against the
 * committed BENCH_ticks.json baseline.
 *
 * Exit codes: 0 no gated regression, 1 regression, 2 usage/IO/parse
 * error.
 */

#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "src/common/parse.h"
#include "src/obs/benchdiff.h"
#include "src/obs/json.h"

using namespace camo;

namespace {

void
usage(std::FILE *out)
{
    std::fprintf(out,
                 "usage: benchdiff [--threshold=F] [--gate-absolute] "
                 "BASELINE.json NEW.json\n"
                 "  --threshold=F     relative regression tolerance "
                 "(default 0.10)\n"
                 "  --gate-absolute   gate host-dependent metrics "
                 "(ticks/sec, wall\n"
                 "                    seconds) too, not just "
                 "machine-independent ratios\n");
}

bool
loadJson(const std::string &path, obs::json::Value &out)
{
    std::ifstream is(path);
    if (!is) {
        std::fprintf(stderr, "benchdiff: cannot open %s\n",
                     path.c_str());
        return false;
    }
    std::ostringstream ss;
    ss << is.rdbuf();
    const auto parsed = obs::json::tryParse(ss.str());
    if (!parsed) {
        std::fprintf(stderr, "benchdiff: %s is not valid JSON\n",
                     path.c_str());
        return false;
    }
    out = *parsed;
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    obs::DiffOptions opts;
    std::vector<std::string> files;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--help" || arg == "-h") {
            usage(stdout);
            return 0;
        }
        if (arg == "--gate-absolute") {
            opts.gateAbsolute = true;
            continue;
        }
        if (arg.rfind("--threshold=", 0) == 0) {
            const std::string v = arg.substr(12);
            const auto threshold =
                parseReal(v, 0.0, std::numeric_limits<double>::max());
            if (!threshold) {
                std::fprintf(stderr,
                             "benchdiff: bad --threshold '%s'\n",
                             v.c_str());
                return 2;
            }
            opts.threshold = *threshold;
            continue;
        }
        if (arg.rfind("--", 0) == 0) {
            std::fprintf(stderr, "benchdiff: unknown option '%s'\n",
                         arg.c_str());
            usage(stderr);
            return 2;
        }
        files.push_back(arg);
    }
    if (files.size() != 2) {
        usage(stderr);
        return 2;
    }

    obs::json::Value before, after;
    if (!loadJson(files[0], before) || !loadJson(files[1], after))
        return 2;

    const obs::DiffReport report =
        obs::diffBenchReports(before, after, opts);
    std::printf("%s", report.text().c_str());
    return report.ok() ? 0 : 1;
}
