/**
 * @file
 * camosim — command-line driver for the Camouflage simulator.
 *
 * Runs a workload mix on the paper's Table II machine under a chosen
 * mitigation and prints per-core results (optionally as CSV), with
 * knobs for the interesting configuration surface. Examples:
 *
 *   camosim --workloads=mcf,astar,astar,astar --mitigation=bdc
 *   camosim --workloads=probe,apache,apache,apache --mitigation=respc \
 *           --shape-cores=0 --cycles=2000000 --csv
 *   camosim --workloads=bzip,astar,astar,astar --mitigation=bdc --ga
 *   camosim --config=machine.json --cycles=500000
 *   camosim --workloads=mcf,astar,astar,astar --mitigation=bdc \
 *           --trace=t.jsonl --stats-json=s.json --interval-stats=10000
 *   camosim --workloads=mcf,astar,astar,astar --mitigation=bdc \
 *           --checkers --watchdog=200000 \
 *           --inject=corrupt-credits:at=80000:core=0
 *   camosim --workloads=mcf,astar,astar,astar --mitigation=bdc \
 *           --profile --profile-out=prof.json --chrome-trace=t.json
 *   camosim --workloads=covert:5A5A5A5A,apache,apache,apache \
 *           --leakmon=0.2
 *
 * The command line is table-driven: every flag is one FlagSpec row in
 * flagTable() below, which generates its parsing, value checking, and
 * usage text. To add a flag, add a row.
 *
 * Exit codes: 0 success, 1 runtime error, 2 usage error, 3 invalid
 * configuration, 4 invariant violation, 5 watchdog timeout, 6 leakage
 * alert.
 */

#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <functional>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/common/build_info.h"
#include "src/common/logging.h"
#include "src/common/parse.h"
#include "src/hard/error.h"
#include "src/hard/fault_injection.h"
#include "src/obs/benchdiff.h"
#include "src/obs/chrome_trace.h"
#include "src/obs/leakmon.h"
#include "src/obs/prof.h"
#include "src/obs/registry.h"
#include "src/obs/tracer.h"
#include "src/scenario/scenario.h"
#include "src/sim/parallel.h"
#include "src/sim/plan.h"
#include "src/sim/presets.h"
#include "src/sim/runner.h"
#include "src/sim/topology.h"
#include "src/trace/workloads.h"

using namespace camo;

namespace {

/** A command-line problem: reported with usage help, exit code 2. */
struct UsageError : std::runtime_error
{
    explicit UsageError(const std::string &msg)
        : std::runtime_error(msg)
    {
    }
};

struct Options
{
    std::vector<std::string> workloads;
    sim::Mitigation mitigation = sim::Mitigation::None;
    Cycle cycles = 1000000;
    Cycle warmup = 50000;
    std::uint64_t seed = 1;
    std::uint32_t channels = 1;
    bool fakeTraffic = true;
    bool randomizeTiming = false;
    bool csv = false;
    bool runGa = false;
    bool gaOffline = false;
    std::size_t gaGenerations = 8;
    std::size_t gaPopulation = 14;
    std::vector<bool> shapeCores; // empty = all
    unsigned jobs = 0;            // 0 = defaultJobs()
    std::uint32_t sweepSeeds = 0; // 0 = single run
    bool fastForward = true;
    bool help = false;
    bool version = false;
    bool listScenarios = false;
    std::string scenarioRef; ///< --scenario=NAME[:open|:shaped]

    /** Loaded by --config or --scenario; its SystemConfig is the base
     *  every other flag overrides. */
    std::optional<sim::TopologyConfig> topo;

    // Observability outputs.
    std::string traceFile;
    std::string traceFormat; // empty = unset (default jsonl)
    std::string statsJsonFile;
    Cycle intervalStats = 0;
    std::string intervalCsvFile;

    // Host-time profiler + Chrome-trace export.
    bool profile = false;
    std::string profileOut;
    std::string profileFolded;
    std::string chromeTraceFile;

    // Online leakage monitor.
    bool leakmon = false;
    double leakmonThreshold =
        std::numeric_limits<double>::infinity();
    Cycle leakmonWindow = 0; // 0 = library default
    std::uint32_t leakmonCore = 0;
    bool leakmonCoreSet = false;

    // Hardening layer.
    bool checkers = false;
    bool checkersRecover = false;
    Cycle watchdogWindow = 0; // 0 = off
    std::string injectSpec;
    std::uint64_t injectSeed = 0; // 0 = use --seed
    std::string diagDir; // "" = dumps go to stderr
};

/** A flag's unsigned value, at most `max` (see parseUnsigned). */
std::uint64_t
parseU64Flag(const std::string &flag, const std::string &value,
             std::uint64_t max = std::numeric_limits<std::uint64_t>::max())
{
    const auto v = parseUnsigned(value, max);
    if (!v) {
        throw UsageError(flag + "=" + value +
                         " is not an unsigned integer <= " +
                         std::to_string(max));
    }
    return *v;
}

/** parseU64Flag for a 32-bit field. */
std::uint32_t
parseU32Flag(const std::string &flag, const std::string &value)
{
    return static_cast<std::uint32_t>(parseU64Flag(
        flag, value, std::numeric_limits<std::uint32_t>::max()));
}

std::vector<std::string>
splitCommas(const std::string &s)
{
    std::vector<std::string> out;
    std::size_t start = 0;
    while (start <= s.size()) {
        const auto comma = s.find(',', start);
        if (comma == std::string::npos) {
            out.push_back(s.substr(start));
            break;
        }
        out.push_back(s.substr(start, comma - start));
        start = comma + 1;
    }
    return out;
}

/**
 * One command-line flag: its name, whether it takes a value, its
 * usage text, and the action applying it to Options. The one table
 * below drives parsing, value-shape validation, and --help output.
 */
struct FlagSpec
{
    enum class Arity
    {
        Bare,  ///< --flag
        Value, ///< --flag=VALUE
        Either ///< --flag or --flag=VALUE
    };

    std::string name;      ///< without the leading "--"
    Arity arity;
    std::string valueHint; ///< shown in usage, e.g. "N" ("" for Bare)
    std::string help;      ///< '\n' starts an indented continuation
    /** Applies the flag; `value` is "" for a bare occurrence. */
    std::function<void(Options &, const std::string &)> apply;
};

/** --config/--scenario: seed the flag defaults from the topology, so
 *  later flags override the file (two-layer configuration). */
void
applyTopology(Options &opt)
{
    const sim::TopologyConfig &t = *opt.topo;
    opt.workloads = t.workloads;
    opt.mitigation = t.system.mitigation;
    opt.seed = t.system.seed;
    opt.channels = t.system.mc.org.channels;
    opt.fakeTraffic = t.system.fakeTraffic;
    opt.randomizeTiming = t.system.randomizeTiming;
    opt.shapeCores = t.system.shapeCore;
    opt.fastForward = t.system.fastForward;
}

void
applyConfigFile(Options &opt, const std::string &path)
{
    opt.topo = sim::loadTopology(path);
    applyTopology(opt);
}

/** --scenario: resolve the registered scenario's embedded topology
 *  (same two-layer override semantics as --config). */
void
applyScenario(Options &opt, const std::string &ref)
{
    opt.topo = sim::parseTopology(scenario::scenarioTopologyJson(ref));
    applyTopology(opt);
}

const std::vector<FlagSpec> &
flagTable()
{
    using A = FlagSpec::Arity;
    auto u64 = [](Cycle Options::*field, const char *flag) {
        return [field, flag](Options &o, const std::string &v) {
            o.*field = parseU64Flag(flag, v);
        };
    };
    static const std::vector<FlagSpec> table = {
        {"workloads", A::Value, "w0,w1,...",
         "one per core (default mcf,astar x3)",
         [](Options &o, const std::string &v) {
             o.workloads = splitCommas(v);
         }},
        {"config", A::Value, "FILE",
         "JSON machine description (topology, bins,\nmitigation; see "
         "src/sim/topology.h); other\nflags override its values",
         applyConfigFile},
        {"scenario", A::Value, "NAME[:VAR]",
         "run a registered attack scenario's\ntopology (variant open "
         "or shaped,\ndefault open); exclusive with --config;\nsee "
         "--list-scenarios",
         [](Options &o, const std::string &v) { o.scenarioRef = v; }},
        {"list-scenarios", A::Bare, "",
         "print the attack-scenario catalog\nand exit",
         [](Options &o, const std::string &) {
             o.listScenarios = true;
         }},
        {"mitigation", A::Value, "M", "none|cs|reqc|respc|bdc|tp|fs",
         [](Options &o, const std::string &v) {
             const auto m = sim::mitigationFromName(v);
             if (!m) {
                 throw UsageError(
                     "unknown mitigation '" + v +
                     "' (expected none, cs, reqc, respc, bdc, tp, "
                     "or fs)");
             }
             o.mitigation = *m;
         }},
        {"cycles", A::Value, "N", "measurement window (CPU cycles)",
         u64(&Options::cycles, "--cycles")},
        {"warmup", A::Value, "N", "warmup window before measuring",
         u64(&Options::warmup, "--warmup")},
        {"seed", A::Value, "N", "deterministic RNG seed",
         [](Options &o, const std::string &v) {
             o.seed = parseU64Flag("--seed", v);
         }},
        {"channels", A::Value, "N", "DRAM channels (default 1)",
         [](Options &o, const std::string &v) {
             o.channels = parseU32Flag("--channels", v);
         }},
        {"no-fakes", A::Bare, "", "disable fake traffic generation",
         [](Options &o, const std::string &) { o.fakeTraffic = false; }},
        {"randomize-timing", A::Bare, "", "SIV-B4 random slack",
         [](Options &o, const std::string &) {
             o.randomizeTiming = true;
         }},
        {"shape-cores", A::Value, "i,j,...",
         "shape only the listed cores",
         [](Options &o, const std::string &v) {
             o.shapeCores.assign(o.workloads.size(), false);
             for (const auto &idx : splitCommas(v)) {
                 const auto c = parseU64Flag("--shape-cores", idx);
                 if (c >= o.shapeCores.size()) {
                     throw UsageError(
                         "--shape-cores index " + idx +
                         " is out of range (have " +
                         std::to_string(o.shapeCores.size()) +
                         " cores)");
                 }
                 o.shapeCores[static_cast<std::size_t>(c)] = true;
             }
         }},
        {"ga", A::Bare, "",
         "tune bins online first\n(with --ga-gens=N --ga-pop=N)",
         [](Options &o, const std::string &) { o.runGa = true; }},
        {"ga-offline", A::Bare, "",
         "tune offline instead: fresh system\nper child, evaluated "
         "across --jobs",
         [](Options &o, const std::string &) {
             o.runGa = true;
             o.gaOffline = true;
         }},
        {"ga-gens", A::Value, "N", "GA generations (default 8)",
         [](Options &o, const std::string &v) {
             o.gaGenerations = static_cast<std::size_t>(
                 parseU64Flag("--ga-gens", v));
         }},
        {"ga-pop", A::Value, "N", "GA population (default 14)",
         [](Options &o, const std::string &v) {
             o.gaPopulation = static_cast<std::size_t>(
                 parseU64Flag("--ga-pop", v));
         }},
        {"jobs", A::Value, "N",
         "worker threads for parallel phases\n(default: CAMO_JOBS env "
         "or core count)",
         [](Options &o, const std::string &v) {
             o.jobs = parseU32Flag("--jobs", v);
         }},
        {"sweep-seeds", A::Value, "K",
         "run seeds seed..seed+K-1 in parallel\nand print one row per "
         "seed",
         [](Options &o, const std::string &v) {
             o.sweepSeeds = parseU32Flag("--sweep-seeds", v);
         }},
        {"no-fast-forward", A::Bare, "",
         "force the per-cycle loop (debugging;\nresults are identical "
         "either way)",
         [](Options &o, const std::string &) { o.fastForward = false; }},
        {"csv", A::Bare, "", "machine-readable output",
         [](Options &o, const std::string &) { o.csv = true; }},
        {"trace", A::Value, "FILE", "cycle-stamped event trace",
         [](Options &o, const std::string &v) { o.traceFile = v; }},
        {"trace-format", A::Value, "F", "jsonl (default) | csv | bin",
         [](Options &o, const std::string &v) { o.traceFormat = v; }},
        {"stats-json", A::Value, "FILE",
         "hierarchical stats tree as JSON",
         [](Options &o, const std::string &v) { o.statsJsonFile = v; }},
        {"interval-stats", A::Value, "N",
         "snapshot metrics every N cycles",
         u64(&Options::intervalStats, "--interval-stats")},
        {"interval-csv", A::Value, "FILE",
         "write the interval series as CSV",
         [](Options &o, const std::string &v) {
             o.intervalCsvFile = v;
         }},
        {"checkers", A::Either, "recover",
         "runtime invariant checkers; =recover\ndegrades a violating "
         "shaper to the\nfail-secure schedule instead of\nstopping "
         "(exit 4 on violation)",
         [](Options &o, const std::string &v) {
             if (!v.empty() && v != "recover") {
                 throw UsageError(
                     "--checkers accepts only '=recover', got '" + v +
                     "'");
             }
             o.checkers = true;
             o.checkersRecover = !v.empty();
         }},
        {"watchdog", A::Value, "N",
         "fail if a core with pending work\nmakes no progress for N "
         "cycles\n(exit 5, diagnostic dump on stderr)",
         [](Options &o, const std::string &v) {
             o.watchdogWindow = parseU64Flag("--watchdog", v);
             if (o.watchdogWindow == 0)
                 throw UsageError("--watchdog window must be > 0");
         }},
        {"inject", A::Value, "SPEC",
         "fault-injection campaign, e.g.\n"
         "drop-resp:rate=0.001,wedge-req:at=9000",
         [](Options &o, const std::string &v) { o.injectSpec = v; }},
        {"inject-seed", A::Value, "N",
         "injection RNG seed (default --seed)",
         [](Options &o, const std::string &v) {
             o.injectSeed = parseU64Flag("--inject-seed", v);
         }},
        {"diag-dir", A::Value, "DIR",
         "write watchdog/invariant/leakage\ndiagnostic dumps as "
         "uniquely-named JSON\nfiles in DIR instead of stderr",
         [](Options &o, const std::string &v) { o.diagDir = v; }},
        {"profile", A::Bare, "",
         "host-time profile of the kernel loop;\nprints a per-phase "
         "summary",
         [](Options &o, const std::string &) { o.profile = true; }},
        {"profile-out", A::Value, "FILE",
         "profile tree as JSON (implies --profile)",
         [](Options &o, const std::string &v) {
             o.profile = true;
             o.profileOut = v;
         }},
        {"profile-folded", A::Value, "FILE",
         "folded stacks for flamegraph.pl /\nspeedscope (implies "
         "--profile)",
         [](Options &o, const std::string &v) {
             o.profile = true;
             o.profileFolded = v;
         }},
        {"chrome-trace", A::Value, "FILE",
         "Chrome trace-event JSON (load in\nPerfetto); request "
         "lifecycles in\nsimulated time plus, with --profile,\n"
         "host-time spans",
         [](Options &o, const std::string &v) {
             o.chromeTraceFile = v;
         }},
        {"leakmon", A::Either, "BITS",
         "online windowed-MI leakage monitor;\n=BITS alerts (exit 6) "
         "above the\nthreshold, bare monitors only",
         [](Options &o, const std::string &v) {
             o.leakmon = true;
             if (v.empty())
                 return;
             const auto bits =
                 parseReal(v, 0.0, std::numeric_limits<double>::max());
             if (!bits) {
                 throw UsageError("--leakmon=" + v +
                                  " is not a non-negative number");
             }
             o.leakmonThreshold = *bits;
         }},
        {"leakmon-window", A::Value, "N",
         "sliding-window width in cycles\n(default 50000)",
         [](Options &o, const std::string &v) {
             o.leakmonWindow = parseU64Flag("--leakmon-window", v);
             if (o.leakmonWindow == 0)
                 throw UsageError("--leakmon-window must be > 0");
         }},
        {"leakmon-core", A::Value, "N",
         "core whose streams are monitored\n(default 0)",
         [](Options &o, const std::string &v) {
             o.leakmonCore = parseU32Flag("--leakmon-core", v);
             o.leakmonCoreSet = true;
         }},
        {"version", A::Bare, "",
         "print build provenance and exit",
         [](Options &o, const std::string &) { o.version = true; }},
    };
    return table;
}

void
printUsage(std::FILE *out, const char *argv0)
{
    std::fprintf(out, "usage: %s [options]\n", argv0);
    for (const FlagSpec &f : flagTable()) {
        std::string label = "--" + f.name;
        if (f.arity == FlagSpec::Arity::Value)
            label += "=" + f.valueHint;
        else if (f.arity == FlagSpec::Arity::Either)
            label += "[=" + f.valueHint + "]";
        // First help line sits beside the label; '\n' continuations
        // are indented to the same help column.
        std::size_t start = 0;
        bool first = true;
        while (start <= f.help.size()) {
            const auto nl = f.help.find('\n', start);
            const std::string line =
                nl == std::string::npos
                    ? f.help.substr(start)
                    : f.help.substr(start, nl - start);
            std::fprintf(out, "  %-24s%s\n",
                         first ? label.c_str() : "", line.c_str());
            first = false;
            if (nl == std::string::npos)
                break;
            start = nl + 1;
        }
    }
    std::fprintf(out, "workloads: ");
    for (const auto &n : trace::workloadNames())
        std::fprintf(out, "%s ", n.c_str());
    std::fprintf(out, "probe covert:HEX\n");
}

const FlagSpec *
findFlag(const std::string &name)
{
    for (const FlagSpec &f : flagTable()) {
        if (f.name == name)
            return &f;
    }
    return nullptr;
}

/**
 * Parse the command line against the flag table. Throws UsageError
 * (never exits) on unknown flags, malformed values, or invalid flag
 * combinations, each with a one-line reason. --config is applied
 * before the other flags so they override the file regardless of
 * their position on the line.
 */
Options
parseArgs(int argc, char **argv)
{
    Options opt;
    opt.workloads = {"mcf", "astar", "astar", "astar"};

    struct Action
    {
        const FlagSpec *spec;
        std::string value;
    };
    std::vector<Action> actions;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--help" || arg == "-h") {
            opt.help = true;
            return opt;
        }
        if (arg.rfind("--", 0) != 0)
            throw UsageError("unknown option '" + arg + "'");
        const auto eq = arg.find('=');
        const std::string name = arg.substr(2, eq - 2);
        const bool hasValue = eq != std::string::npos;
        const FlagSpec *spec = findFlag(name);
        if (!spec)
            throw UsageError("unknown option '--" + name + "'");
        if (spec->arity == FlagSpec::Arity::Bare && hasValue) {
            throw UsageError("--" + name + " does not take a value");
        }
        if (spec->arity == FlagSpec::Arity::Value && !hasValue) {
            throw UsageError("--" + name + " requires =" +
                             spec->valueHint);
        }
        actions.push_back(
            {spec, hasValue ? arg.substr(eq + 1) : std::string()});
    }

    // --config/--scenario first: they supply the defaults everything
    // else overrides, independent of flag order.
    for (const Action &a : actions) {
        if (a.spec->name == "config" || a.spec->name == "scenario")
            a.spec->apply(opt, a.value);
    }
    if (!opt.scenarioRef.empty()) {
        if (opt.topo) {
            throw UsageError(
                "--scenario and --config both supply a topology; "
                "pick one");
        }
        applyScenario(opt, opt.scenarioRef);
    }
    for (const Action &a : actions) {
        if (a.spec->name != "config" && a.spec->name != "scenario")
            a.spec->apply(opt, a.value);
    }
    if (opt.listScenarios)
        return opt;

    // Cross-flag validation (single-flag value checking lives in the
    // table rows above).
    for (const auto &w : opt.workloads) {
        if (!trace::isKnownWorkload(w))
            throw UsageError("unknown workload '" + w + "'");
    }
    if (!opt.traceFormat.empty() && opt.traceFile.empty()) {
        throw UsageError(
            "--trace-format without --trace=FILE has no effect");
    }
    if (!opt.traceFormat.empty() && opt.traceFormat != "jsonl" &&
        opt.traceFormat != "csv" && opt.traceFormat != "bin") {
        throw UsageError("unknown trace format '" + opt.traceFormat +
                         "' (expected jsonl, csv, or bin)");
    }
    if (!opt.intervalCsvFile.empty() && opt.intervalStats == 0)
        throw UsageError("--interval-csv needs --interval-stats=N");
    if (opt.runGa && opt.mitigation != sim::Mitigation::BDC &&
        opt.mitigation != sim::Mitigation::ReqC &&
        opt.mitigation != sim::Mitigation::RespC) {
        throw UsageError(
            "--ga needs a Camouflage mitigation (reqc, respc, or "
            "bdc)");
    }
    if (!opt.chromeTraceFile.empty() && !opt.traceFile.empty()) {
        throw UsageError(
            "--chrome-trace and --trace both claim the event stream; "
            "pick one");
    }
    if ((opt.leakmonWindow > 0 || opt.leakmonCoreSet) && !opt.leakmon)
        throw UsageError(
            "--leakmon-window/--leakmon-core need --leakmon");
    if (opt.sweepSeeds > 0) {
        if (!opt.traceFile.empty() || !opt.statsJsonFile.empty() ||
            opt.intervalStats > 0 || opt.profile ||
            !opt.chromeTraceFile.empty() || opt.leakmon) {
            throw UsageError(
                "--sweep-seeds is incompatible with --trace, "
                "--stats-json, --interval-stats, --profile, "
                "--chrome-trace, and --leakmon (single-run "
                "observability outputs)");
        }
        if (opt.checkers || opt.watchdogWindow > 0) {
            throw UsageError(
                "--sweep-seeds is incompatible with --checkers and "
                "--watchdog (single-run hardening; --inject worker "
                "faults still apply)");
        }
    }
    if (opt.checkersRecover && opt.mitigation == sim::Mitigation::None)
        throw UsageError("--checkers=recover without a shaping "
                         "mitigation has nothing to degrade");
    return opt;
}

std::unique_ptr<obs::TraceSink>
makeTraceSink(const std::string &format, std::ostream &os)
{
    if (format == "csv")
        return std::make_unique<obs::CsvTraceSink>(os);
    if (format == "bin")
        return std::make_unique<obs::BinaryTraceSink>(os);
    return std::make_unique<obs::JsonlTraceSink>(os);
}

int
runCamosim(const Options &opt)
{
    // Three configuration layers: paper defaults, then the --config
    // file (when given), then explicit flags (already folded into opt
    // by parseArgs).
    sim::SystemConfig cfg =
        opt.topo ? opt.topo->system : sim::paperConfig();
    cfg.numCores = static_cast<std::uint32_t>(opt.workloads.size());
    cfg.mitigation = opt.mitigation;
    cfg.seed = opt.seed;
    cfg.mc.org.channels = opt.channels;
    cfg.fakeTraffic = opt.fakeTraffic;
    cfg.randomizeTiming = opt.randomizeTiming;
    cfg.shapeCore = opt.shapeCores;
    cfg.fastForward = opt.fastForward;

    // Fault-injection campaign (spec parse errors are ConfigErrors).
    std::unique_ptr<hard::FaultInjector> injector;
    if (!opt.injectSpec.empty()) {
        const hard::FaultPlan plan = hard::FaultPlan::parse(
            opt.injectSpec,
            opt.injectSeed ? opt.injectSeed : opt.seed);
        injector = std::make_unique<hard::FaultInjector>(plan);
    }

    if (opt.runGa) {
        ga::GaConfig ga_cfg;
        ga_cfg.generations = opt.gaGenerations;
        ga_cfg.populationSize = opt.gaPopulation;
        if (!opt.csv)
            std::printf("# tuning bins %s (%zu gens x %zu "
                        "children)...\n",
                        opt.gaOffline ? "offline" : "online",
                        ga_cfg.generations, ga_cfg.populationSize);
        const auto tuned =
            opt.gaOffline
                ? sim::runOfflineGa(cfg, opt.workloads, ga_cfg, 20000,
                                    opt.jobs)
                : sim::runOnlineGa(cfg, opt.workloads, ga_cfg);
        cfg.reqBinsPerCore = tuned.reqBinsPerCore;
        cfg.respBinsPerCore = tuned.respBinsPerCore;
        if (!opt.csv) {
            std::printf("# GA leak bound: %.1f bits over %llu config "
                        "cycles\n", tuned.configPhaseLeakBoundBits,
                        static_cast<unsigned long long>(
                            tuned.configPhaseCycles));
        }
    }

    if (opt.sweepSeeds > 0) {
        // Replica sweep: same configuration under K consecutive
        // seeds, fanned across the worker pool. Worker faults from
        // --inject hit individual jobs here (and are retried with
        // re-derived seeds); system-level faults need a single run.
        std::vector<sim::SimJob> batch;
        for (std::uint32_t k = 0; k < opt.sweepSeeds; ++k) {
            sim::SystemConfig c = cfg;
            c.seed = opt.seed + k;
            batch.push_back({c, opt.workloads, opt.cycles, opt.warmup});
        }
        const auto runs =
            sim::runConfigsParallel(batch, opt.jobs, injector.get());
        if (injector && injector->totalFired() > 0 && !opt.csv)
            std::printf("# faults fired: %s\n",
                        injector->summary().c_str());
        if (opt.csv) {
            std::printf("seed,throughput\n");
            for (std::uint32_t k = 0; k < opt.sweepSeeds; ++k)
                std::printf("%llu,%.4f\n",
                            static_cast<unsigned long long>(opt.seed + k),
                            runs[k].throughput());
            return hard::kExitOk;
        }
        std::printf("%s", sim::systemBanner(cfg).c_str());
        std::printf("# mitigation: %s, %u seeds from %llu, %llu cycles "
                    "(+%llu warmup)\n\n",
                    sim::mitigationName(opt.mitigation), opt.sweepSeeds,
                    static_cast<unsigned long long>(opt.seed),
                    static_cast<unsigned long long>(opt.cycles),
                    static_cast<unsigned long long>(opt.warmup));
        std::printf("%8s %12s\n", "seed", "throughput");
        double total = 0.0;
        for (std::uint32_t k = 0; k < opt.sweepSeeds; ++k) {
            total += runs[k].throughput();
            std::printf("%8llu %12.3f\n",
                        static_cast<unsigned long long>(opt.seed + k),
                        runs[k].throughput());
        }
        std::printf("\nmean throughput: %.3f\n",
                    total / static_cast<double>(opt.sweepSeeds));
        return hard::kExitOk;
    }

    sim::System system(sim::SystemPlan(cfg, opt.workloads));

    if (opt.checkers) {
        hard::CheckerConfig hc;
        hc.recoverShaper = opt.checkersRecover;
        system.enableCheckers(hc);
    }
    if (opt.watchdogWindow > 0) {
        hard::WatchdogConfig wc;
        wc.window = opt.watchdogWindow;
        system.enableWatchdog(wc);
    }
    if (injector)
        system.setFaultInjector(injector.get());
    if (!opt.diagDir.empty())
        system.setDiagnosticDir(opt.diagDir);

    std::ofstream trace_os;
    if (!opt.traceFile.empty()) {
        const std::string format =
            opt.traceFormat.empty() ? "jsonl" : opt.traceFormat;
        trace_os.open(opt.traceFile, format == "bin"
                                         ? std::ios::out | std::ios::binary
                                         : std::ios::out);
        if (!trace_os)
            camo_fatal("cannot open trace file: ", opt.traceFile);
        system.tracer().setSink(makeTraceSink(format, trace_os));
        system.tracer().setEnabled(true);
    }
    // The writer must outlive the run: the sink streams into it from
    // inside the loop, and the profile spans are appended after.
    std::ofstream chrome_os;
    std::unique_ptr<obs::ChromeTraceWriter> chrome_writer;
    if (!opt.chromeTraceFile.empty()) {
        chrome_os.open(opt.chromeTraceFile);
        if (!chrome_os)
            camo_fatal("cannot open chrome-trace file: ",
                       opt.chromeTraceFile);
        chrome_writer =
            std::make_unique<obs::ChromeTraceWriter>(chrome_os);
        system.tracer().setSink(std::make_unique<obs::ChromeTraceSink>(
            *chrome_writer, cfg.numCores));
        system.tracer().setEnabled(true);
    }
    if (opt.leakmon) {
        // Before enableIntervalStats, so the interval series grows a
        // leakmon.window_mi_bits column.
        obs::LeakMonitorConfig lc;
        lc.core = opt.leakmonCore;
        lc.alertThresholdBits = opt.leakmonThreshold;
        if (opt.leakmonWindow > 0) {
            lc.windowCycles = opt.leakmonWindow;
            lc.checkPeriod = std::max<Cycle>(1, opt.leakmonWindow / 5);
        }
        system.enableLeakMonitor(lc);
    }
    if (opt.intervalStats > 0)
        system.enableIntervalStats(opt.intervalStats);

    obs::Profiler prof;
    if (opt.profile)
        system.setProfiler(&prof);

    const obs::Profiler::Timer wall;
    const auto m = sim::runAndMeasure(system, opt.cycles, opt.warmup);
    const std::uint64_t wall_ns = wall.elapsedNs();

    // End-of-run lifecycle audit: a dropped response shows up here as
    // a leaked (never-retired) request even without the watchdog.
    if (opt.checkers)
        system.checkForLeaks();

    if (!opt.traceFile.empty() || chrome_writer)
        system.tracer().flush();
    if (chrome_writer) {
        if (opt.profile)
            obs::writeProfile(*chrome_writer, prof);
        chrome_writer->finish();
    }
    if (!opt.profileOut.empty()) {
        std::ofstream os(opt.profileOut);
        if (!os)
            camo_fatal("cannot open profile file: ", opt.profileOut);
        obs::json::Value root = obs::json::Value::makeObject();
        root["schema"] = "camo-profile-report-1";
        root["wall_ns"] = wall_ns;
        root["build"] = obs::buildInfoJson();
        root["profile"] = prof.toJson();
        os << root.dump(2) << "\n";
    }
    if (!opt.profileFolded.empty()) {
        std::ofstream os(opt.profileFolded);
        if (!os)
            camo_fatal("cannot open folded file: ", opt.profileFolded);
        os << prof.toFolded();
    }
    if (!opt.intervalCsvFile.empty()) {
        std::ofstream os(opt.intervalCsvFile);
        if (!os)
            camo_fatal("cannot open interval file: ",
                       opt.intervalCsvFile);
        os << system.intervalStats()->toCsv();
    }
    if (!opt.statsJsonFile.empty()) {
        std::ofstream os(opt.statsJsonFile);
        if (!os)
            camo_fatal("cannot open stats file: ", opt.statsJsonFile);
        os << sim::summaryJson(system, opt.workloads,
                               !opt.traceFile.empty())
                  .dump(2)
           << "\n";
    }

    if (injector && injector->totalFired() > 0 && !opt.csv)
        std::printf("# faults fired: %s\n",
                    injector->summary().c_str());

    if (opt.csv) {
        std::printf("core,workload,ipc,retired,served_reads,"
                    "avg_read_latency,alpha\n");
        for (std::size_t i = 0; i < m.ipc.size(); ++i) {
            std::printf("%zu,%s,%.4f,%llu,%llu,%.1f,%.3f\n", i,
                        opt.workloads[i].c_str(), m.ipc[i],
                        static_cast<unsigned long long>(m.retired[i]),
                        static_cast<unsigned long long>(
                            m.servedReads[i]),
                        m.avgReadLatency[i], m.alpha[i]);
        }
        return hard::kExitOk;
    }

    std::printf("%s", sim::systemBanner(cfg).c_str());
    std::printf("# mitigation: %s, %llu cycles (+%llu warmup), "
                "seed %llu\n\n",
                sim::mitigationName(opt.mitigation),
                static_cast<unsigned long long>(opt.cycles),
                static_cast<unsigned long long>(opt.warmup),
                static_cast<unsigned long long>(opt.seed));
    std::printf("%4s %-14s %8s %12s %10s %10s %7s\n", "core",
                "workload", "IPC", "retired", "reads", "avg lat",
                "alpha");
    for (std::size_t i = 0; i < m.ipc.size(); ++i) {
        std::printf("%4zu %-14s %8.3f %12llu %10llu %10.1f %7.3f\n", i,
                    opt.workloads[i].c_str(), m.ipc[i],
                    static_cast<unsigned long long>(m.retired[i]),
                    static_cast<unsigned long long>(m.servedReads[i]),
                    m.avgReadLatency[i], m.alpha[i]);
    }
    std::printf("\nthroughput (sum IPC): %.3f\n", m.throughput());

    if (opt.profile) {
        const double run_ms =
            static_cast<double>(prof.totalNs()) / 1e6;
        const double wall_ms = static_cast<double>(wall_ns) / 1e6;
        std::printf("\n# profile: run %.1f ms (%.1f%% of %.1f ms "
                    "wall)\n",
                    run_ms,
                    wall_ns ? 100.0 * static_cast<double>(
                                  prof.totalNs()) /
                                  static_cast<double>(wall_ns)
                            : 0.0,
                    wall_ms);
        for (const auto id : prof.node(prof.root()).children) {
            const auto &n = prof.node(id);
            std::printf("#   %-12s total %9.2f ms  self %9.2f ms  "
                        "calls %llu\n",
                        n.name.c_str(),
                        static_cast<double>(n.ns) / 1e6,
                        static_cast<double>(prof.selfNs(id)) / 1e6,
                        static_cast<unsigned long long>(n.calls));
        }
    }
    if (obs::LeakMonitor *mon = system.leakMonitor()) {
        const security::ShapingMiResult res = mon->cumulativeResult();
        std::printf("\n# leakmon: cumulative MI %.4f bits over %llu "
                    "pairs; window last %.4f / peak %.4f bits (%zu "
                    "windows)\n",
                    res.miBits,
                    static_cast<unsigned long long>(res.pairs),
                    mon->lastWindowMiBits(), mon->peakWindowMiBits(),
                    mon->history().size());
    }
    return hard::kExitOk;
}

/** camosim's stderr lead-in for an error of `kind`. */
std::string
errorLead(hard::ErrorKind kind)
{
    switch (kind) {
      case hard::ErrorKind::Config: return "invalid configuration";
      case hard::ErrorKind::Invariant: return "invariant violation";
      case hard::ErrorKind::Watchdog: return "watchdog";
      case hard::ErrorKind::Leakage: return "leakage alert";
      case hard::ErrorKind::Transient: break;
    }
    return std::string(hard::errorKindName(kind)) + " error";
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        const Options opt = parseArgs(argc, argv);
        if (opt.help) {
            printUsage(stdout, argv[0]);
            return hard::kExitOk;
        }
        if (opt.version) {
            std::printf("%s\n", buildVersionLine().c_str());
            return hard::kExitOk;
        }
        if (opt.listScenarios) {
            std::printf("%s", scenario::listScenariosText().c_str());
            return hard::kExitOk;
        }
        return runCamosim(opt);
    } catch (const UsageError &e) {
        std::fprintf(stderr, "camosim: %s\n", e.what());
        printUsage(stderr, argv[0]);
        return hard::kExitUsage;
    } catch (const hard::CamoError &e) {
        // A malformed --config file is a configuration problem, not a
        // command-line one: no usage dump.
        std::fprintf(stderr, "camosim: %s: %s\n",
                     errorLead(e.kind()).c_str(), e.what());
        if (!e.dumpPath().empty())
            std::fprintf(stderr, "camosim: diagnostic dump: %s\n",
                         e.dumpPath().c_str());
        return hard::exitCode(e.kind());
    } catch (const std::exception &e) {
        std::fprintf(stderr, "camosim: %s\n", e.what());
        return hard::kExitRuntime;
    }
}
