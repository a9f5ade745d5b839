#include "src/sim/run_spec.h"

#include "src/hard/checkers.h"
#include "src/hard/watchdog.h"
#include "src/sim/plan.h"
#include "src/sim/topology.h"

namespace camo::sim {

bool
RunSpec::fromJson(const obs::json::Value &doc, RunSpec *out,
                  std::string *error)
{
    if (!doc.isObject() || !doc.find("config")) {
        *error = "needs an object with a 'config' topology";
        return false;
    }
    RunSpec spec;
    const std::pair<const char *, std::uint64_t *> numbers[] = {
        {"cycles", &spec.cycles},     {"warmup", &spec.warmup},
        {"seed", &spec.seed},         {"watchdog", &spec.watchdog},
        {"inject_seed", &spec.injectSeed}};
    for (const auto &[key, value] : doc.asObject()) {
        bool ok = false;
        std::uint64_t *number = nullptr;
        for (const auto &[name, field] : numbers) {
            if (key == name)
                number = field;
        }
        if (number) {
            const auto n = obs::json::toUnsigned(value);
            ok = n.has_value();
            *number = n.value_or(0);
        } else if (key == "config") {
            ok = value.isObject();
            spec.config = value;
        } else if (key == "checkers") {
            ok = value.isBool() ||
                 (value.isString() && value.asString() == "recover");
            spec.checkers = !value.isBool() ? CheckerMode::Recover
                            : value.asBool() ? CheckerMode::On
                                             : CheckerMode::Off;
        } else if (key == "inject") {
            ok = value.isString();
            spec.inject = value.asString();
        } else {
            *error = "unknown field '" + key + "'";
            return false;
        }
        if (!ok) {
            *error = "field '" + key +
                     "' has the wrong type or is out of range";
            return false;
        }
    }
    *out = std::move(spec);
    return true;
}

obs::json::Value
RunSpec::toJson() const
{
    obs::json::Value v = obs::json::Value::makeObject();
    v["config"] = config;
    v["cycles"] = cycles;
    v["warmup"] = warmup;
    if (seed != 0)
        v["seed"] = seed;
    if (watchdog != 0)
        v["watchdog"] = watchdog;
    if (checkers != CheckerMode::Off) {
        v["checkers"] = checkers == CheckerMode::Recover
                            ? obs::json::Value("recover")
                            : obs::json::Value(true);
    }
    if (!inject.empty())
        v["inject"] = inject;
    if (injectSeed != 0)
        v["inject_seed"] = injectSeed;
    return v;
}

TopologyConfig
RunSpec::topology() const
{
    TopologyConfig topo = topologyFromJson(config);
    if (seed != 0)
        topo.system.seed = seed;
    return topo;
}

std::unique_ptr<hard::FaultInjector>
RunSpec::faultInjector(std::uint64_t run_seed) const
{
    if (inject.empty())
        return nullptr;
    return std::make_unique<hard::FaultInjector>(hard::FaultPlan::parse(
        inject, injectSeed ? injectSeed : run_seed));
}

SpecRun
runSpec(const RunSpec &spec, const RunHooks &hooks,
        const std::string &diag_dir)
{
    SpecRun run;
    TopologyConfig topo = spec.topology();
    run.workloads = std::move(topo.workloads);
    SystemConfig &cfg = topo.system;
    run.injector = spec.faultInjector(cfg.seed);
    if (hooks.configure)
        hooks.configure(cfg, run.workloads);

    run.system = SystemPlan(cfg, run.workloads).instantiate();
    System &system = *run.system;
    if (!diag_dir.empty())
        system.setDiagnosticDir(diag_dir);
    if (spec.checkers != CheckerMode::Off) {
        hard::CheckerConfig hc;
        hc.recoverShaper = spec.checkers == CheckerMode::Recover;
        system.enableCheckers(hc);
    }
    if (spec.watchdog > 0) {
        hard::WatchdogConfig wc;
        wc.window = spec.watchdog;
        system.enableWatchdog(wc);
    }
    if (run.injector)
        system.setFaultInjector(run.injector.get());
    if (hooks.attach)
        hooks.attach(system, run.injector.get());

    run.metrics = runAndMeasure(system, spec.cycles, spec.warmup);
    // End-of-run lifecycle audit: a dropped response shows up here as
    // a leaked (never-retired) request even without the watchdog.
    if (spec.checkers != CheckerMode::Off)
        system.checkForLeaks();
    return run;
}

} // namespace camo::sim
