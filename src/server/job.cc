#include "src/server/job.h"

#include "src/hard/error.h"
#include "src/scenario/scenario.h"

namespace camo::server {

namespace {

bool
asU64(const obs::json::Value &v, std::uint64_t *out)
{
    const auto n = obs::json::toUnsigned(v);
    if (n)
        *out = *n;
    return n.has_value();
}

} // namespace

bool
JobSpec::fromJson(const obs::json::Value &doc, JobSpec *out,
                  std::string *error)
{
    if (!doc.isObject()) {
        *error = "job must be an object";
        return false;
    }
    JobSpec spec;
    bool haveConfig = false;
    bool haveScenario = false;
    for (const auto &[key, value] : doc.asObject()) {
        bool ok = true;
        if (key == "config") {
            ok = value.isObject();
            if (ok) {
                spec.config = value;
                haveConfig = true;
            }
        } else if (key == "scenario") {
            // Registered attack scenario: resolves to its embedded
            // topology, so the job is identical to submitting that
            // topology as "config" (and caches as such).
            ok = value.isString();
            if (ok) {
                try {
                    spec.config = obs::json::parse(
                        scenario::scenarioTopologyJson(
                            value.asString()));
                } catch (const hard::ConfigError &e) {
                    *error = e.what();
                    return false;
                }
                haveScenario = true;
            }
        } else if (key == "cycles") {
            ok = asU64(value, &spec.cycles);
        } else if (key == "warmup") {
            ok = asU64(value, &spec.warmup);
        } else if (key == "seed") {
            ok = asU64(value, &spec.seed);
        } else if (key == "watchdog") {
            ok = asU64(value, &spec.watchdog);
        } else if (key == "checkers") {
            ok = value.isBool();
            if (ok)
                spec.checkers = value.asBool();
        } else if (key == "inject") {
            ok = value.isString();
            if (ok)
                spec.inject = value.asString();
        } else if (key == "inject_seed") {
            ok = asU64(value, &spec.injectSeed);
        } else if (key == "timeout_ms") {
            ok = asU64(value, &spec.timeoutMs);
        } else if (key == "crash_attempts") {
            ok = asU64(value, &spec.crashAttempts);
        } else {
            *error = "unknown job field '" + key + "'";
            return false;
        }
        if (!ok) {
            *error = "job field '" + key +
                     "' has the wrong type or is out of range";
            return false;
        }
    }
    if (haveConfig && haveScenario) {
        *error = "job has both 'config' and 'scenario'; pick one";
        return false;
    }
    if (!haveConfig && !haveScenario) {
        *error =
            "job needs a 'config' topology object or a 'scenario' "
            "name";
        return false;
    }
    *out = std::move(spec);
    return true;
}

obs::json::Value
JobSpec::toJson() const
{
    obs::json::Value v = obs::json::Value::makeObject();
    v["config"] = config;
    v["cycles"] = cycles;
    v["warmup"] = warmup;
    if (seed != 0)
        v["seed"] = seed;
    if (watchdog != 0)
        v["watchdog"] = watchdog;
    if (checkers)
        v["checkers"] = true;
    if (!inject.empty())
        v["inject"] = inject;
    if (injectSeed != 0)
        v["inject_seed"] = injectSeed;
    if (timeoutMs != 0)
        v["timeout_ms"] = timeoutMs;
    if (crashAttempts != 0)
        v["crash_attempts"] = crashAttempts;
    return v;
}

std::string
JobSpec::cacheKey() const
{
    // timeoutMs is excluded: the deadline changes whether a result
    // arrives, never its bytes. crashAttempts IS included — crashing
    // attempt 0 means the surviving attempt runs with a re-derived
    // seed, which changes the result.
    obs::json::Value v = obs::json::Value::makeObject();
    v["config"] = config;
    v["cycles"] = cycles;
    v["warmup"] = warmup;
    v["seed"] = seed;
    v["watchdog"] = watchdog;
    v["checkers"] = checkers;
    v["inject"] = inject;
    v["inject_seed"] = injectSeed;
    v["crash_attempts"] = crashAttempts;
    return v.dump();
}

const char *
jobStateName(JobState s)
{
    switch (s) {
      case JobState::Queued: return "queued";
      case JobState::Running: return "running";
      case JobState::Succeeded: return "succeeded";
      case JobState::Cached: return "cached";
      case JobState::Failed: return "failed";
      case JobState::Crashed: return "crashed";
      case JobState::Deadline: return "deadline";
      case JobState::Canceled: return "canceled";
    }
    return "unknown";
}

bool
jobStateTerminal(JobState s)
{
    return s != JobState::Queued && s != JobState::Running;
}

} // namespace camo::server
