#include "src/server/job.h"

#include "src/hard/error.h"
#include "src/scenario/scenario.h"

namespace camo::server {

bool
JobSpec::fromJson(const obs::json::Value &doc, JobSpec *out,
                  std::string *error)
{
    if (!doc.isObject()) {
        *error = "job must be an object";
        return false;
    }
    JobSpec spec;
    obs::json::Value run = obs::json::Value::makeObject();
    for (const auto &[key, value] : doc.asObject()) {
        std::uint64_t *limit = key == "timeout_ms" ? &spec.timeoutMs
                               : key == "crash_attempts"
                                   ? &spec.crashAttempts
                                   : nullptr;
        if (limit) {
            const auto n = obs::json::toUnsigned(value);
            if (!n) {
                *error = "field '" + key +
                         "' has the wrong type or is out of range";
                return false;
            }
            *limit = *n;
        } else if (key == "scenario") {
            // Registered attack scenario: resolves to its embedded
            // topology, so the job is identical to submitting that
            // topology as "config" (and caches as such).
            if (doc.find("config")) {
                *error = "job has both 'config' and 'scenario'; pick one";
                return false;
            }
            if (!value.isString()) {
                *error = "field 'scenario' has the wrong type or is out "
                         "of range";
                return false;
            }
            try {
                run["config"] = obs::json::parse(
                    scenario::scenarioTopologyJson(value.asString()));
            } catch (const hard::ConfigError &e) {
                *error = e.what();
                return false;
            }
        } else {
            run[key] = value;
        }
    }
    if (!run.find("config")) {
        *error =
            "job needs a 'config' topology object or a 'scenario' name";
        return false;
    }
    if (!RunSpec::fromJson(run, &spec, error))
        return false;
    *out = std::move(spec);
    return true;
}

obs::json::Value
JobSpec::toJson() const
{
    obs::json::Value v = RunSpec::toJson();
    if (timeoutMs != 0)
        v["timeout_ms"] = timeoutMs;
    if (crashAttempts != 0)
        v["crash_attempts"] = crashAttempts;
    return v;
}

std::string
JobSpec::cacheKey() const
{
    // The deadline changes whether a result arrives, never its bytes.
    // crashAttempts stays: crashing attempt 0 means the surviving
    // attempt runs with a re-derived seed, which changes the result.
    JobSpec keyed = *this;
    keyed.timeoutMs = 0;
    return keyed.toJson().dump();
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
