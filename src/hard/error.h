/**
 * @file
 * Structured error hierarchy for the fail-secure hardening layer.
 *
 * Library code validating *user-supplied* configuration throws
 * ConfigError instead of exiting the process, so one bad config in a
 * parallel sweep fails one job (propagating through parallelMap's
 * first-exception path) instead of killing every worker. Runtime
 * checkers throw InvariantViolation, the watchdog WatchdogTimeout,
 * and injected worker faults TransientFault (the only kind the
 * parallel engine retries).
 *
 * camo_panic / camo_assert remain aborts: they flag simulator bugs,
 * not recoverable conditions.
 */

#ifndef CAMO_HARD_ERROR_H
#define CAMO_HARD_ERROR_H

#include <stdexcept>
#include <string>
#include <utility>

namespace camo::hard {

/** Exit codes shared by camosim and the daemon's job payloads that
 *  no ErrorKind maps to; see exitCode() for the rest. */
inline constexpr int kExitOk = 0;
inline constexpr int kExitRuntime = 1;
inline constexpr int kExitUsage = 2;

/** Coarse classification, also the basis of camosim's exit codes. */
enum class ErrorKind
{
    Config,    ///< invalid user-supplied configuration
    Invariant, ///< a runtime checker caught an inconsistency
    Watchdog,  ///< no forward progress within the watchdog window
    Transient, ///< a retryable per-job fault (injected or real)
    Leakage,   ///< the online leakage monitor crossed its threshold
};

const char *errorKindName(ErrorKind kind);

/** The one exit-code table: config 3, invariant 4, watchdog 5,
 *  leakage 6; a transient fault that escapes its retries is a
 *  runtime failure (kExitRuntime). */
int exitCode(ErrorKind kind);

/**
 * Base of every recoverable simulator error. `diagnostic()` optionally
 * carries the structured dump (stats tree + trace tail + queue
 * occupancy) captured at the point of failure; `dumpPath()` names the
 * uniquely-named dump file when the System was given a diagnostic
 * directory (empty otherwise).
 */
class CamoError : public std::runtime_error
{
  public:
    CamoError(ErrorKind kind, const std::string &msg,
              std::string diagnostic = {}, std::string dump_path = {})
        : std::runtime_error(msg), kind_(kind),
          diagnostic_(std::move(diagnostic)),
          dumpPath_(std::move(dump_path))
    {
    }

    ErrorKind kind() const { return kind_; }
    const std::string &diagnostic() const { return diagnostic_; }
    const std::string &dumpPath() const { return dumpPath_; }

  private:
    ErrorKind kind_;
    std::string diagnostic_;
    std::string dumpPath_;
};

/** A user-supplied configuration value is invalid. The message names
 *  the offending value. */
class ConfigError : public CamoError
{
  public:
    explicit ConfigError(const std::string &msg)
        : CamoError(ErrorKind::Config, msg)
    {
    }
};

/** A runtime invariant checker fired; carries the diagnostic dump. */
class InvariantViolation : public CamoError
{
  public:
    explicit InvariantViolation(const std::string &msg,
                                std::string diagnostic = {},
                                std::string dump_path = {})
        : CamoError(ErrorKind::Invariant, msg, std::move(diagnostic),
                    std::move(dump_path))
    {
    }
};

/** The watchdog detected a no-forward-progress window. */
class WatchdogTimeout : public CamoError
{
  public:
    explicit WatchdogTimeout(const std::string &msg,
                             std::string diagnostic = {},
                             std::string dump_path = {})
        : CamoError(ErrorKind::Watchdog, msg, std::move(diagnostic),
                    std::move(dump_path))
    {
    }
};

/**
 * The online leakage monitor (src/obs/leakmon.h) measured windowed
 * mutual information above its configured threshold. Fail-secure:
 * a run that starts leaking stops with a distinct exit code instead
 * of quietly producing results.
 */
class LeakageAlert : public CamoError
{
  public:
    explicit LeakageAlert(const std::string &msg,
                          std::string diagnostic = {},
                          std::string dump_path = {})
        : CamoError(ErrorKind::Leakage, msg, std::move(diagnostic),
                    std::move(dump_path))
    {
    }
};

/** A per-job fault worth retrying with a re-derived seed. */
class TransientFault : public CamoError
{
  public:
    explicit TransientFault(const std::string &msg)
        : CamoError(ErrorKind::Transient, msg)
    {
    }
};

} // namespace camo::hard

#endif // CAMO_HARD_ERROR_H
