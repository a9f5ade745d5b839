/**
 * @file
 * Error/status reporting in the gem5 tradition: panic() for simulator
 * bugs (aborts), fatal() for user errors (clean exit), warn() for
 * suspicious conditions.
 */

#ifndef CAMO_COMMON_LOGGING_H
#define CAMO_COMMON_LOGGING_H

#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <string>

namespace camo {

namespace detail {

[[noreturn]] void panicImpl(const char *file, int line,
                            const std::string &msg);
[[noreturn]] void fatalImpl(const char *file, int line,
                            const std::string &msg);
void warnImpl(const char *file, int line, const std::string &msg);

/** Fold a list of streamable values into one string. */
template <typename... Args>
std::string
fmt(Args &&...args)
{
    std::ostringstream os;
    (os << ... << args);
    return os.str();
}

} // namespace detail

/** Set to false to silence warn() (tests use this). */
void setVerbose(bool verbose);
bool verbose();

} // namespace camo

/**
 * Something that should never happen regardless of user input did
 * happen: an internal bug. Aborts (core-dumpable).
 */
#define camo_panic(...) \
    ::camo::detail::panicImpl(__FILE__, __LINE__, \
                              ::camo::detail::fmt(__VA_ARGS__))

/**
 * The simulation cannot continue because of a user-side problem (bad
 * configuration, invalid arguments). Exits with status 1.
 */
#define camo_fatal(...) \
    ::camo::detail::fatalImpl(__FILE__, __LINE__, \
                              ::camo::detail::fmt(__VA_ARGS__))

/** Non-fatal suspicious condition worth telling the user about. */
#define camo_warn(...) \
    ::camo::detail::warnImpl(__FILE__, __LINE__, \
                             ::camo::detail::fmt(__VA_ARGS__))

/** Internal invariant check; active in all build types. */
#define camo_assert(cond, ...) \
    do { \
        if (!(cond)) { \
            camo_panic("assertion failed: " #cond " ", \
                       ::camo::detail::fmt(__VA_ARGS__)); \
        } \
    } while (0)

#endif // CAMO_COMMON_LOGGING_H
