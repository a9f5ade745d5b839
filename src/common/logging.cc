#include "src/common/logging.h"

#include <atomic>
#include <cstdio>
#include <cstdlib>

namespace camo {

namespace {
std::atomic<bool> g_verbose{true};
} // namespace

void
setVerbose(bool verbose)
{
    g_verbose.store(verbose, std::memory_order_relaxed);
}

bool
verbose()
{
    return g_verbose.load(std::memory_order_relaxed);
}

namespace detail {

void
panicImpl(const char *file, int line, const std::string &msg)
{
    std::fprintf(stderr, "panic: %s (%s:%d)\n", msg.c_str(), file, line);
    std::abort();
}

void
fatalImpl(const char *file, int line, const std::string &msg)
{
    std::fprintf(stderr, "fatal: %s (%s:%d)\n", msg.c_str(), file, line);
    std::exit(1);
}

void
warnImpl(const char *file, int line, const std::string &msg)
{
    if (verbose())
        std::fprintf(stderr, "warn: %s (%s:%d)\n", msg.c_str(), file, line);
}

} // namespace detail
} // namespace camo
