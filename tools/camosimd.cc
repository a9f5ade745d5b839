/**
 * @file
 * camosimd — the persistent Camouflage experiment daemon.
 *
 * Accepts simulation jobs over a local Unix-domain socket
 * (length-prefixed JSON frames; see src/server/protocol.h) and
 * executes them on a supervised pool where every attempt runs in a
 * forked, crash-isolated child. A job that SIGSEGVs, stalls, or
 * times out is a classified per-job outcome; the daemon stays up.
 *
 *   camosimd --socket=/tmp/camosimd.sock --workers=4 &
 *   camosim_client --socket=/tmp/camosimd.sock submit \
 *       --config=machine.json --wait
 *
 * Lifecycle: SIGTERM/SIGINT drain the queue (stop admission, finish
 * in-flight jobs) and exit 0. SIGHUP re-applies the startup limits
 * (queue depth, deadline, retry budget, cache size) without dropping
 * queued jobs. Exit codes: 0 clean drain, 1 runtime failure,
 * 2 usage.
 */

#include <csignal>
#include <cstdio>
#include <cstring>
#include <limits>
#include <string>

#include "src/common/build_info.h"
#include "src/common/parse.h"
#include "src/server/server.h"

using namespace camo;

namespace {

server::Server *g_server = nullptr;

void
onSignal(int sig)
{
    if (!g_server)
        return;
    if (sig == SIGHUP)
        g_server->notifyReload();
    else
        g_server->notifyShutdown();
}

struct Options
{
    server::ServerConfig server;
    bool help = false;
    bool version = false;
};

void
printUsage(std::FILE *out, const char *argv0)
{
    std::fprintf(
        out,
        "usage: %s --socket=PATH [options]\n"
        "  --socket=PATH       Unix-domain socket to listen on\n"
        "  --workers=N         supervisor threads (default 2)\n"
        "  --queue=N           max queued jobs before shedding "
        "(default 256)\n"
        "  --timeout-ms=N      default per-attempt wall-clock "
        "deadline\n"
        "                      (default 120000, 0 = none)\n"
        "  --retries=N         attempts per job on transient faults "
        "and\n"
        "                      crashes (default 3)\n"
        "  --cache=N           result-cache entries (default 128, "
        "0 = off)\n"
        "  --terminal-jobs=N   terminal job records retained for "
        "status/result\n"
        "                      queries (default 4096, 0 = "
        "unbounded)\n"
        "  --diag-dir=DIR      per-instance diagnostic dump files\n"
        "  --version           print build provenance and exit\n",
        argv0);
}

bool
parseArgs(int argc, char **argv, Options *opt, std::string *err)
{
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--help" || arg == "-h") {
            opt->help = true;
            return true;
        }
        if (arg == "--version") {
            opt->version = true;
            return true;
        }
        const auto eq = arg.find('=');
        if (arg.rfind("--", 0) != 0 || eq == std::string::npos) {
            *err = "unknown option '" + arg + "'";
            return false;
        }
        const std::string name = arg.substr(2, eq - 2);
        const std::string value = arg.substr(eq + 1);
        const std::uint64_t max =
            name == "workers" || name == "retries"
                ? std::numeric_limits<unsigned>::max()
                : std::numeric_limits<std::uint64_t>::max();
        const auto n = parseUnsigned(value, max);
        if (name == "socket") {
            opt->server.socketPath = value;
        } else if (name == "diag-dir") {
            opt->server.service.diagDir = value;
        } else if (!n) {
            *err = "--" + name + "=" + value +
                   " is not an unsigned integer <= " +
                   std::to_string(max);
            return false;
        } else if (name == "workers") {
            opt->server.service.workers = static_cast<unsigned>(*n);
        } else if (name == "queue") {
            opt->server.service.maxQueue = *n;
        } else if (name == "timeout-ms") {
            opt->server.service.defaultTimeoutMs = *n;
        } else if (name == "retries") {
            opt->server.service.retry.attempts = static_cast<unsigned>(*n);
        } else if (name == "cache") {
            opt->server.service.maxCacheEntries = *n;
        } else if (name == "terminal-jobs") {
            opt->server.service.maxTerminalJobs = *n;
        } else {
            *err = "unknown option '--" + name + "'";
            return false;
        }
    }
    if (opt->server.socketPath.empty()) {
        *err = "--socket=PATH is required";
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
        std::fprintf(stderr, "camosimd: %s\n", err.c_str());
        printUsage(stderr, argv[0]);
        return 2;
    }
    if (opt.help) {
        printUsage(stdout, argv[0]);
        return 0;
    }
    if (opt.version) {
        std::printf("%s\n", buildVersionLine().c_str());
        return 0;
    }

    // A client vanishing mid-response must be an EPIPE errno, not a
    // process-killing signal.
    std::signal(SIGPIPE, SIG_IGN);

    server::Server srv(opt.server);
    if (!srv.start(&err)) {
        std::fprintf(stderr, "camosimd: %s\n", err.c_str());
        return 1;
    }
    g_server = &srv;
    std::signal(SIGTERM, onSignal);
    std::signal(SIGINT, onSignal);
    std::signal(SIGHUP, onSignal);

    std::printf("camosimd: listening on %s (%u workers)\n",
                opt.server.socketPath.c_str(),
                opt.server.service.workers);
    std::fflush(stdout);

    const int code = srv.run();
    g_server = nullptr;
    std::printf("camosimd: drained, exiting %d\n", code);
    return code;
}
