/**
 * @file
 * camosim_client — command-line client for the camosimd daemon.
 *
 *   camosim_client --socket=S submit --config=FILE [--cycles=N]
 *       [--warmup=N] [--seed=N] [--watchdog=N] [--checkers]
 *       [--inject=SPEC] [--timeout-ms=N] [--wait[=MS]]
 *   camosim_client --socket=S status --id=N
 *   camosim_client --socket=S result --id=N [--wait=MS]
 *   camosim_client --socket=S cancel --id=N
 *   camosim_client --socket=S stats
 *   camosim_client --socket=S drain
 *   camosim_client --socket=S reload [--queue=N] [--timeout-ms=N]
 *       [--retries=N] [--cache=N]
 *
 * Responses print as JSON on stdout. Exit codes: 0 ok, 1 the server
 * reported an error or the job failed, 2 usage error.
 */

#include <csignal>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "src/common/parse.h"
#include "src/server/client.h"
#include "src/server/protocol.h"

using namespace camo;

namespace {

void
printUsage(std::FILE *out, const char *argv0)
{
    std::fprintf(
        out,
        "usage: %s --socket=PATH COMMAND [options]\n"
        "commands:\n"
        "  submit --config=FILE [--cycles=N] [--warmup=N] "
        "[--seed=N]\n"
        "         [--watchdog=N] [--checkers] [--inject=SPEC]\n"
        "         [--timeout-ms=N] [--wait[=MS]]\n"
        "  status --id=N\n"
        "  result --id=N [--wait=MS]\n"
        "  cancel --id=N\n"
        "  stats\n"
        "  drain\n"
        "  reload [--queue=N] [--timeout-ms=N] [--retries=N] "
        "[--cache=N]\n",
        argv0);
}

struct Cli
{
    std::string socket;
    std::string command;
    std::string configFile;
    std::uint64_t id = 0;
    bool haveId = false;
    std::uint64_t waitMs = 0;
    bool wait = false;
    server::JobSpec spec;
    obs::json::Value limits = obs::json::Value::makeObject();
};

int
fail(const std::string &msg)
{
    std::fprintf(stderr, "camosim_client: %s\n", msg.c_str());
    return 1;
}

/** Exit 1 unless the response has ok:true; print it either way. */
int
report(const std::optional<obs::json::Value> &resp)
{
    if (!resp)
        return fail("connection lost");
    std::printf("%s\n", resp->dump(2).c_str());
    const obs::json::Value *ok = resp->find("ok");
    return ok && ok->isBool() && ok->asBool() ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    std::signal(SIGPIPE, SIG_IGN);
    Cli cli;
    std::vector<std::string> args(argv + 1, argv + argc);
    for (const std::string &arg : args) {
        if (arg == "--help" || arg == "-h") {
            printUsage(stdout, argv[0]);
            return 0;
        }
        if (arg.rfind("--", 0) != 0) {
            if (!cli.command.empty()) {
                std::fprintf(stderr,
                             "camosim_client: one command only\n");
                return 2;
            }
            cli.command = arg;
            continue;
        }
        const auto eq = arg.find('=');
        const std::string name = arg.substr(2, eq - 2);
        const std::string value =
            eq == std::string::npos ? "" : arg.substr(eq + 1);
        // Every number travels as a JSON double: keep it exact.
        const auto n = parseUnsigned(value, obs::json::kMaxExactInteger);
        if (name == "socket") {
            cli.socket = value;
        } else if (name == "config") {
            cli.configFile = value;
        } else if (name == "inject") {
            cli.spec.inject = value;
        } else if (name == "checkers" && value.empty()) {
            cli.spec.checkers = sim::CheckerMode::On;
        } else if (name == "wait") {
            cli.wait = true;
            cli.waitMs = value.empty() ? 600000 : n.value_or(0);
            if (!value.empty() && !n) {
                std::fprintf(stderr,
                             "camosim_client: bad --wait value\n");
                return 2;
            }
        } else if (!n) {
            std::fprintf(
                stderr,
                "camosim_client: --%s needs an unsigned integer "
                "below 2^53\n",
                name.c_str());
            return 2;
        } else if (name == "id") {
            cli.id = *n;
            cli.haveId = true;
        } else if (name == "cycles") {
            cli.spec.cycles = *n;
        } else if (name == "warmup") {
            cli.spec.warmup = *n;
        } else if (name == "seed") {
            cli.spec.seed = *n;
        } else if (name == "watchdog") {
            cli.spec.watchdog = *n;
        } else if (name == "inject-seed") {
            cli.spec.injectSeed = *n;
        } else if (name == "timeout-ms") {
            cli.spec.timeoutMs = *n;
            cli.limits["timeout_ms"] = *n;
        } else if (name == "crash-attempts") {
            cli.spec.crashAttempts = *n;
        } else if (name == "queue") {
            cli.limits["max_queue"] = *n;
        } else if (name == "retries") {
            cli.limits["retries"] = *n;
        } else if (name == "cache") {
            cli.limits["cache_entries"] = *n;
        } else {
            std::fprintf(stderr,
                         "camosim_client: unknown option '--%s'\n",
                         name.c_str());
            return 2;
        }
    }
    if (cli.socket.empty() || cli.command.empty()) {
        printUsage(stderr, argv[0]);
        return 2;
    }

    server::Client client;
    std::string err;
    if (!client.connect(cli.socket, &err))
        return fail(err);

    if (cli.command == "submit") {
        if (cli.configFile.empty()) {
            std::fprintf(stderr,
                         "camosim_client: submit needs "
                         "--config=FILE\n");
            return 2;
        }
        std::ifstream is(cli.configFile);
        if (!is)
            return fail("cannot read " + cli.configFile);
        std::ostringstream text;
        text << is.rdbuf();
        const auto doc = obs::json::tryParse(text.str());
        if (!doc)
            return fail(cli.configFile + " is not valid JSON");
        cli.spec.config = *doc;
        const auto id = client.submit(cli.spec, &err);
        if (!id)
            return fail(err);
        if (!cli.wait) {
            obs::json::Value v = server::okResponse();
            v["id"] = *id;
            std::printf("%s\n", v.dump(2).c_str());
            return 0;
        }
        return report(client.waitResult(*id, cli.waitMs));
    }
    if (cli.command == "status" || cli.command == "result" ||
        cli.command == "cancel") {
        if (!cli.haveId) {
            std::fprintf(stderr, "camosim_client: %s needs --id=N\n",
                         cli.command.c_str());
            return 2;
        }
        if (cli.command == "status")
            return report(client.status(cli.id));
        if (cli.command == "result")
            return report(client.waitResult(
                cli.id, cli.wait ? cli.waitMs : 0));
        obs::json::Value req = obs::json::Value::makeObject();
        req["op"] = "cancel";
        req["id"] = cli.id;
        return report(client.request(req));
    }
    if (cli.command == "stats")
        return report(client.stats());
    if (cli.command == "drain") {
        obs::json::Value req = obs::json::Value::makeObject();
        req["op"] = "drain";
        return report(client.request(req));
    }
    if (cli.command == "reload") {
        obs::json::Value req = obs::json::Value::makeObject();
        req["op"] = "reload";
        if (!cli.limits.asObject().empty())
            req["limits"] = cli.limits;
        return report(client.request(req));
    }
    std::fprintf(stderr, "camosim_client: unknown command '%s'\n",
                 cli.command.c_str());
    printUsage(stderr, argv[0]);
    return 2;
}
