/**
 * @file
 * Table-driven matrix over camosim's documented exit codes: every
 * code in the contract (0 ok, 1 runtime, 2 usage, 3 config,
 * 4 invariant, 5 watchdog, 6 leakage) is provoked by a real
 * invocation of the installed binary. The codes come from one table,
 * hard::exitCode (src/hard/error.h), which the daemon's worker
 * (src/server/worker.cc) reports in its job payloads too.
 */

#include <gtest/gtest.h>

#include <cerrno>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include <fcntl.h>
#include <sys/wait.h>
#include <unistd.h>

#ifndef CAMO_CAMOSIM_PATH
#define CAMO_CAMOSIM_PATH "camosim"
#endif

namespace {

/** Run camosim with `args`, stdout/stderr discarded; returns the
 *  exit code (negative = died on a signal). */
int
runCamosim(const std::vector<std::string> &args)
{
    std::vector<std::string> argv_s;
    argv_s.push_back(CAMO_CAMOSIM_PATH);
    argv_s.insert(argv_s.end(), args.begin(), args.end());
    std::vector<char *> argv;
    for (std::string &a : argv_s)
        argv.push_back(a.data());
    argv.push_back(nullptr);

    const pid_t pid = ::fork();
    if (pid == 0) {
        const int null = ::open("/dev/null", O_WRONLY);
        if (null >= 0) {
            ::dup2(null, 1);
            ::dup2(null, 2);
            ::close(null);
        }
        ::execv(argv[0], argv.data());
        ::_exit(127);
    }
    EXPECT_GT(pid, 0) << "fork failed: " << std::strerror(errno);
    int status = 0;
    while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
    }
    if (WIFEXITED(status))
        return WEXITSTATUS(status);
    return WIFSIGNALED(status) ? -WTERMSIG(status) : -1000;
}

struct ExitCase
{
    int code;
    const char *what;
    std::vector<std::string> args;
};

} // namespace

TEST(ExitCodes, EveryDocumentedCodeHasAProvokingInvocation)
{
    // Exit 3 needs a malformed --config file on disk.
    const std::string bad_config =
        ::testing::TempDir() + "/camosim_bad_config.json";
    {
        std::ofstream os(bad_config);
        os << "{\"workloads\": [\n"; // truncated JSON
    }

    const std::vector<ExitCase> kMatrix = {
        {0, "clean run",
         {"--workloads=mcf,astar", "--cycles=20000",
          "--warmup=1000"}},
        {1, "runtime failure (transient worker faults exhausted)",
         {"--workloads=mcf,astar", "--sweep-seeds=2", "--jobs=1",
          "--inject=worker-kill:param=5", "--cycles=20000",
          "--warmup=1000"}},
        {2, "usage error", {"--no-such-flag"}},
        {3, "config error", {"--config=" + bad_config}},
        {4, "invariant violation (corrupted credits + checkers)",
         {"--workloads=mcf,astar", "--mitigation=bdc", "--checkers",
          "--inject=corrupt-credits:at=1000", "--cycles=40000",
          "--warmup=1000"}},
        {5, "watchdog timeout (wedged request shaper)",
         {"--workloads=mcf,astar", "--mitigation=bdc",
          "--watchdog=15000", "--inject=wedge-req:at=1000",
          "--cycles=60000", "--warmup=1000"}},
        {6, "leakage alert (covert sender, leakage monitor armed)",
         {"--workloads=covert:5A5A5A5A,apache,apache,apache",
          "--leakmon=0.2", "--cycles=300000", "--warmup=1000"}},
    };

    for (const ExitCase &c : kMatrix) {
        EXPECT_EQ(runCamosim(c.args), c.code)
            << "expected exit " << c.code << " for " << c.what;
    }
}

TEST(ExitCodes, UsageAndConfigAreDistinguished)
{
    // A bad flag is usage (2); a well-formed flag pointing at a
    // structurally invalid experiment is config (3). The daemon's
    // admission layer relies on the same split: malformed JobSpecs
    // are rejected at submit, topology errors fail the job.
    EXPECT_EQ(runCamosim({"--watchdog=0"}), 2);
    const std::string unknown_key =
        ::testing::TempDir() + "/camosim_unknown_key.json";
    {
        std::ofstream os(unknown_key);
        os << "{\"workloads\": [\"mcf\"], \"no_such_key\": 1}\n";
    }
    EXPECT_EQ(runCamosim({"--config=" + unknown_key}), 3);
    EXPECT_EQ(runCamosim({"--inject=no-such-kind:at=5",
                          "--workloads=mcf,astar"}),
              3);
    // Core and channel counts are range-checked, not narrowed: 2^32
    // channels would become 0 and 2^32 + 2 cores would become 2.
    EXPECT_EQ(runCamosim({"--channels=0", "--cycles=1000"}), 3);
    EXPECT_EQ(runCamosim({"--channels=4294967296"}), 2);
    EXPECT_EQ(runCamosim({"--seed=99999999999999999999"}), 2);
    // Hostile numbers: a sign or whitespace is not a digit, nan is no
    // probability, and a fault must target a core the machine has.
    EXPECT_EQ(runCamosim({"--seed= -5", "--cycles=1000"}), 2);
    EXPECT_EQ(runCamosim({"--workloads=probe:-5,astar", "--cycles=1000"}),
              3);
    EXPECT_EQ(runCamosim({"--inject=drop-resp:rate=nan",
                          "--workloads=mcf,astar", "--cycles=1000"}),
              3);
    EXPECT_EQ(runCamosim({"--inject=drop-resp:rate=0.1:core=7",
                          "--workloads=mcf,astar", "--cycles=1000"}),
              3);
    const std::string huge_channels =
        ::testing::TempDir() + "/camosim_huge_channels.json";
    const std::string huge_cores =
        ::testing::TempDir() + "/camosim_huge_cores.json";
    {
        std::ofstream os(huge_channels);
        os << "{\"channels\": 4294967296, \"workload\": \"astar\"}\n";
        std::ofstream oc(huge_cores);
        oc << "{\"cores\": 4294967298, \"workload\": \"astar\"}\n";
    }
    EXPECT_EQ(runCamosim({"--config=" + huge_channels, "--cycles=1000"}),
              3);
    EXPECT_EQ(runCamosim({"--config=" + huge_cores, "--cycles=1000"}), 3);
    // Channels are capped like cores, before any controller exists.
    EXPECT_EQ(runCamosim({"--channels=65537", "--cycles=1000"}), 3);
    // GA sizes are checked where the GA reads them: a population of 2
    // leaves no room beside the 2 elites, 1 cannot breed.
    for (const char *ga : {"--ga", "--ga-offline"}) {
        for (const char *pop : {"--ga-pop=2", "--ga-pop=1"}) {
            EXPECT_EQ(runCamosim({"--workloads=astar,astar",
                                  "--mitigation=bdc", ga, "--ga-gens=1",
                                  pop, "--cycles=1000"}),
                      3)
                << ga << " " << pop;
        }
    }
}
