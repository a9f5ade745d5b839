/**
 * @file
 * Substrate design-choice ablations (DESIGN.md §3): the memory-system
 * knobs the paper holds fixed, characterized so their influence on
 * the headline experiments is known.
 *
 *  - address mapping scheme: row-locality vs bank-parallelism
 *  - page policy: open vs closed rows (closed also removes the
 *    row-buffer residency side channel)
 *  - channel count: 1 (Table II) vs 2
 *  - scheduler: FR-FCFS vs plain FCFS
 */

#include <cstdio>
#include <vector>

#include "src/sim/parallel.h"
#include "src/sim/presets.h"
#include "src/sim/runner.h"

using namespace camo;

namespace {

constexpr Cycle kRunCycles = 400000;
constexpr Cycle kWarmup = 40000;

} // namespace

int
main()
{
    std::printf("%s", sim::systemBanner(sim::paperConfig()).c_str());
    std::printf("# Substrate ablations (throughput = sum of IPC; mix "
                "in row labels)\n\n");

    // Every ablation point is an independent runConfig; queue them
    // all, sweep once, print from the in-order results.
    std::vector<sim::SimJob> jobs;
    auto queue = [&](sim::SystemConfig cfg, const char *adv,
                     const char *victim) {
        jobs.push_back({std::move(cfg), sim::adversaryMix(adv, victim),
                        kRunCycles, kWarmup});
    };

    sim::SystemConfig map_a = sim::paperConfig();
    map_a.mc.mapping = dram::MappingScheme::RowRankBankCol;
    queue(map_a, "libqt", "mcf"); // 0
    sim::SystemConfig map_b = sim::paperConfig();
    map_b.mc.mapping = dram::MappingScheme::RowColRankBank;
    queue(map_b, "libqt", "mcf"); // 1

    for (const auto policy :
         {mem::PagePolicy::Open, mem::PagePolicy::Closed}) {
        sim::SystemConfig cfg = sim::paperConfig();
        cfg.mc.pagePolicy = policy;
        queue(cfg, "libqt", "libqt"); // 2, 4
        queue(cfg, "mcf", "mcf");     // 3, 5
    }

    for (const std::uint32_t channels : {1u, 2u}) {
        sim::SystemConfig cfg = sim::paperConfig();
        cfg.mc.org.channels = channels;
        queue(cfg, "mcf", "mcf"); // 6, 7
    }

    for (const auto kind :
         {mem::SchedulerKind::FrFcfs, mem::SchedulerKind::Fcfs}) {
        sim::SystemConfig cfg = sim::paperConfig();
        cfg.mc.scheduler = kind;
        queue(cfg, "libqt", "hmmer"); // 8, 9
    }

    const auto m = sim::runConfigsParallel(jobs);
    auto tput = [&](std::size_t i) { return m[i].throughput(); };

    std::printf("-- address mapping, w(libqt, mcf) --\n");
    std::printf("row:rank:bank:col (row locality) %8.3f\n", tput(0));
    std::printf("row:col:rank:bank (bank parallel) %7.3f\n\n", tput(1));

    std::printf("-- page policy, streaming w(libqt, libqt) vs "
                "random w(mcf, mcf) --\n");
    std::printf("%-8s streaming %7.3f  random %7.3f\n", "open", tput(2),
                tput(3));
    std::printf("%-8s streaming %7.3f  random %7.3f\n", "closed",
                tput(4), tput(5));
    std::printf("\n");

    std::printf("-- channel count, bandwidth-bound w(mcf, mcf) --\n");
    std::printf("1 channel(s) %8.3f\n", tput(6));
    std::printf("2 channel(s) %8.3f\n\n", tput(7));

    std::printf("-- scheduler, row-friendly w(libqt, hmmer) --\n");
    std::printf("%-8s %8.3f\n",
                mem::schedulerKindName(mem::SchedulerKind::FrFcfs),
                tput(8));
    std::printf("%-8s %8.3f\n",
                mem::schedulerKindName(mem::SchedulerKind::Fcfs),
                tput(9));
    std::printf("\n# expectations: bank-parallel mapping and FR-FCFS "
                "win; closed page costs streaming throughput;\n"
                "# a second channel relieves mcf's bandwidth bound\n");
    return 0;
}
