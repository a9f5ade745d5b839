/**
 * @file
 * Canonical configurations: the paper's Table II system and the
 * workload mixes used throughout the evaluation.
 */

#ifndef CAMO_SIM_PRESETS_H
#define CAMO_SIM_PRESETS_H

#include <string>
#include <vector>

#include "src/sim/system.h"

namespace camo::sim {

/**
 * The Table II system: 4 cores, 2.4 GHz 4-wide 128-entry window,
 * 32KB/4-way L1 + 128KB/8-way private L2 (64B lines, 8 MSHRs),
 * 32-entry MC transaction queue, DDR3-1333 with 1 channel, 1 rank,
 * 8 banks, 8KB row buffers.
 */
SystemConfig paperConfig();

/**
 * The paper's w(ADVERSARY, x) mix: the adversary on core 0 and three
 * copies of the protected application on the remaining cores.
 */
std::vector<std::string> adversaryMix(const std::string &adversary,
                                      const std::string &victim,
                                      std::uint32_t num_cores = 4);

/**
 * Human-readable machine header printed above every bench and camosim
 * run: core count, pipeline, caches, queue depth and DRAM organization,
 * each read from `cfg`. It names "paper Table II" only when `cfg`
 * describes that machine.
 */
std::string systemBanner(const SystemConfig &cfg);

} // namespace camo::sim

#endif // CAMO_SIM_PRESETS_H
