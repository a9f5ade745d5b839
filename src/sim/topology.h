/**
 * @file
 * Data-driven topology descriptions: build a TopologyConfig (machine
 * shape + workload placement) from a JSON document, so an N-core x
 * M-channel system is an input file rather than code
 * (camosim --config=FILE).
 *
 * Schema (every key optional unless noted; unknown keys are
 * ConfigErrors so typos fail loudly):
 *
 *   {
 *     "cores": 8,                 // default: number of workloads
 *     "channels": 4,              // DRAM channels (default 1)
 *     "mitigation": "bdc",        // none|cs|reqc|respc|bdc|tp|fs
 *     "seed": 3,
 *     "workloads": ["mcf", ...],  // one per core, REQUIRED (or
 *     "workload": "astar",        //  one name replicated to all)
 *     "shape_cores": [0, 1],      // shape only these (default all)
 *     "cs_interval": 90,
 *     "fake_traffic": true,
 *     "randomize_timing": false,
 *     "fake_sequential": false,
 *     "fake_write_frac": 0.0,
 *     "fast_forward": true,
 *     "noc": { "latency": 6, "ingress_cap": 16, "egress_cap": 32 },
 *     "rowhammer": { "enabled": true, "act_threshold": 16,
 *                    "rfm_dram_cycles": 180 },  // TRR/PRAC defense
 *     "req_bins":  { "edges": [0, ...], "credits": [10, ...],
 *                    "replenish_period": 10000 },
 *     "resp_bins": { ... }        // same shape as req_bins
 *   }
 *
 * Everything unspecified keeps the Table II paper configuration
 * (sim::paperConfig()).
 */

#ifndef CAMO_SIM_TOPOLOGY_H
#define CAMO_SIM_TOPOLOGY_H

#include <optional>
#include <string>

#include "src/obs/json.h"
#include "src/sim/system.h"

namespace camo::sim {

/** Mitigation from its CLI/JSON name; nullopt if unknown. */
std::optional<Mitigation> mitigationFromName(const std::string &name);

/** Build a TopologyConfig from a parsed JSON document.
 *  Throws hard::ConfigError naming the offending key on any problem. */
TopologyConfig topologyFromJson(const obs::json::Value &doc);

/** Parse JSON text into a topology document, checked with
 *  topologyFromJson (ConfigError on bad JSON or a bad topology). */
obs::json::Value parseTopology(const std::string &text);

/** Read and parse a JSON topology file (see parseTopology). */
obs::json::Value loadTopology(const std::string &path);

} // namespace camo::sim

#endif // CAMO_SIM_TOPOLOGY_H
