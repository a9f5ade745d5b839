#include "src/sim/topology.h"

#include <fstream>
#include <limits>
#include <sstream>

#include "src/common/logging.h"
#include "src/hard/error.h"
#include "src/sim/presets.h"
#include "src/trace/workloads.h"

namespace camo::sim {

namespace {

using obs::json::Value;

[[noreturn]] void
fail(const std::string &key, const std::string &what)
{
    throw hard::ConfigError("topology: '" + key + "' " + what);
}

std::uint64_t
asU64(const Value &v, const std::string &key,
      std::uint64_t max = obs::json::kMaxExactInteger)
{
    const auto n = obs::json::toUnsigned(v, max);
    if (!n) {
        fail(key, "must be an integer in [0, " + std::to_string(max) +
                      "]");
    }
    return *n;
}

std::uint32_t
asU32(const Value &v, const std::string &key)
{
    return static_cast<std::uint32_t>(
        asU64(v, key, std::numeric_limits<std::uint32_t>::max()));
}

bool
asBool(const Value &v, const std::string &key)
{
    if (!v.isBool())
        fail(key, "must be a boolean");
    return v.asBool();
}

std::string
asString(const Value &v, const std::string &key)
{
    if (!v.isString())
        fail(key, "must be a string");
    return v.asString();
}

/** Parse {edges, credits, replenish_period} into a BinConfig. */
shaper::BinConfig
parseBins(const Value &v, const std::string &key)
{
    if (!v.isObject())
        fail(key, "must be an object");
    shaper::BinConfig bins;
    for (const auto &[k, val] : v.asObject()) {
        const std::string path = key + "." + k;
        if (k == "edges") {
            if (!val.isArray())
                fail(path, "must be an array");
            for (const Value &e : val.asArray())
                bins.edges.push_back(asU64(e, path));
        } else if (k == "credits") {
            if (!val.isArray())
                fail(path, "must be an array");
            for (const Value &c : val.asArray()) {
                bins.credits.push_back(asU32(c, path));
            }
        } else if (k == "replenish_period") {
            bins.replenishPeriod = asU64(val, path);
        } else {
            fail(path, "is not a recognized key");
        }
    }
    bins.validate(shaper::ValidatePolicy::Drainable);
    return bins;
}

/** Parse {enabled, act_threshold, rfm_dram_cycles} into the
 *  RowHammer-defense config (src/dram/rowhammer.h). */
void
parseRowHammer(const Value &v, dram::RowHammerConfig &rh)
{
    if (!v.isObject())
        fail("rowhammer", "must be an object");
    for (const auto &[k, val] : v.asObject()) {
        const std::string path = "rowhammer." + k;
        if (k == "enabled") {
            rh.enabled = asBool(val, path);
        } else if (k == "act_threshold") {
            rh.actThreshold = asU32(val, path);
            if (rh.actThreshold < 1)
                fail(path, "must be >= 1");
        } else if (k == "rfm_dram_cycles") {
            const std::uint64_t c = asU64(val, path);
            if (c < 1)
                fail(path, "must be >= 1");
            rh.rfmDramCycles = c;
        } else {
            fail(path, "is not a recognized key");
        }
    }
}

void
parseNoc(const Value &v, noc::ChannelConfig &noc)
{
    if (!v.isObject())
        fail("noc", "must be an object");
    for (const auto &[k, val] : v.asObject()) {
        const std::string path = "noc." + k;
        if (k == "latency")
            noc.latency = asU32(val, path);
        else if (k == "ingress_cap")
            noc.ingressCap = asU32(val, path);
        else if (k == "egress_cap")
            noc.egressCap = asU32(val, path);
        else
            fail(path, "is not a recognized key");
    }
}

} // namespace

std::optional<Mitigation>
mitigationFromName(const std::string &name)
{
    if (name == "none") return Mitigation::None;
    if (name == "cs") return Mitigation::CS;
    if (name == "reqc") return Mitigation::ReqC;
    if (name == "respc") return Mitigation::RespC;
    if (name == "bdc") return Mitigation::BDC;
    if (name == "tp") return Mitigation::TP;
    if (name == "fs") return Mitigation::FS;
    return std::nullopt;
}

TopologyConfig
topologyFromJson(const Value &doc)
{
    if (!doc.isObject())
        throw hard::ConfigError(
            "topology: document root must be a JSON object");

    TopologyConfig topo;
    topo.system = paperConfig();

    std::optional<std::uint32_t> cores;
    std::optional<std::string> replicated;
    std::vector<std::uint64_t> shape;
    bool haveShape = false;

    for (const auto &[k, v] : doc.asObject()) {
        if (k == "cores") {
            cores = asU32(v, k);
            if (*cores < 1)
                fail(k, "must be >= 1");
        } else if (k == "channels") {
            topo.system.mc.org.channels = asU32(v, k);
            if (topo.system.mc.org.channels < 1)
                fail(k, "must be >= 1");
        } else if (k == "mitigation") {
            const std::string name = asString(v, k);
            const auto m = mitigationFromName(name);
            if (!m) {
                fail(k, "'" + name +
                            "' is unknown (expected none, cs, reqc, "
                            "respc, bdc, tp, or fs)");
            }
            topo.system.mitigation = *m;
        } else if (k == "seed") {
            topo.system.seed = asU64(v, k);
        } else if (k == "workloads") {
            if (!v.isArray())
                fail(k, "must be an array of workload names");
            for (const Value &w : v.asArray())
                topo.workloads.push_back(asString(w, k));
        } else if (k == "workload") {
            replicated = asString(v, k);
        } else if (k == "shape_cores") {
            if (!v.isArray())
                fail(k, "must be an array of core indices");
            haveShape = true;
            for (const Value &c : v.asArray())
                shape.push_back(asU64(c, k));
        } else if (k == "cs_interval") {
            topo.system.csInterval = asU64(v, k);
        } else if (k == "fake_traffic") {
            topo.system.fakeTraffic = asBool(v, k);
        } else if (k == "randomize_timing") {
            topo.system.randomizeTiming = asBool(v, k);
        } else if (k == "fake_sequential") {
            topo.system.fakeSequential = asBool(v, k);
        } else if (k == "fake_write_frac") {
            if (!v.isNumber() ||
                !(v.asNumber() >= 0.0 && v.asNumber() <= 1.0))
                fail(k, "must be a number in [0, 1]");
            topo.system.fakeWriteFrac = v.asNumber();
        } else if (k == "fast_forward") {
            topo.system.fastForward = asBool(v, k);
        } else if (k == "noc") {
            parseNoc(v, topo.system.noc);
        } else if (k == "rowhammer") {
            parseRowHammer(v, topo.system.mc.rowhammer);
        } else if (k == "req_bins") {
            topo.system.reqBins = parseBins(v, k);
        } else if (k == "resp_bins") {
            topo.system.respBins = parseBins(v, k);
        } else {
            fail(k, "is not a recognized key");
        }
    }

    // Resolve core count and workload placement.
    if (!topo.workloads.empty() && replicated)
        fail("workload", "conflicts with 'workloads'");
    if (topo.workloads.empty()) {
        if (!replicated) {
            throw hard::ConfigError(
                "topology: need 'workloads' (one per core) or "
                "'workload' (one name for all cores)");
        }
        topo.workloads.assign(cores.value_or(1), *replicated);
    }
    if (cores && *cores != topo.workloads.size()) {
        fail("cores",
             "is " + std::to_string(*cores) + " but 'workloads' lists " +
                 std::to_string(topo.workloads.size()));
    }
    topo.system.numCores =
        static_cast<std::uint32_t>(topo.workloads.size());
    for (const auto &w : topo.workloads) {
        if (!trace::isKnownWorkload(w))
            fail("workloads", "names unknown workload '" + w + "'");
    }

    if (haveShape) {
        topo.system.shapeCore.assign(topo.system.numCores, false);
        for (const std::uint64_t c : shape) {
            if (c >= topo.system.numCores) {
                fail("shape_cores",
                     "index " + std::to_string(c) +
                         " is out of range (have " +
                         std::to_string(topo.system.numCores) +
                         " cores)");
            }
            topo.system.shapeCore[static_cast<std::size_t>(c)] = true;
        }
    }
    return topo;
}

TopologyConfig
parseTopology(const std::string &text)
{
    auto doc = obs::json::tryParse(text);
    if (!doc)
        throw hard::ConfigError("topology: malformed JSON");
    return topologyFromJson(*doc);
}

TopologyConfig
loadTopology(const std::string &path)
{
    std::ifstream is(path);
    if (!is)
        throw hard::ConfigError("topology: cannot open " + path);
    std::ostringstream ss;
    ss << is.rdbuf();
    return parseTopology(ss.str());
}

} // namespace camo::sim
