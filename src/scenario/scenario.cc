#include "src/scenario/scenario.h"

#include <cstdio>
#include <sstream>

#include "src/hard/error.h"
#include "src/security/covert_receiver.h"
#include "src/security/mutual_information.h"
#include "src/sim/run_spec.h"
#include "src/sim/topology.h"
#include "src/trace/covert.h"

namespace camo::scenario {

namespace {

/**
 * Embedded topology texts. These are the byte-for-byte contents of
 * the files under examples/topologies/ (tests pin the equality), so
 * the CLI/daemon can resolve scenarios with no filesystem
 * dependency while the shipped files stay canonical.
 */
const char kRowHammerOpen[] =
    "{\n"
    "  \"seed\": 9,\n"
    "  \"mitigation\": \"none\",\n"
    "  \"workloads\": [\"hammer:2AAAAAAA\", \"probe\", \"sjeng\", "
    "\"sjeng\"],\n"
    "  \"rowhammer\": { \"enabled\": true, \"act_threshold\": 16, "
    "\"rfm_dram_cycles\": 180 }\n"
    "}\n";

const char kRowHammerShaped[] =
    "{\n"
    "  \"seed\": 9,\n"
    "  \"mitigation\": \"reqc\",\n"
    "  \"randomize_timing\": true,\n"
    "  \"shape_cores\": [0],\n"
    "  \"workloads\": [\"hammer:2AAAAAAA\", \"probe\", \"sjeng\", "
    "\"sjeng\"],\n"
    "  \"rowhammer\": { \"enabled\": true, \"act_threshold\": 16, "
    "\"rfm_dram_cycles\": 180 }\n"
    "}\n";

const char kPimOpen[] =
    "{\n"
    "  \"seed\": 9,\n"
    "  \"mitigation\": \"none\",\n"
    "  \"workloads\": [\"pim:2AAAAAAA:5000\", \"probe:100\", \"sjeng\", "
    "\"sjeng\"]\n"
    "}\n";

const char kPimShaped[] =
    "{\n"
    "  \"seed\": 9,\n"
    "  \"mitigation\": \"reqc\",\n"
    "  \"shape_cores\": [0],\n"
    "  \"workloads\": [\"pim:2AAAAAAA:5000\", \"probe:100\", \"sjeng\", "
    "\"sjeng\"]\n"
    "}\n";

const char kTraceOpen[] =
    "{\n"
    "  \"seed\": 9,\n"
    "  \"mitigation\": \"none\",\n"
    "  \"workloads\": [\"dramsim2:@sample\", \"probe\", "
    "\"champsim:@sample\", \"apache\"]\n"
    "}\n";

const char kTraceShaped[] =
    "{\n"
    "  \"seed\": 9,\n"
    "  \"mitigation\": \"reqc\",\n"
    "  \"randomize_timing\": true,\n"
    "  \"shape_cores\": [0, 2],\n"
    "  \"workloads\": [\"dramsim2:@sample\", \"probe\", "
    "\"champsim:@sample\", \"apache\"]\n"
    "}\n";

std::vector<ScenarioSpec>
buildScenarios()
{
    std::vector<ScenarioSpec> out;

    {
        ScenarioSpec s;
        s.name = "rowhammer-trr";
        s.title = "TRR/PRAC RowHammer defense as a timing channel";
        s.description =
            "A refresh-management mitigation in the DRAM model stalls "
            "the channel every 16 activations of a bank; a hammer "
            "sender's row-conflict storms modulate the stall rate, so "
            "the probe core reads the key out of its own latencies "
            "(arXiv 2503.17891). Shaped variant: ReqC on the sender.";
        s.openTopologyJson = kRowHammerOpen;
        s.shapedTopologyJson = kRowHammerShaped;
        s.senderCore = 0;
        s.probeCore = 1;
        s.victimCore = 0;
        s.slowdownCores = {2, 3};
        s.key = 0x2AAAAAAAu;
        s.keyLength = 32;
        s.pulseCycles = 20000;
        s.runCycles = 20000 * 128;
        out.push_back(std::move(s));
    }
    {
        ScenarioSpec s;
        s.name = "pim-covert";
        s.title = "PIM-command covert channel (amplified capacity)";
        s.description =
            "A processing-in-memory offload engine moves a full DRAM "
            "row per command at a few host instructions' cost, so "
            "modulating the command rate swings memory occupancy 4x "
            "faster than Algorithm 1's load/store loop: 5000-cycle "
            "pulses decode where the paper needed 20000 (arXiv "
            "2404.11284). Shaped variant: ReqC on the sender.";
        s.openTopologyJson = kPimOpen;
        s.shapedTopologyJson = kPimShaped;
        s.senderCore = 0;
        s.probeCore = 1;
        s.victimCore = 0;
        s.slowdownCores = {2, 3};
        s.key = 0x2AAAAAAAu;
        s.keyLength = 32;
        s.pulseCycles = 5000;
        s.runCycles = 5000 * 256;
        out.push_back(std::move(s));
    }
    {
        ScenarioSpec s;
        s.name = "trace-replay";
        s.title = "Real-trace ingestion (DRAMSim2 + ChampSim)";
        s.description =
            "Cores replay real-format memory traces "
            "(src/trace/file_trace.h) instead of synthetic models; the "
            "probe measures what the DRAMSim2-driven core's phase "
            "structure leaks through the shared memory system (no "
            "covert key — windowed MI only). Shaped variant: ReqC on "
            "both trace-driven cores.";
        s.openTopologyJson = kTraceOpen;
        s.shapedTopologyJson = kTraceShaped;
        s.senderCore = ScenarioSpec::kNoCore;
        s.probeCore = 1;
        s.victimCore = 0;
        s.slowdownCores = {0, 2, 3};
        s.pulseCycles = 20000;
        s.runCycles = 2000000;
        out.push_back(std::move(s));
    }
    return out;
}

/** What one topology run leaves behind for the reductions. */
struct RunCapture
{
    sim::RunMetrics metrics;
    std::vector<security::LatencySample> probeLatencies;
    std::vector<shaper::TrafficEvent> victimIntrinsic;
};

/** Run one topology and measure its channel (windowed MI is computed
 *  by the caller: the shaped run's X must come from the *open* run —
 *  under shaping the in-run intrinsic stream is already perturbed by
 *  shaper back-pressure, see bench/mi_measurement.cc). */
ChannelMeasurement
measureOne(const ScenarioSpec &spec, const std::string &topology_json,
           Cycle cycles, RunCapture &cap)
{
    sim::RunSpec run;
    run.config = sim::parseTopology(topology_json);
    run.cycles = cycles;
    run.warmup = 0;
    sim::RunHooks hooks;
    hooks.configure = [](sim::SystemConfig &cfg,
                         const std::vector<std::string> &) {
        cfg.recordLatencies = true; // the probe's observations
        cfg.recordTraffic = true;   // the victim's intrinsic events
    };
    const sim::SpecRun r = sim::runSpec(run, hooks);
    sim::System &sys = *r.system;
    cap.metrics = r.metrics;
    cap.probeLatencies = sys.latencyLog(spec.probeCore);
    cap.victimIntrinsic = sys.intrinsicMonitor(spec.victimCore).events();

    ChannelMeasurement m;
    m.throughput = cap.metrics.throughput();
    for (std::uint32_t c = 0; c < sys.memory().numChannels(); ++c) {
        if (const dram::RowHammerDefense *rh =
                sys.memory().channel(c).rowhammer()) {
            m.rfmStalls += rh->stats().counter("rfm.issued");
        }
    }

    if (spec.senderCore != ScenarioSpec::kNoCore) {
        security::CovertDecoderConfig dcfg;
        dcfg.windowCycles = spec.pulseCycles;
        const std::size_t num_bits = cycles / spec.pulseCycles;
        const security::DecodeResult decoded = security::decodeCovert(
            cap.probeLatencies, dcfg, num_bits);
        m.ber = security::bitErrorRate(
            decoded.bits, trace::keyBits(spec.key, spec.keyLength));
        m.channelCapacityBits =
            security::binaryChannelCapacityBits(m.ber);
    }
    return m;
}

} // namespace

const std::vector<ScenarioSpec> &
scenarios()
{
    static const std::vector<ScenarioSpec> all = buildScenarios();
    return all;
}

const ScenarioSpec *
findScenario(const std::string &name)
{
    for (const ScenarioSpec &s : scenarios()) {
        if (s.name == name)
            return &s;
    }
    return nullptr;
}

const std::string &
scenarioTopologyJson(const std::string &ref)
{
    std::string name = ref;
    bool shaped = false;
    const std::size_t colon = ref.find(':');
    if (colon != std::string::npos) {
        name = ref.substr(0, colon);
        const std::string variant = ref.substr(colon + 1);
        if (variant != "shaped" && variant != "open") {
            throw hard::ConfigError(
                "scenario '" + name + "': unknown variant token '" +
                variant + "' at byte " + std::to_string(colon + 1) +
                " (expected 'open' or 'shaped')");
        }
        shaped = variant == "shaped";
    }
    const ScenarioSpec *spec = findScenario(name);
    if (!spec) {
        std::string known;
        for (const ScenarioSpec &s : scenarios())
            known += (known.empty() ? "" : ", ") + s.name;
        throw hard::ConfigError("unknown scenario token '" + name +
                                "' at byte 0 (known: " + known + ")");
    }
    return shaped ? spec->shapedTopologyJson : spec->openTopologyJson;
}

ScenarioResult
evaluateScenario(const ScenarioSpec &spec, Cycle cycles)
{
    if (cycles == 0)
        cycles = spec.runCycles;
    ScenarioResult result;
    RunCapture open_cap;
    RunCapture shaped_cap;
    result.open =
        measureOne(spec, spec.openTopologyJson, cycles, open_cap);
    result.shaped =
        measureOne(spec, spec.shapedTopologyJson, cycles, shaped_cap);
    // Windowed MI: X is always the victim's *unshaped* intrinsic
    // timing (the open run); Y is what the probe saw in each run. The
    // k-th window is the same wall-clock window in both runs (same
    // seed, same length), mirroring the reference-run methodology of
    // bench/mi_measurement.cc.
    result.open.windowMiBits =
        security::computeWindowedCrossMi(open_cap.victimIntrinsic,
                                         open_cap.probeLatencies,
                                         spec.pulseCycles, 4)
            .miBits;
    result.shaped.windowMiBits =
        security::computeWindowedCrossMi(open_cap.victimIntrinsic,
                                         shaped_cap.probeLatencies,
                                         spec.pulseCycles, 4)
            .miBits;
    const std::vector<double> slow =
        sim::slowdownVs(open_cap.metrics, shaped_cap.metrics);
    double worst = 1.0;
    for (const std::uint32_t c : spec.slowdownCores) {
        if (c < slow.size() && slow[c] > worst)
            worst = slow[c];
    }
    result.slowdown = worst;
    return result;
}

std::string
listScenariosText()
{
    std::ostringstream os;
    os << "Registered attack scenarios (camosim --scenario=NAME, "
          "NAME:shaped for the mitigated variant):\n";
    for (const ScenarioSpec &s : scenarios()) {
        os << "\n  " << s.name << " — " << s.title << "\n";
        os << "      " << s.description << "\n";
        char line[160];
        if (s.senderCore != ScenarioSpec::kNoCore) {
            std::snprintf(line, sizeof line,
                          "      sender core %u, probe core %u, "
                          "pulse %llu cycles, key 0x%08X (%u bits)\n",
                          s.senderCore, s.probeCore,
                          static_cast<unsigned long long>(s.pulseCycles),
                          s.key, s.keyLength);
        } else {
            std::snprintf(line, sizeof line,
                          "      victim core %u, probe core %u, "
                          "MI window %llu cycles (no covert key)\n",
                          s.victimCore, s.probeCore,
                          static_cast<unsigned long long>(s.pulseCycles));
        }
        os << line;
    }
    return os.str();
}

} // namespace camo::scenario
